"""Build the optional compiled search kernel, rep132._kernel.

The package works without it: when the extension module is missing at
import time, rep132.kernels falls back to the pure-Python kernel. A build
that tries to compile it and fails is an error, not a fallback.

src/rep132/_kernel.c is written by hand against the Python C API, so a C
compiler and the Python headers (Python.h) are all a build needs.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("rep132._kernel", ["src/rep132/_kernel.c"], extra_compile_args=["-O3"]),
])
