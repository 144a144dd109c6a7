"""Build the optional compiled search kernel.

The package works without it: when the extension module is missing at
import time, rep132.kernels falls back to the pure-Python kernel. A build
that tries to compile it and fails is an error, not a fallback.

With Cython installed the extension is cythonized from _kernel.pyx. Without
it, the Cython-generated _kernel.c that ships with the sources is compiled
directly, so a C compiler and the Python headers are all a build needs.
"""

from setuptools import Extension, setup


def kernel_extension(source):
    return Extension("rep132._kernel", [source], extra_compile_args=["-O3"])


try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [kernel_extension("src/rep132/_kernel.c")]
else:
    ext_modules = cythonize(
        [kernel_extension("src/rep132/_kernel.pyx")],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
