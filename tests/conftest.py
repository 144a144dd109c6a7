"""Shared brute-force oracles, kept deliberately independent of the package.

Every helper here recomputes alternation / pattern containment / coverage
from first principles (nested loops over index tuples, multiset
permutations via itertools) so that library results can be checked against
code that shares no logic with the implementation under test.

The fixtures write graph files and provide the compiled kernel, built from
the repository's own setup.py when it is not already importable; run_child
runs code in a child process on a chosen kernel backend.
"""

from __future__ import annotations

import functools
import itertools
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest


def brute_alternates(seq, x, y):
    proj = [c for c in seq if c == x or c == y]
    return all(a != b for a, b in zip(proj, proj[1:]))


def brute_has_132(seq):
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if seq[i] < seq[k] < seq[j]:
                    return True
    return False


def brute_edges(seq):
    """Edge set of the graph the word represents (letters taken as-is)."""
    letters = sorted(set(seq))
    return {
        (x, y)
        for x, y in itertools.combinations(letters, 2)
        if brute_alternates(seq, x, y)
    }


def words_with_copy_counts(n, min_copies, max_copies):
    """All words over {1..n} using each letter min..max times, as tuples."""
    ranges = [range(min_copies, max_copies + 1)] * n
    for counts in itertools.product(*ranges):
        letters = []
        for i, c in enumerate(counts, start=1):
            letters += [i] * c
        yield from set(itertools.permutations(letters))


@functools.lru_cache(maxsize=None)
def brute_buckets(n, min_copies=1, max_copies=2, forbid_132=True):
    """Every word over {1..n} with min..max copies of each letter, 132-avoiding
    if forbid_132, bucketed by the graph it represents: a dict from the
    graph's edge set, a frozenset of (x, y) pairs with x < y, to its words,
    sorted. An edge set with no bucket has no such representant.
    """
    buckets = {}
    for w in words_with_copy_counts(n, min_copies, max_copies):
        if forbid_132 and brute_has_132(w):
            continue
        buckets.setdefault(frozenset(brute_edges(w)), []).append(w)
    for words in buckets.values():
        words.sort()
    return buckets


def brute_representants(g, min_copies=1, max_copies=2, forbid_132=True):
    """All (132-avoiding) word-representants of g, fixed labeling, sorted."""
    buckets = brute_buckets(g.n, min_copies, max_copies, forbid_132)
    return list(buckets.get(frozenset(map(tuple, g.edge_list())), []))


@pytest.fixture
def write_graph(tmp_path):
    """Write a GraphFile for a LabeledGraph and return its path."""

    def _write(g, name="g.graph"):
        lines = [f"n {g.n}"] + [f"{u} {v}" for u, v in g.edge_list()]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return _write


def c_compiler():
    """The compiler command sysconfig names as CC, and Python's include dir.

    Skips the calling test when the compiler or Python.h is missing.
    """
    cc = shlex.split(sysconfig.get_config_var("CC"))
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which(cc[0]) is None or not (include / "Python.h").exists():
        pytest.skip(f"building rep132._kernel needs a C compiler and {include / 'Python.h'}")
    return cc, include


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel module, built into a temporary directory if needed.

    The build runs setup.py build_ext outside the source tree, so neither the
    checkout nor the default backend of later runs changes. It adds -Wall
    -Wextra -Werror to CFLAGS, so any compiler warning fails it. The built
    package directory is appended to rep132.__path__, and the module is then
    loaded through kernels.load_backend like any installed one.
    """
    import rep132
    from rep132 import kernels

    try:
        return kernels.load_backend("c")
    except ImportError:
        pass
    c_compiler()
    out = tmp_path_factory.mktemp("kernel-build")
    cflags = os.environ.get("CFLAGS", "") + " -Wall -Wextra -Werror"
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        env=dict(os.environ, CFLAGS=cflags),
    )
    assert build.returncode == 0, build.stdout + build.stderr
    rep132.__path__.append(str(out / "lib" / "rep132"))
    return kernels.load_backend("c")


# Code that loads the package in a child process started by run_child, with
# the compiled kernel's directory on its search path, so the REP132_BACKEND
# choice made at the first kernel call can find it.
LOAD_PACKAGE = """
import importlib.util, sys
package, kernel_dir = sys.argv[1:]
spec = importlib.util.spec_from_file_location(
    "rep132", package + "/__init__.py",
    submodule_search_locations=[package, kernel_dir])
rep132 = sys.modules["rep132"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rep132)
from rep132 import kernels
"""


def run_child(code, backend, request):
    """Run code in a child process whose kernels module selects backend."""
    from rep132 import kernels

    package = Path(kernels.__file__).parent
    kernel_dir = package
    if backend == "c":
        kernel_dir = Path(request.getfixturevalue("compiled_kernel").__file__).parent
    return subprocess.run(
        [sys.executable, "-c", code, str(package), str(kernel_dir)],
        env=dict(os.environ, REP132_BACKEND=backend),
        capture_output=True, text=True, timeout=120,
    )
