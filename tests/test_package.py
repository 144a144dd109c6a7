"""The package namespace: what `import rep132` binds, what it loads, and the
environment it reads."""

import gc
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rep132

SRC = Path(rep132.__file__).resolve().parent.parent
RUN_PY = SRC.parent / "perfbench" / "run.py"


def run_fresh(code):
    """Run code in a fresh interpreter that imports the package from SRC,
    with no rep132 variables set, as perfbench's set-up probe does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REP132_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------- namespace


def test_star_import_binds_exactly_all():
    names = {}
    exec("from rep132 import *", names)
    del names["__builtins__"]
    assert len(rep132.__all__) == len(set(rep132.__all__)) == 60
    assert sorted(names) == sorted(rep132.__all__)


def test_each_name_is_the_object_of_its_home_module():
    for name in rep132.__all__:
        value = getattr(rep132, name)
        home = importlib.import_module(f"rep132.{rep132._HOME[name]}")
        assert value is getattr(home, name), name
        defined_in = getattr(value, "__module__", None)
        if callable(value) and defined_in != "builtins":
            # a class or function is defined there, not re-exported from
            # elsewhere (Labeling, an alias of tuple, is builtins')
            assert defined_in == home.__name__, name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(rep132.__all__) <= set(dir(rep132))
    assert {"search", "kernels", "cli"} <= set(dir(rep132))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rep132.no_such_name
    with pytest.raises(ImportError):
        exec("from rep132 import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    done = run_fresh(
        "import sys, rep132\n"
        "assert 'rep132.search' not in sys.modules\n"
        "print(rep132.search.__name__, rep132.kernels.__name__)\n"
        "from rep132 import formats, search\n"
        "print(search is rep132.search, formats.__name__)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rep132.search", "rep132.kernels",
                                   "True", "rep132.formats"]


# --------------------------------------------------------------- cold start


def setup_probe_code() -> str:
    """SETUP_CODE of perfbench/run.py: what its setup_s times."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SETUP_CODE


COLD_START_CHECK = """
import sys
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "rep132")))
print(" ".join(m for m in ("concurrent.futures", "multiprocessing", "dataclasses")
               if m in sys.modules) or "-")
import os
os.sched_getaffinity = lambda pid: {0, 1}  # two groups on any machine
from rep132 import formats, search
search.BATCH_GRAPHS = 4 * search.FIRST_ASKS  # order 4 then forks (7 classes)
serial = search.scan_order(4, workers=1)
parallel = search.scan_order(4, workers=2)
print(formats.dumps(formats.catalog_to_json(4, parallel))
      == formats.dumps(formats.catalog_to_json(4, serial)), len(serial))
print(" ".join(m for m in ("concurrent.futures", "multiprocessing")
               if m in sys.modules) or "-")
"""


def test_cold_start_loads_only_what_the_probe_runs():
    done = run_fresh(setup_probe_code() + COLD_START_CHECK)
    assert done.returncode == 0, done.stderr
    loaded, heavy, same, after_scans = done.stdout.splitlines()
    allowed = {"rep132", "rep132.graphs", "rep132.kernels", "rep132._kernel_py"}
    assert {"rep132", "rep132.kernels"} <= set(loaded.split())
    assert set(loaded.split()) - {"rep132._kernel"} <= allowed, loaded
    assert heavy == "-"
    # a parallel scan is the serial one, and it loads multiprocessing for
    # its child processes but no executor
    assert same == "True 7"
    assert after_scans == "multiprocessing"


# -------------------------------------------------------------- environment

ENV_NAME = re.compile(r"REP132_[A-Z_]+")


def test_the_package_reads_one_documented_environment_variable():
    # every setting but the backend is an argument or a flag, so the
    # sources name one variable and README documents exactly that one
    package = Path(rep132.__file__).resolve().parent
    sources = sorted(package.glob("*.py")) + [package / "_kernel.c"]
    used = {name for path in sources for name in ENV_NAME.findall(path.read_text())}
    documented = set(ENV_NAME.findall((SRC.parent / "README.md").read_text()))
    assert used == documented == {"REP132_BACKEND"}


# ------------------------------------------------------------------ memory

# Inputs of a few bytes that name a vertex count of 10**10: each call must
# answer from the input's size, not by building a set or a dict of n
# entries, which took seconds and then raised MemoryError under this cap
# (and would grow until the OOM killer stepped in without one).
HUGE_N = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
from rep132 import LabeledGraph, RootedTree, Word, graph_from_word, represents
from rep132.circle import ChordDiagram, intersection_graph
from rep132.cli import main
graph_file, tree_file = sys.argv[1:]
print(represents(Word("12"), LabeledGraph(10**10)).first_violation.reason)
for call in (lambda: graph_from_word(Word("10000000000")),
             lambda: RootedTree(10**10, 1, []),
             lambda: intersection_graph(ChordDiagram((10**10, 10**10)))):
    try:
        call()
    except ValueError as e:
        print("ValueError:", e)
print("exit", main(["check-word", "12", "--graph", graph_file]))
print("exit", main(["represent", "tree", tree_file]))
"""


def test_a_huge_vertex_count_in_a_tiny_input_allocates_nothing_per_vertex(tmp_path):
    graph_file, tree_file = tmp_path / "g.graph", tmp_path / "t.tree"
    graph_file.write_text("n 10000000000\n")
    tree_file.write_text("n 10000000000\nroot 1\n")
    done = subprocess.run(
        [sys.executable, "-c", HUGE_N, str(graph_file), str(tree_file)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:4] == [
        "alphabet-mismatch",
        "ValueError: alphabet has gaps (missing 1..9999999999); reduce the word first",
        "ValueError: a tree on 10000000000 vertices needs 9999999999 parent-child pairs",
        "ValueError: chord letters must be exactly 1..n",
    ]
    assert f"represents {graph_file}: no (alphabet-mismatch)" in lines
    assert lines[-2:] == ["exit 0", "exit 2"]
    assert done.stderr == (
        "error: a tree on 10000000000 vertices needs 9999999999 parent-child pairs\n")


# rep132 represent with an n whose word or words could not be printed: the
# command refuses it at once, with exit 2 and one error line. path, cycle
# and complete with n = 10**10 used to die with MemoryError under this cap
# after seconds, and complete 40 --enumerate to run for minutes.
REPRESENT_IN_A_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
from rep132.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_represent_refuses_an_output_it_cannot_print():
    for argv in (["path", "10000000000"], ["cycle", "10000000000"],
                 ["complete", "10000000000"], ["complete", "40", "--enumerate"]):
        done = subprocess.run(
            [sys.executable, "-c", REPRESENT_IN_A_CAP, "represent", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr)
        assert done.stderr.startswith("error: represent prints at most 10**6 letters")
        assert done.stderr.count("\n") == 1, (argv, done.stderr)


def test_recursive_helpers_leave_no_cyclic_garbage():
    # A closure that calls itself refers to itself through its own cell, so
    # each call left a cycle for the collector (393 extend closures with
    # their cells and lists after one scan_order(6)); each helper now breaks
    # its cycle, as the kernels do. A search's keys (_keys.Keys), its walk
    # and its records must be freed by reference counting alone too, at
    # orders where keys come in blocks and past them.
    from rep132 import (P132, RootedTree, SearchConfig, Word, _keys, automorphisms,
                        av132_permutations, canonical_form, contains_pattern,
                        cycle, enumerate_graphs, scan_order, search_all_labelings,
                        search_fixed, tree_representant, wheel)

    calls = [
        lambda: canonical_form(wheel(5)),
        lambda: automorphisms(wheel(5)),
        lambda: list(enumerate_graphs(5)),
        lambda: tree_representant(RootedTree(3, 1, [(1, 2), (1, 3)])),
        lambda: list(av132_permutations(4)),
        lambda: contains_pattern(Word("2413"), P132),
        lambda: search_fixed(wheel(5)),
        lambda: search_all_labelings(wheel(5)),
        lambda: search_all_labelings(cycle(8)),
        lambda: search_all_labelings(wheel(7), SearchConfig(node_budget=10**5)),
        lambda: scan_order(5),
    ]
    here = os.path.dirname(rep132.__file__)

    def search_state():
        # gc.collect() frees a cycle through a generator but may count 0 for
        # it (CPython 3.11), so look for a finished search's objects alive
        return [o for o in gc.get_objects() if type(o) is _keys.Keys
                or type(o).__name__ == "generator"
                and os.path.dirname(o.gi_code.co_filename) == here]

    gc.collect()
    gc.disable()
    try:
        for i, call in enumerate(calls):
            call()
            assert search_state() == [], i
            assert gc.collect() == 0, i
    finally:
        gc.enable()
