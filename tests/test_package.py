"""The package namespace: what `import rep132` binds, what it loads, and the
environment it reads."""

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
