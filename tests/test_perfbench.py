"""The benchmark's own correctness check, run as the benchmark runs it.

perfbench/run.py reads names of the package (kernels.run_search,
kernels.load_backend, kernels.backend_name, each backend's run_search) and
checks every pass against its pinned references, so a renamed name or a
changed report fails here rather than only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scan6", "scan6-par2"])
def test_benchmark_workload_runs_correctly(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout


def test_traced_scan_times_witness_checks_and_relabels():
    # each of the 118 witnesses of an order-6 scan is checked by
    # represent.is_132_representant on the graph relabel builds, both called
    # through rep132.search, where the tracer wraps them
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan6", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    metrics = result["metrics"]
    assert metrics["represent.verify_calls"]["value"] == 118
    assert metrics["graphs.relabel_calls"]["value"] == 118
    missing = [line for line in done.stdout.splitlines() if line.startswith("not traced")]
    for name in ("rep132.search.relabel", "rep132.search.is_132_representant"):
        assert all(name not in line for line in missing), missing
