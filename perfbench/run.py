#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rep132, run against src/ of a checkout.

    python3 perfbench/run.py --workload scan6 --seed 1 --seconds 10 --trace 0

Workloads (the seed drives only classify7; the scans take no random input):

  scan6       `rep132 scan --order 6 --workers 1 --json OUT` through cli.main,
              in-process: 122 classes, 6,816 labelings, 7,106,443 kernel
              nodes, 118 witnesses. Crosses every layer; on the pure-Python
              kernel nearly all of its time is the kernel.
  scan6-par2  the same command with --workers 2: the only workload on the
              process-pool path of rep132.search. Its report must equal the
              serial one byte for byte.
  classify7   graphs.enumerate_graphs(7, isolate_free=True), then
              graphs.canonical_form of each of the 888 classes and of one
              seeded random relabeling of each. The kernel is never called.

With --trace 0 a run measures set-up in fresh interpreters, then makes whole
passes until --seconds have gone by (at least one) and reports medians over
passes. With --trace 1 it makes one pass with spans around the calls into
each module (see spans.py) and reports per-layer metrics; compare its
trace.classes_per_s with the untraced classes_per_s for the tracing
overhead. Every pass is checked against reference.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it give the recorded environment
(backend, nproc, commit, Python, seed), every metric with its unit, and
fail_share. A directory without src/rep132 makes the run exit with code 2
before any result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("scan6", "scan6-par2", "classify7")
SCAN_WORKERS = {"scan6": 1, "scan6-par2": 2}

SETUP_RUNS = 7
# What a fresh interpreter does before it can answer: import the package,
# select the kernel backend, and make one kernel call.
SETUP_CODE = (
    "import rep132\n"
    "from rep132 import kernels\n"
    "kernels.backend_name()\n"
    "kernels.run_search(3, rep132.complete(3).adjacency_masks(), 1, 2, True, False, None)\n"
)


def prepare_environment() -> None:
    """Run the checkout's src/ as Tier-1 does, with no rep132 variables set."""
    if not (SRC / "rep132" / "__init__.py").is_file():
        print(f"error: {SRC / 'rep132'} not found; run from a rep132 checkout", file=sys.stderr)
        sys.exit(2)
    for var in ("REP132_WORKERS", "REP132_BACKEND"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def measure_setup() -> float:
    """Median wall time from spawning a fresh interpreter to its exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # No timeout: a wait with one polls the child every 50 ms, which
        # rounds the measured time up to the next poll.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: source_sha256 identifies the code
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rep132").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workloads, name: str, workdir: Path, taus, tracer=None):
    if name == "classify7":
        return workloads.classify_pass(taus, tracer)
    return workloads.scan_pass(SCAN_WORKERS[name], workdir, tracer)


def rate(count, seconds: float) -> float:
    return count / seconds if seconds else 0.0  # zero time: the pass crashed


def end_to_end(passes, setup_s: float) -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    med = statistics.median
    return {
        "setup_s": (setup_s, "s"),
        "classes_per_s": (med(rate(p.classes, p.wall_s) for p in passes), "1/s"),
        "cpu_per_class_s": (med(p.cpu_s / p.classes for p in passes), "s"),
        "peak_rss_mb": (max(me, kids) / 1024, "MB"),
    }


def classify_rates(passes) -> dict:
    """The two phases of classify7, printed but not in the JSON result.

    Canonical forms take about three seconds a pass, too short to be steady
    on a shared machine, and every metric in the result must exist on every
    workload; classes_per_s of classify7 covers both phases.
    """
    med = statistics.median
    return {
        "enum_classes_per_s": (med(p.enum_per_s for p in passes), "1/s"),
        "canon_per_s": (med(p.canon_per_s for p in passes), "1/s"),
    }


def nearest_rank(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_layer(p) -> dict:
    """Per-layer metrics of one traced pass."""
    t = p.tracer
    count, total, own = t.totals()
    w_calls, w_nodes, w_tested, w_seconds = t.worker_kernel
    calls = count["kernels.run_search"] + w_calls
    nodes = t.parent_kernel[0] + w_nodes
    kernel_s = total["kernels.run_search"] + w_seconds
    tried = p.labelings_tried
    decide = sorted(t.durations("search.search_all_labelings"))
    pool = ("search.pool_init", "search.pool_map", "search.pool_shutdown")
    return {
        "kernels.calls": (calls, "count"),
        "kernels.nodes": (nodes, "count"),
        "kernels.words_tested": (t.parent_kernel[1] + w_tested, "count"),
        "kernels.run_search_s": (kernel_s, "s"),
        "kernels.nodes_per_s": (rate(nodes, kernel_s), "1/s"),
        "graphs.enumerate_s": (total["graphs.enumerate_graphs"], "s"),
        "graphs.enumerate_classes": (t.items["graphs.enumerate_graphs"], "count"),
        "graphs.canonical_form_s": (total["graphs.canonical_form"], "s"),
        "graphs.canonical_form_calls": (count["graphs.canonical_form"], "count"),
        "graphs.relabel_s": (total["graphs.relabel"], "s"),
        "graphs.relabel_calls": (count["graphs.relabel"], "count"),
        "search.labelings_s": (
            total["search.all_labelings"] + total["search.reduced_labelings"], "s"
        ),
        "search.labelings_tried": (tried, "count"),
        "search.decide_s_p50": (nearest_rank(decide, 0.5), "s"),
        "search.decide_s_tail": (nearest_rank(decide, 0.9), "s"),
        "search.pools_created": (count["search.pool_init"], "count"),
        "search.pool_overhead_s": (sum(total[n] for n in pool), "s"),
        "search.wait_s": (total["search.pool_wait"], "s"),
        "search.worker_cpu_s": (p.worker_cpu_s, "s"),
        "search.useful_ratio": (rate(tried, calls), "ratio"),
        "search.self_s": (
            sum(v for k, v in own.items() if k.startswith("search.")) - total["search.pool_wait"],
            "s",
        ),
        "represent.verify_calls": (count["represent.is_132_representant"], "count"),
        "represent.verify_s": (total["represent.is_132_representant"], "s"),
        "cli.report_s": (
            own["cli.main"] + total["formats.catalog_to_json"] + total["formats.dumps"], "s"
        ),
        "cli.report_bytes": (p.report_bytes, "bytes"),
        "trace.classes_per_s": (rate(p.classes, p.wall_s), "1/s"),
        "trace.spans": (len(t.spans), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    prepare_environment()
    setup_s = measure_setup() if not args.trace else None
    exec(SETUP_CODE, {})  # this process gets ready the way the timed ones did
    import rep132
    import workloads
    from spans import Tracer

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": rep132.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "workers": SCAN_WORKERS.get(args.workload),
    }
    taus = workloads.classify_inputs(args.seed) if args.workload == "classify7" else None

    passes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            tracer = Tracer(workdir / "kernel-counts.bin")
            passes.append(run_pass(workloads, args.workload, workdir, taus, tracer))
        else:
            deadline = time.perf_counter() + args.seconds
            while not passes or time.perf_counter() < deadline:
                passes.append(run_pass(workloads, args.workload, workdir, taus))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if args.workload == "scan6" and not args.trace:
        env["kernel_parity"], checked, bad = workloads.kernel_parity()
        attempted += checked
        failed += bad
    print("env " + json.dumps(env, sort_keys=True))

    for i, p in enumerate(passes, start=1):
        print(f"pass {i}: {p.classes} classes in {p.wall_s:.3f} s, "
              f"{p.failed} of {p.attempted} operations failed")
        for why in p.problems:
            print(f"  problem: {why}")
    if args.trace and passes[0].tracer.missing:
        print("not traced (absent from the program): " + ", ".join(passes[0].tracer.missing))

    metrics = per_layer(passes[0]) if args.trace else end_to_end(passes, setup_s)
    shown = dict(metrics)
    if args.workload == "classify7" and not args.trace:
        shown.update(classify_rates(passes))
    shown["fail_share"] = (failed / attempted, "share")
    print(f"{'metric':<28} {'value':>16}  unit   [{env['backend']} kernel]")
    for key, (value, unit) in shown.items():
        print(f"{key:<28} {value:>16.6g}  {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
