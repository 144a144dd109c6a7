#!/usr/bin/env python3
"""Timing comparison between the compiled and pure-Python search kernels.

Both kernels implement the identical DFS, so every workload must return
identical results — this script asserts that (witness, node count, words
tested, labelings tried all equal) and then reports wall times.

Workloads:

  k5-all    every representant of K_5 under its own labeling (find_all)
  k7-first  first representant of K_7 (deep tree, early exit)
  wheel5    720-labeling exhaustion of the order-6 wheel (negative verdict)
  prism3    720-labeling exhaustion of the 3-prism (negative verdict)

Usage: python3 benchmarks/compare_backends.py [--repeat N] [--cases k5-all,...]
"""

import argparse
import sys
import time

from rep132 import kernels
from rep132.graphs import complete, prism, wheel
from rep132.search import SearchConfig, search_all_labelings, search_fixed

CASES = {
    "k5-all": lambda: search_fixed(complete(5), SearchConfig(find_all=True)),
    "k7-first": lambda: search_fixed(complete(7)),
    "wheel5": lambda: search_all_labelings(wheel(5)),
    "prism3": lambda: search_all_labelings(prism(3)),
}


def fingerprint(report):
    return (
        report.outcome,
        None if report.witness is None else str(report.witness),
        report.stats.nodes,
        report.stats.words_tested,
        report.stats.labelings_tried,
    )


def time_case(case, repeat):
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        report = CASES[case]()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        result = fingerprint(report)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per case; best time is reported")
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated case names")
    args = parser.parse_args(argv)

    cases = args.cases.split(",")
    unknown = [c for c in cases if c not in CASES]
    if unknown:
        parser.error(f"unknown cases: {', '.join(unknown)}")

    backends = {}
    for name in ("python", "c"):
        try:
            backends[name] = kernels.load_backend(name)
        except ImportError:
            print(f"backend {name!r} unavailable; skipping", file=sys.stderr)
    if len(backends) < 2:
        print("only one backend available; timing it alone", file=sys.stderr)

    # Every search decides through kernels.run_batch, and kernels.run_search
    # is a one-row run_batch, so swapping run_batch times each backend.
    original = kernels.run_batch
    times = {name: {} for name in backends}
    try:
        for case in cases:
            results = {}
            for name, module in backends.items():
                kernels.run_batch = module.run_batch
                times[name][case], results[name] = time_case(case, args.repeat)
            if len(set(results.values())) > 1:
                raise SystemExit(f"backends disagree on {case}: {results}")
    finally:
        kernels.run_batch = original

    width = max(len(c) for c in cases)
    header = f"{'case':<{width}}  " + "".join(f"{n:>12}" for n in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for case in cases:
        row = f"{case:<{width}}  "
        row += "".join(f"{times[n][case]:>11.4f}s" for n in backends)
        if len(backends) == 2:
            row += f"{times['python'][case] / times['c'][case]:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
