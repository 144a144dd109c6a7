"""The per-report fingerprint that perfbench compares.

perfbench/workloads.py loads fingerprint from this file: it checks each
scanned class against its pinned reference (perfbench/reference.json) and
the two kernel backends against each other with it. The backend timing
this script used to run is gone; perfbench/run.py measures the package end
to end, and the parity tests in tests/test_kernels.py hold the backends
equal.
"""


def fingerprint(report):
    """Outcome, witness, nodes, words tested and labelings tried."""
    return (
        report.outcome,
        None if report.witness is None else str(report.witness),
        report.stats.nodes,
        report.stats.words_tested,
        report.stats.labelings_tried,
    )
