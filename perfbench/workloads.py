"""The passes each workload times, and the checks on what they produce.

A pass returns a Pass: the timed phases, the operations attempted and
failed, and (for a traced pass) the tracer holding its spans. Every check
runs after the timed phases, on what the program returned or wrote, against
the references pinned in reference.json.

An operation is one class decided by the scan or one canonical form
computed. A wrong verdict, an unverifiable witness, a node count that
differs from the pin, a wrong form or an exception fails it; a pass never
aborts on a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import multiprocessing
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from rep132 import cli, formats, graphs, kernels, search
from rep132.graphs import LabeledGraph
from rep132.represent import is_132_representant
from rep132.words import Word

from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

SCAN_ORDER = 6
CLASSIFY_ORDER = 7


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def edges_key(g: LabeledGraph) -> str:
    """Edge list written as in the pinned references: '12 13 25'."""
    return " ".join(f"{u}{v}" for u, v in g.edge_list())


def _load_compare_backends():
    spec = importlib.util.spec_from_file_location(
        "compare_backends", HERE.parent / "benchmarks" / "compare_backends.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMPARE_BACKENDS = _load_compare_backends()


def fingerprint(report) -> list:
    """The per-report fingerprint of benchmarks/compare_backends.py, as a list.

    Outcome, witness, nodes, words tested and labelings tried; the pinned
    per-class references and the backend parity check both use it.
    """
    return list(_COMPARE_BACKENDS.fingerprint(report))


@dataclass
class Pass:
    classes: int  # classes through the main phase
    wall_s: float  # wall time of the main phase
    cpu_s: float  # parent plus worker CPU of the main phase
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    enum_per_s: float = 0.0
    canon_per_s: float = 0.0
    tracer: Optional[Tracer] = None
    worker_cpu_s: float = 0.0  # CPU of children reaped during the main phase
    labelings_tried: int = 0
    report_bytes: int = 0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def timed(fn):
    """(result, wall seconds, CPU seconds) of fn()."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, cpu_seconds() - c0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# scan6 and scan6-par2


def install_scan_tracer(tracer: Tracer) -> None:
    """Wrap every public call on the scan path, as its caller looks it up."""
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "scan_order", "search.scan_order")
    tracer.wrap(cli, "canonical_form", "graphs.canonical_form")
    tracer.wrap(formats, "catalog_to_json", "formats.catalog_to_json")
    tracer.wrap(formats, "dumps", "formats.dumps")
    tracer.wrap_generator(search, "enumerate_graphs", "graphs.enumerate_graphs")
    tracer.wrap(search, "search_all_labelings", "search.search_all_labelings")
    tracer.wrap(search, "all_labelings", "search.all_labelings")
    tracer.wrap(search, "reduced_labelings", "search.reduced_labelings")
    tracer.wrap(search, "relabel", "graphs.relabel")
    tracer.wrap(search, "is_132_representant", "represent.is_132_representant")
    tracer.wrap_pool_class(search, "ProcessPoolExecutor")
    tracer.wrap_kernel(kernels)


def scan_pass(workers: int, workdir: Path, tracer: Optional[Tracer] = None) -> Pass:
    """`rep132 scan --order 6 --workers W --json OUT`, in-process, then checks."""
    ref = REFERENCE["scan6"]
    out = workdir / f"scan-{workers}.json"
    argv = ["scan", "--order", str(SCAN_ORDER), "--workers", str(workers), "--json", str(out)]
    captured: list = []
    scan_order = cli.scan_order

    def capture(*args, **kwargs):
        results = scan_order(*args, **kwargs)
        captured.append(results)
        return results

    def command():
        code = cli.main(argv)
        # the CLI process cannot exit before the pool workers it started end
        for child in multiprocessing.active_children():
            child.join()
        return code

    text = io.StringIO()
    cli.scan_order = capture
    if tracer is not None:
        install_scan_tracer(tracer)
    kids0 = children_cpu_seconds()
    error = None
    try:
        with contextlib.redirect_stdout(text):
            code, wall, cpu = timed(command)
    except Exception as e:  # a crash fails the pass's classes, not the run
        code, wall, cpu, error = None, 0.0, 0.0, e  # zero time reads as a zero rate
    finally:
        if tracer is not None:
            tracer.restore()
        cli.scan_order = scan_order
    p = Pass(classes=ref["classes"], wall_s=wall, cpu_s=cpu, tracer=tracer)
    p.worker_cpu_s = children_cpu_seconds() - kids0
    p.attempted = ref["classes"]
    if error is not None or code != 0 or len(captured) != 1:
        p.fail(ref["classes"], f"scan did not complete: exit {code}, error {error!r}")
        return p
    text_bytes = text.getvalue().encode()
    json_bytes = out.read_bytes()
    p.report_bytes = len(text_bytes) + len(json_bytes)
    p.labelings_tried = sum(r.stats.labelings_tried for _, r in captured[0])
    if _sha256(text_bytes) != ref["text_sha256"] or _sha256(json_bytes) != ref["json_sha256"]:
        # the serial report is pinned, so this is also the serial/parallel identity check
        p.fail(ref["classes"], "report bytes differ from the pinned serial report")
        return p
    check_scan(p, captured[0], json.loads(json_bytes))
    return p


def check_scan(p: Pass, results, catalog: dict) -> None:
    ref = REFERENCE["scan6"]
    pinned = ref["per_class"]
    entries = catalog.get("entries", [])
    if len(results) != len(pinned) or len(entries) != len(pinned):
        p.fail(p.attempted, f"{len(results)} classes returned, {len(entries)} written")
        return
    not_rep = set(ref["not_representable"])
    for (g, report), entry, (key, *finger) in zip(results, entries, pinned):
        try:
            ok = check_class(g, report, entry, key, finger, key in not_rep)
        except Exception as e:
            ok = f"check raised {e!r}"
        if ok is not True:
            p.fail(1, f"class {key}: {ok}")


def check_class(g, report, entry, key, finger, pinned_not_rep) -> object:
    """True, or why the class fails."""
    if edges_key(g) != key or edges_key(formats.graph_from_json(entry["graph"])) != key:
        return "class list differs"
    if report.outcome == search.BUDGET_EXCEEDED:
        return "budget exceeded"
    if fingerprint(report) != finger:
        return f"fingerprint {fingerprint(report)} != pinned {finger}"
    if pinned_not_rep:
        return entry["outcome"] == search.NOT_REPRESENTABLE or "should be not-representable"
    if entry["outcome"] != search.REPRESENTABLE:
        return "should be representable"
    witness = Word(entry["witness"])
    target = graphs.relabel(g, tuple(entry["labeling"]))
    return is_132_representant(witness, target) or f"witness {witness} does not verify"


# ---------------------------------------------------------------------------
# classify7


def classify_inputs(seed: int) -> list[tuple[int, ...]]:
    """One seeded random labeling per order-7 class."""
    rng = random.Random(seed)
    out = []
    for _ in range(REFERENCE["classify7"]["classes"]):
        sigma = list(range(1, CLASSIFY_ORDER + 1))
        rng.shuffle(sigma)
        out.append(tuple(sigma))
    return out


def classify_pass(taus: list, tracer: Optional[Tracer] = None) -> Pass:
    """Enumerate the order-7 classes, then canonicalize each class and one
    seeded relabeling of it; both phases are timed, the relabeling is not."""
    ref = REFERENCE["classify7"]
    if tracer is not None:
        tracer.wrap_generator(graphs, "enumerate_graphs", "graphs.enumerate_graphs")
        tracer.wrap(graphs, "canonical_form", "graphs.canonical_form")
    p = Pass(classes=ref["classes"], wall_s=0.0, cpu_s=0.0, tracer=tracer)
    p.attempted = 2 * ref["classes"]
    try:
        classes, enum_wall, enum_cpu = timed(
            lambda: list(graphs.enumerate_graphs(CLASSIFY_ORDER, isolate_free=True))
        )
        if len(classes) != len(taus):
            p.fail(p.attempted, f"{len(classes)} classes enumerated, expected {len(taus)}")
            return p
        inputs = classes + [graphs.relabel(c, t) for c, t in zip(classes, taus)]
        forms, canon_wall, canon_cpu = timed(
            lambda: [graphs.canonical_form(h) for h in inputs]
        )
    except Exception as e:  # a crash fails the pass's operations, not the run
        p.fail(p.attempted, f"classify raised {e!r}")
        return p
    finally:
        if tracer is not None:
            tracer.restore()
    p.wall_s = enum_wall + canon_wall
    p.cpu_s = enum_cpu + canon_cpu
    p.enum_per_s = len(classes) / enum_wall
    p.canon_per_s = len(inputs) / canon_wall
    bad_class = (
        len(set(classes)) != len(classes)
        or any(c.n != CLASSIFY_ORDER for c in classes)
        or any(graphs.degree(c, v) == 0 for c in classes for v in c.vertices())
    )
    if bad_class:
        p.fail(p.attempted, "enumeration has duplicates, a wrong order or isolated vertices")
        return p
    for i, form in enumerate(forms):
        c = classes[i % len(classes)]
        if form != c:
            p.fail(1, f"canonical form of input {i} is {edges_key(form)}, not {edges_key(c)}")
    return p


# ---------------------------------------------------------------------------
# backend parity


def kernel_parity() -> tuple[str, int, int]:
    """Scan order 6 once on each kernel backend and compare fingerprints.

    Returns (status, classes compared, classes that differ). Runs outside
    the timed passes; with one backend importable it is skipped.
    """
    try:
        other = kernels.load_backend("c")
    except ImportError:
        return "skipped: c unavailable", 0, 0
    runs = {}
    original = kernels.run_search
    try:
        for name, module in (("python", kernels.load_backend("python")), ("c", other)):
            kernels.run_search = module.run_search
            runs[name] = [fingerprint(r) for _, r in search.scan_order(SCAN_ORDER, workers=1)]
    finally:
        kernels.run_search = original
    py, c = runs["python"], runs["c"]
    bad = sum(a != b for a, b in zip(py, c)) + abs(len(py) - len(c))
    return ("ok" if bad == 0 else f"{bad} classes differ"), max(len(py), len(c)), bad
