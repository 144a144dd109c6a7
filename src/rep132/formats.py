"""Text and JSON formats shared by the CLI.

Graph file:            Tree file:
    # comment              n 8
    n 5                    root 1
    1 2                    1 2      <- parent child; line order fixes the
    2 3                    2 3         left-to-right child order

Edge lines require u < v and no duplicates. DOT output lists every vertex
(so isolated vertices survive a round trip) and carries the witness word in
a comment. Reports carry no timing at all, so serial and parallel runs
of the same search are byte-identical. The writers name no graph family.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .constructions import RootedTree
from .graphs import LabeledGraph
from .search import BUDGET_EXCEEDED, NOT_REPRESENTABLE, REPRESENTABLE, SearchReport
from .words import Word, is_k_uniform


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_graph_text(text: str) -> LabeledGraph:
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("n "):
        raise ValueError("graph file must start with a header line 'n <count>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"bad header {lines[0]!r}") from None
    edges: list[tuple[int, int]] = []
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"edge line {line!r} must satisfy u < v")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    return LabeledGraph(n, edges)


def emit_graph_text(g: LabeledGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


def parse_tree_text(text: str) -> RootedTree:
    lines = _content_lines(text)
    if len(lines) < 2 or not lines[0].startswith("n ") or not lines[1].startswith("root "):
        raise ValueError("tree file needs 'n <count>' then 'root <label>' header lines")
    try:
        n = int(lines[0].split()[1])
        root = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise ValueError("bad tree header") from None
    edges = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad parent-child line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return RootedTree(n, root, edges)


def emit_tree_text(t: RootedTree) -> str:
    lines = [f"n {t.n}", f"root {t.root}"]
    for p in t.preorder():
        lines.extend(f"{p} {c}" for c in t.children(p))
    return "\n".join(lines) + "\n"


def emit_dot(g: LabeledGraph, witness: Optional[Word] = None, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    if witness is not None:
        lines.append(f"  // witness: {witness}")
    for v in g.vertices():
        lines.append(f"  {v};")
    for u, v in g.edge_list():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_EDGE = re.compile(r"^\s*(\d+)\s*--\s*(\d+)\s*;\s*$")
_DOT_NODE = re.compile(r"^\s*(\d+)\s*;\s*$")


def parse_dot(text: str) -> LabeledGraph:
    """Parse the subset of DOT that emit_dot writes."""
    vertices: set[int] = set()
    edges = []
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            u, v = int(m.group(1)), int(m.group(2))
            vertices.update((u, v))
            edges.append((u, v))
            continue
        m = _DOT_NODE.match(line)
        if m:
            vertices.add(int(m.group(1)))
    n = max(vertices, default=0)
    return LabeledGraph(n, edges)


# ---------------------------------------------------------------------------
# JSON


def graph_to_json(g: LabeledGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edge_list()]}


def graph_from_json(obj: dict) -> LabeledGraph:
    return LabeledGraph(obj["n"], [tuple(e) for e in obj["edges"]])


def report_to_json(report: SearchReport) -> dict:
    """Schema: {graph, outcome, witness?, labeling?, witnesses?, stats,
    budget_exhausted, complete_decision}.

    complete_decision is SearchReport.is_complete_decision: true only for a
    not-representable outcome that covers every labeling at max_copies >= 2,
    of a graph on at most search.COPY_BOUND_CHECKED_N vertices.
    A report holds no timing: it must not depend on how the search was
    scheduled.
    """
    out: dict = {
        "graph": graph_to_json(report.graph),
        "outcome": report.outcome,
    }
    if report.witness is not None:
        out["witness"] = str(report.witness)
        out["labeling"] = list(report.labeling)
    if report.all_witnesses is not None:
        out["witnesses"] = [
            {"labeling": list(sig), "word": str(w)} for sig, w in report.all_witnesses
        ]
    out["stats"] = {
        "nodes": report.stats.nodes,
        "words_tested": report.stats.words_tested,
        "labelings_tried": report.stats.labelings_tried,
    }
    out["budget_exhausted"] = report.budget_exhausted
    out["complete_decision"] = report.is_complete_decision
    return out


def catalog_entry_to_json(g: LabeledGraph, report: SearchReport) -> dict:
    entry: dict = {"graph": graph_to_json(g), "outcome": report.outcome}
    if report.witness is not None:
        word = report.witness
        entry["labeling"] = list(report.labeling)
        entry["witness"] = str(word)
        entry["word_length"] = len(word)
        entry["two_uniform"] = is_k_uniform(word, 2)
    return entry


def catalog_to_json(n: int, results: list[tuple[LabeledGraph, SearchReport]]) -> dict:
    """Schema: {order, summary, entries}, one entry per class. The summary holds
    the class count and one count per outcome; a caller may append its own."""
    outcomes = [r.outcome for _, r in results]
    return {
        "order": n,
        "summary": {
            "classes": len(results),
            "representable": outcomes.count(REPRESENTABLE),
            "not_representable": outcomes.count(NOT_REPRESENTABLE),
            "budget_exceeded": outcomes.count(BUDGET_EXCEEDED),
        },
        "entries": [catalog_entry_to_json(g, r) for g, r in results],
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
