"""Command-line interface.

Exit codes: 0 success (and: graph representable / circle witness found),
2 usage or parse errors, 3 not representable as a complete decision / not a
circle graph, 4 node budget exceeded before a decision, 5 not representable
under a bounded search only (search --fixed or --max-copies 1, or a graph
past order 6, where the copy bound is unchecked), which does not settle the
graph.

scan --workers defaults to 1, which decides every class in this process. A
larger value starts child processes only for a scan whose first round spans
more than one kernel batch, such as order 7; order 6 and below run in this
process whatever it says (see search.scan_order).
REP132_BACKEND picks the kernel (see rep132.kernels); an unknown value, or
c without the compiled extension, exits 2 before any command runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import formats, kernels
from .circle import circle_witness
from .constructions import (
    CASE_TAGS,
    kn_count,
    kn_enumerate,
    path_representant,
    cycle_representant,
    preorder_label,
    tree_representant,
)
from .graphs import LabeledGraph, canonical_form, wheel
from .represent import graph_from_word, represents
from .search import (
    BUDGET_EXCEEDED,
    NOT_REPRESENTABLE,
    REPRESENTABLE,
    SearchConfig,
    scan_order,
    search_all_labelings,
    search_fixed,
)
from .words import BUILTIN_PATTERNS, Word, contains_pattern, occurrences, reduce_word

_EXIT_BY_OUTCOME = {REPRESENTABLE: 0, NOT_REPRESENTABLE: 3, BUDGET_EXCEEDED: 4}
EXIT_BOUNDED_NEGATIVE = 5


def _edges_str(g: LabeledGraph) -> str:
    if not g.edges:
        return "(none)"
    return " ".join(f"{u}-{v}" for u, v in g.edge_list())


def _read_graph(path: str) -> LabeledGraph:
    return formats.parse_graph_text(Path(path).read_text())


def _print_report(report) -> None:
    print(f"graph: n={report.graph.n} edges {_edges_str(report.graph)}")
    print(f"outcome: {report.outcome}")
    print(f"complete decision: {'yes' if report.is_complete_decision else 'no'}")
    if report.witness is not None:
        print(f"witness: {report.witness}")
        if not report.fixed_labeling:
            print(f"labeling: {' '.join(map(str, report.labeling))}")
    if report.all_witnesses is not None:
        print(f"all witnesses ({len(report.all_witnesses)}):")
        for sig, word in report.all_witnesses:
            if report.fixed_labeling:
                print(f"  {word}")
            else:
                print(f"  {word}  labeling {' '.join(map(str, sig))}")
    s = report.stats
    print(
        f"stats: nodes={s.nodes} words_tested={s.words_tested} "
        f"labelings_tried={s.labelings_tried}"
    )
    if report.budget_exhausted:
        print("note: node budget exhausted; results may be incomplete")


def _cmd_check_word(args) -> int:
    word = Word(args.word)
    pattern = BUILTIN_PATTERNS[args.pattern]
    print(f"word: {word}")
    print(f"length: {len(word)}")
    print(f"reduced: {reduce_word(word)}")
    alpha = sorted(word.alphabet())
    print(f"alphabet: {{{', '.join(map(str, alpha))}}}")
    print("occurrences: " + " ".join(f"{x}:{occurrences(word, x)}" for x in alpha))
    hit = contains_pattern(word, pattern)
    if hit is None:
        print(f"pattern {pattern}: avoided")
    else:
        letters = ",".join(str(word[i]) for i in hit)
        positions = ",".join(str(i + 1) for i in hit)
        print(f"pattern {pattern}: contained — letters {letters} at positions {positions}")
    alpha_set = word.alphabet()
    if alpha_set == frozenset(range(1, len(alpha) + 1)):
        g = graph_from_word(word)
        print(f"graph: n={g.n} edges {_edges_str(g)}")
    else:
        g = graph_from_word(reduce_word(word))
        print(f"graph (of reduced word; alphabet is not 1..n): n={g.n} edges {_edges_str(g)}")
    if args.graph:
        target = _read_graph(args.graph)
        check = represents(word, target)
        if check.verdict:
            print(f"represents {args.graph}: yes")
        else:
            v = check.first_violation
            where = f" at pair {{{v.pair[0]},{v.pair[1]}}}" if v.pair else ""
            print(f"represents {args.graph}: no ({v.reason}{where})")
    return 0


def _printable(words: int, longest: int) -> None:
    """Refuse an output past 10**6 letters, counted as its number of words
    times its longest word, before it is built: past that, represent would
    hold every word in memory and print for minutes, or run out of memory."""
    if words * longest > 10**6:
        raise ValueError("represent prints at most 10**6 letters (words times the longest "
                         f"word); this needs at least {words * longest}")


def _cmd_represent(args) -> int:
    if args.family == "tree":
        tree = formats.parse_tree_text(Path(args.file).read_text())
        if tree.preorder() != tuple(range(1, tree.n + 1)):
            relabeled = preorder_label(tree)
            mapping = {old: new for new, old in enumerate(tree.preorder(), start=1)}
            print("tree is not pre-order labeled; relabeled as:")
            for old in sorted(mapping):
                print(f"  {old} -> {mapping[old]}")
            tree = relabeled
        print(tree_representant(tree))
        return 0
    if args.family == "path":
        _printable(1, 2 * args.n - 1)
        print(path_representant(args.n))
        return 0
    if args.family == "cycle":
        _printable(1, 2 * args.n - 2)
        print(cycle_representant(args.n))
        return 0
    # complete
    n = args.n
    if n < 1:
        raise ValueError("n must be >= 1")
    if not args.enumerate:
        if args.length_bound is not None:
            raise ValueError("--length-bound needs --enumerate")
        _printable(1, n)
        print(Word(range(1, n + 1)))
        return 0
    bound = args.length_bound
    if n <= 2 and bound is not None:  # B or 2 (B - 1) words of up to B letters
        _printable(bound if n == 1 else 2 * (bound - 1), bound)
    elif n > 2:  # kn_count(n) >= n words of up to n + 3 letters
        _printable(n, n + 3)
        _printable(kn_count(n), n + 3)
    rep = kn_enumerate(n, length_bound=bound)
    if rep.by_case:
        for tag in CASE_TAGS:
            words = rep.by_case[tag]
            print(f"case {tag} ({len(words)} word{'s' if len(words) != 1 else ''}):")
            for w in words:
                print(f"  {w}")
        print(f"total: {rep.total} (formula: {kn_count(n)})")
    else:
        for w in rep.words:
            print(w)
        print(f"total: {rep.total} (length bound {args.length_bound})")
    return 0


def _cmd_search(args) -> int:
    g = _read_graph(args.graphfile)
    cfg = SearchConfig(
        max_copies=args.max_copies,
        find_all=args.all,
        node_budget=args.node_budget,
    )
    if args.fixed:
        report = search_fixed(g, cfg)
    else:
        report = search_all_labelings(g, cfg)
    _print_report(report)
    if args.json:
        Path(args.json).write_text(formats.dumps(formats.report_to_json(report)))
    if report.outcome == NOT_REPRESENTABLE and not report.is_complete_decision:
        return EXIT_BOUNDED_NEGATIVE
    return _EXIT_BY_OUTCOME[report.outcome]


def _cmd_scan(args) -> int:
    n = args.order
    results = scan_order(n, SearchConfig(node_budget=args.node_budget),
                         workers=args.workers)
    for i, (g, report) in enumerate(results, start=1):
        line = f"class {i}/{len(results)}: edges {_edges_str(g)} -> {report.outcome}"
        if report.witness is not None:
            line += f" (witness {report.witness})"
        print(line)
    catalog = formats.catalog_to_json(n, results)
    summary = catalog["summary"]
    print(
        f"summary: {summary['classes']} classes, "
        f"{summary['representable']} representable, "
        f"{summary['not_representable']} not representable, "
        f"{summary['budget_exceeded']} budget-exceeded"
    )
    if n == 6:
        # the source paper's open question on the wheel W5, answered in the
        # text and appended to the JSON summary after the generic counts
        w5 = canonical_form(wheel(5))
        non_rep = [g for g, r in results if r.outcome == NOT_REPRESENTABLE]
        summary["wheel5_found_non_representable"] = w5 in non_rep
        summary["wheel5_only_non_representable"] = non_rep == [w5]
        if summary["wheel5_only_non_representable"]:
            print("wheel(5) is the only non-representable class found")
        elif summary["wheel5_found_non_representable"]:
            print("wheel(5) is non-representable but not the only such class found")
        else:
            print("warning: wheel(5) was not among the non-representable classes")
    if args.json:
        Path(args.json).write_text(formats.dumps(catalog))
    if args.dot_dir:
        out = Path(args.dot_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, (g, report) in enumerate(results, start=1):
            dot = formats.emit_dot(g, witness=report.witness, name=f"class_{i}")
            (out / f"class-{i:03d}.dot").write_text(dot)
    return 0


def _cmd_circle_witness(args) -> int:
    g = _read_graph(args.graphfile)
    diagram = circle_witness(g)
    if diagram is None:
        print("not a circle graph (no 2-uniform representant exists)")
        return 3
    print(f"witness: {diagram.word()}")
    print("endpoints: " + " ".join(map(str, diagram.endpoints)))
    if args.dot:
        Path(args.dot).write_text(formats.emit_dot(g, witness=diagram.word()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rep132",
        description="132-avoiding word representation of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-word", help="analyze a word and the graph it represents")
    p.add_argument("word")
    p.add_argument("--pattern", choices=sorted(BUILTIN_PATTERNS), default="132")
    p.add_argument("--graph", metavar="FILE", help="also verify against this graph file")
    p.set_defaults(func=_cmd_check_word)

    p = sub.add_parser(
        "represent", help="constructive representants",
        description="Print a constructive representant, or with complete --enumerate "
                    "every one. The output is refused (exit 2) past 10**6 letters, "
                    "counted as its number of words times its longest word: path and "
                    "cycle take n up to 500,000, complete n up to 10**6, complete "
                    "--enumerate n up to 10, and n <= 2 a --length-bound up to 1,000 "
                    "(n = 1) or 707 (n = 2).")
    fam = p.add_subparsers(dest="family", required=True)
    t = fam.add_parser("tree", help="word for a rooted tree file")
    t.add_argument("file")
    for name in ("path", "cycle"):
        f = fam.add_parser(name, help=f"word for the {name} on n vertices")
        f.add_argument("n", type=int)
    c = fam.add_parser("complete", help="word(s) for the complete graph")
    c.add_argument("n", type=int)
    c.add_argument("--enumerate", action="store_true", help="list every representant")
    c.add_argument("--length-bound", type=int, default=None, metavar="B",
                   help="truncation length for the infinite families (n <= 2)")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("search", help="decide 132-representability of a graph file")
    p.add_argument("graphfile")
    p.add_argument("--fixed", action="store_true", help="keep the file's labeling")
    p.add_argument("--all", action="store_true", help="enumerate every witness")
    p.add_argument("--max-copies", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scan", help="decide every isolate-free class of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", metavar="OUT")
    p.add_argument("--dot-dir", metavar="DIR")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("circle-witness", help="2-uniform representant / chord diagram")
    p.add_argument("graphfile")
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=_cmd_circle_witness)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # choose the kernel before any command, so that a bad REP132_BACKEND
        # is a usage error for every command alike
        kernels.backend_name()
    except (ImportError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        # every command's errors in its input or files, with one error line
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
