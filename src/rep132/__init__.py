"""132-avoiding word representation of graphs.

A word w over {1..n} represents the graph on vertices 1..n whose edges are
exactly the pairs of letters that alternate in w; a 132-representant is
such a word avoiding the pattern 132. The package provides the word/graph
semantics, constructive representants (trees, paths, cycles, complete
graphs), a complete brute-force decision search over labelings, and
circle-graph witnesses via chord diagrams.

Importing the package loads none of its modules: each public name, and
each submodule such as rep132.search, is imported on first access (PEP
562), so a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the module that defines it, in __all__'s order.
_HOME = {
    name: module
    for module, names in (
        ("words", (
            "Word", "Pattern", "P132", "P123", "P21",
            "reduce_word", "occurrences", "alternates", "is_k_uniform",
            "contains_pattern", "has_132", "catalan", "format_word",
        )),
        ("graphs", (
            "LabeledGraph", "Labeling", "degree",
            "complete", "cycle", "path", "wheel", "prism", "star",
            "relabel", "identity_labeling", "inverse_labeling",
            "canonical_form", "automorphisms", "enumerate_graphs", "components",
        )),
        ("represent", (
            "RepresentationCheck", "Violation",
            "graph_from_word", "represents", "is_132_representant",
            "combine_components", "add_isolated", "remove_vertex_word",
        )),
        ("constructions", (
            "RootedTree", "preorder_label", "tree_representant",
            "path_representant", "cycle_representant",
            "av132_permutations", "kn_count", "kn_enumerate", "KnRepertoire",
        )),
        ("search", (
            "SearchConfig", "SearchStats", "SearchReport",
            "search_fixed", "search_all_labelings", "scan_order",
            "REPRESENTABLE", "NOT_REPRESENTABLE", "BUDGET_EXCEEDED",
        )),
        ("circle", ("ChordDiagram", "chords_from_word", "intersection_graph", "circle_witness")),
        ("kernels", ("backend_name",)),
    )
    for name in names
}

__all__ = list(_HOME)

_SUBMODULES = frozenset(
    {"words", "graphs", "represent", "constructions", "search", "circle",
     "kernels", "formats", "cli"}
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
