"""Deterministic synthetic workload generators (graphs, games, relations)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graphs": (
        "chain", "cycle", "complete_graph", "random_gnp", "grid",
        "binary_tree", "layered_dag", "preferential_attachment", "lollipop",
        "graph_database",
    ),
    ".games": ("paper_game", "random_game", "game_database"),
    ".relations": ("random_unary", "random_binary"),
})
