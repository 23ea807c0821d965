"""Classical query languages used as baselines: while, fixpoint, FO+IFP/PFP."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".while_lang": (
        "Assign", "Comprehension", "WhileChange", "WhileFormula",
        "WhileProgram", "evaluate_while", "is_fixpoint_program",
    ),
    ".fixpoint_logic": (
        "Definition", "FixpointQuery", "evaluate_fixpoint_query",
    ),
})
