"""First-order logic over relational instances (relational calculus)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".formula": (
        "Formula", "Atom", "Equals", "Not", "And", "Or", "Implies", "Exists",
        "Forall", "TRUE", "FALSE", "conjunction", "disjunction",
    ),
    ".evaluate": (
        "evaluate_formula", "evaluate_sentence", "free_variables",
        "formula_relations", "formula_constants",
    ),
    ".transform": (
        "to_nnf", "is_nnf", "rename_formula_variables", "substitute_constants",
    ),
})
