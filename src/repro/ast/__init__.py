"""Datalog abstract syntax: literals, rules, programs, dialects, analysis."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rules": (
        "Lit", "EqLit", "BottomLit", "Rule", "HeadLiteral", "BodyLiteral",
    ),
    ".program": ("Program", "Dialect"),
    ".analysis": (
        "precedence_graph", "stratify", "is_stratifiable", "is_semipositive",
        "validate_program", "infer_dialect",
    ),
})
