"""repro — "Datalog Unchained" (Vianu, PODS 2021), as a working library.

A from-scratch implementation of the whole family of Datalog-like
languages the paper surveys, under both the declarative and the
forward-chaining semantics:

* plain Datalog (naive / semi-naive minimum model),
* stratified Datalog¬ and the well-founded semantics (+ stable models),
* inflationary Datalog¬, Datalog¬¬ (deletion), Datalog¬new (invention),
* the nondeterministic N-Datalog¬(¬) family with ⊥ and ∀ extensions,
  and the possibility/certainty semantics,
* the classical baselines: while/fixpoint imperative programs and the
  fixpoint logics FO+IFP / FO+PFP (+ witness operator),
* executable versions of the paper's simulation techniques (delay,
  timestamps, the while → Datalog¬¬ phase clock).

Quickstart::

    from repro import Database, parse_program, evaluate_inflationary

    program = parse_program('''
        T(x, y) :- G(x, y).
        T(x, y) :- G(x, z), T(z, y).
    ''')
    db = Database({"G": [("a", "b"), ("b", "c")]})
    print(evaluate_inflationary(program, db).answer("T"))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": (
        "ReproError", "SchemaError", "ParseError", "ProgramError",
        "SafetyError", "StratificationError", "DialectError",
        "EvaluationError", "NonTerminationError", "StepBudgetExceeded",
        "ContradictionError", "UnsafeAnswerError",
    ),
    ".terms": ("Var", "Const"),
    ".relational": (
        "Database", "Relation", "RelationSchema", "DatabaseSchema",
    ),
    ".ast": ("Program", "Dialect", "Rule", "Lit", "EqLit", "BottomLit"),
    ".ast.analysis": (
        "stratify", "is_stratifiable", "is_semipositive", "validate_program",
        "infer_dialect",
    ),
    ".parser": ("parse_program", "parse_rule"),
    ".span": ("Span",),
    ".analysis": (
        "Diagnostic", "DialectReport", "LintReport", "Severity", "classify",
        "lint", "lint_source",
    ),
    ".semantics": (
        "EvaluationResult", "evaluate_datalog_naive",
        "evaluate_datalog_seminaive", "evaluate_stratified",
        "evaluate_wellfounded", "WellFoundedModel", "stable_models",
        "is_stable_model", "evaluate_inflationary", "evaluate_noninflationary",
        "ConflictPolicy", "evaluate_with_invention", "run_nondeterministic",
        "enumerate_effects", "possibility", "certainty",
        "deterministic_effect",
    ),
    ".semantics.choice": ("evaluate_with_choice",),
    ".statelog": (
        "StatelogProgram", "parse_statelog", "run_statelog",
        "run_async_statelog",
    ),
    ".active": ("Transaction", "run_triggers"),
    ".pipeline": (
        "Pipeline", "ProgramStage", "AggregateStage", "AlgebraStage",
        "run_pipeline",
    ),
    ".ontology": ("chase", "certain_answers", "ontology_answer"),
    ".treedata": ("tree_database", "is_monadic"),
    ".ordered": ("attach_order", "is_ordered"),
    ".languages": (
        "WhileProgram", "evaluate_while", "is_fixpoint_program",
        "FixpointQuery", "evaluate_fixpoint_query",
    ),
})
__all__.append("__version__")
