"""Semantics engines for the whole language family of the paper.

Deterministic engines:

* :mod:`repro.semantics.naive`, :mod:`repro.semantics.seminaive` —
  minimum-model evaluation of plain Datalog (§3.1);
* :mod:`repro.semantics.stratified` — stratified Datalog¬ (§3.2);
* :mod:`repro.semantics.wellfounded` — the well-founded 3-valued
  semantics via the alternating fixpoint (§3.3);
* :mod:`repro.semantics.stable` — stable models (context of §3.3);
* :mod:`repro.semantics.inflationary` — forward-chaining inflationary
  Datalog¬ (§4.1);
* :mod:`repro.semantics.noninflationary` — Datalog¬¬ with deletion
  (§4.2);
* :mod:`repro.semantics.invention` — Datalog¬new (§4.3).

Nondeterministic engines:

* :mod:`repro.semantics.nondeterministic` — N-Datalog¬(¬), ⊥ and ∀
  extensions (§5.1–5.2);
* :mod:`repro.semantics.posscert` — possibility/certainty semantics
  (§5.3).

All engines share the rule matcher in :mod:`repro.semantics.base`:
one production path (the planner plus the compiled plans of
:mod:`repro.semantics.plan` and their generated kernels, whose
counting twins serve traced runs) and one reference matcher,
``reference_matches``, the test oracle.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "EngineStats", "EvaluationResult", "StageStats", "StageTrace",
        "StatsRecorder", "iter_matches", "instantiate_head",
        "immediate_consequences", "reference_matches",
    ),
    ".plan": ("PlanCache", "RulePlan", "plan_for"),
    ".naive": ("evaluate_datalog_naive",),
    ".seminaive": ("evaluate_datalog_seminaive",),
    ".stratified": ("evaluate_stratified",),
    ".wellfounded": ("evaluate_wellfounded", "WellFoundedModel"),
    ".stable": ("stable_models", "is_stable_model"),
    ".inflationary": ("evaluate_inflationary",),
    ".noninflationary": ("evaluate_noninflationary", "ConflictPolicy"),
    ".invention": ("evaluate_with_invention",),
    ".nondeterministic": (
        "NondeterministicRun", "run_nondeterministic", "enumerate_effects",
    ),
    ".posscert": ("possibility", "certainty", "deterministic_effect"),
    ".choice": ("evaluate_with_choice", "ChoiceResult"),
    ".topdown": ("query_topdown", "TopDownResult"),
    ".maintenance": ("MaterializedView", "UpdateReport"),
    ".counting": ("CountingView",),
    ".differential": (
        "DifferentialEngine", "DiffBatch", "ApplyResult", "RelationDiff",
        "Subscription",
    ),
    ".provenance": (
        "evaluate_with_provenance", "explain", "render_tree",
        "ProvenanceResult", "DerivationTree",
    ),
})
