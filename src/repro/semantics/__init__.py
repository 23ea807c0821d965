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
:mod:`repro.semantics.plan` and their generated kernels) and one
reference matcher, ``reference_matches``, the test oracle that fully
traced runs call explicitly.
"""

from repro.semantics.base import (
    EngineStats,
    EvaluationResult,
    StageStats,
    StageTrace,
    StatsRecorder,
    iter_matches,
    instantiate_head,
    immediate_consequences,
    reference_matches,
)
from repro.semantics.plan import PlanCache, RulePlan, plan_for
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded, WellFoundedModel
from repro.semantics.stable import stable_models, is_stable_model
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.noninflationary import evaluate_noninflationary, ConflictPolicy
from repro.semantics.invention import evaluate_with_invention
from repro.semantics.nondeterministic import (
    NondeterministicRun,
    run_nondeterministic,
    enumerate_effects,
)
from repro.semantics.posscert import possibility, certainty, deterministic_effect
from repro.semantics.choice import evaluate_with_choice, ChoiceResult
from repro.semantics.topdown import query_topdown, TopDownResult
from repro.semantics.maintenance import MaterializedView, UpdateReport
from repro.semantics.counting import CountingView
from repro.semantics.differential import (
    ApplyResult,
    DiffBatch,
    DifferentialEngine,
    RelationDiff,
    Subscription,
)
from repro.semantics.provenance import (
    evaluate_with_provenance,
    explain,
    render_tree,
    ProvenanceResult,
    DerivationTree,
)

__all__ = [
    "EngineStats",
    "EvaluationResult",
    "StageStats",
    "StageTrace",
    "StatsRecorder",
    "iter_matches",
    "instantiate_head",
    "immediate_consequences",
    "reference_matches",
    "PlanCache",
    "RulePlan",
    "plan_for",
    "evaluate_datalog_naive",
    "evaluate_datalog_seminaive",
    "evaluate_stratified",
    "evaluate_wellfounded",
    "WellFoundedModel",
    "stable_models",
    "is_stable_model",
    "evaluate_inflationary",
    "evaluate_noninflationary",
    "ConflictPolicy",
    "evaluate_with_invention",
    "NondeterministicRun",
    "run_nondeterministic",
    "enumerate_effects",
    "possibility",
    "certainty",
    "deterministic_effect",
    "evaluate_with_choice",
    "ChoiceResult",
    "query_topdown",
    "TopDownResult",
    "MaterializedView",
    "UpdateReport",
    "CountingView",
    "DifferentialEngine",
    "DiffBatch",
    "ApplyResult",
    "RelationDiff",
    "Subscription",
    "evaluate_with_provenance",
    "explain",
    "render_tree",
    "ProvenanceResult",
    "DerivationTree",
]
