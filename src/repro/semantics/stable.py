"""Stable model semantics (the context of §3.3).

The paper situates the well-founded semantics in the lineage of stable
models [Gelfond–Lifschitz].  We implement the Gelfond–Lifschitz reduct
over the grounded program and enumerate stable models, using the
classical bracketing result to prune: every stable model contains the
well-founded true facts and is contained in the well-founded possible
facts, so only subsets of the *unknown* facts need to be explored.

This gives executable witnesses for the paper's Example 3.2: the win
program has multiple stable models exactly on the game positions whose
well-founded value is unknown (the draw cycle a → b → c → a).
"""

from __future__ import annotations

import itertools

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.errors import EvaluationError
from repro.ast.rules import Rule
from repro.relational.instance import Database
from repro.semantics.base import evaluation_adom, instantiate_head
from repro.semantics.wellfounded import evaluate_wellfounded

Fact = tuple[str, tuple]


def ground_program(
    program: Program, db: Database
) -> list[tuple[Fact, list[Fact], list[Fact]]]:
    """All ground instances of the program's rules over adom(P, I).

    Returns triples ``(head, positive_body, negative_body)`` of ground
    facts.  Positive body literals over edb relations that fail in the
    input are dropped eagerly (their rules can never fire); edb facts in
    positive bodies that hold are removed, keeping ground rules small.
    A fact the input gives for an idb relation is a bodiless ground
    rule: it holds outright, as in the well-founded model.
    """
    adom = evaluation_adom(program, db)
    edb = program.edb
    grounded: list[tuple[Fact, list[Fact], list[Fact]]] = [
        ((relation, t), [], [])
        for relation in program.idb
        for t in db.tuples(relation)
    ]
    for rule in program.rules:
        variables = sorted(rule.variables(), key=lambda v: v.name)
        for values in itertools.product(adom, repeat=len(variables)):
            valuation = dict(zip(variables, values))
            if not _equalities_hold(rule, valuation):
                continue
            positive: list[Fact] = []
            negative: list[Fact] = []
            feasible = True
            for lit in rule.positive_body():
                fact = (lit.relation, _ground_terms(lit, valuation))
                if lit.relation in edb:
                    if not db.has_fact(*fact):
                        feasible = False
                        break
                else:
                    positive.append(fact)
            if not feasible:
                continue
            for lit in rule.negative_body():
                fact = (lit.relation, _ground_terms(lit, valuation))
                if lit.relation in edb:
                    if db.has_fact(*fact):
                        feasible = False
                        break
                else:
                    negative.append(fact)
            if not feasible:
                continue
            heads = instantiate_head(rule, valuation)
            if len(heads) != 1 or not heads[0][2]:
                raise EvaluationError(
                    "stable models are defined here for single-positive-head rules"
                )
            relation, t, _ = heads[0]
            grounded.append(((relation, t), positive, negative))
    return grounded


def _ground_terms(lit, valuation) -> tuple:
    from repro.terms import apply_valuation

    return apply_valuation(lit.atom.terms, valuation)


def _equalities_hold(rule: Rule, valuation: dict) -> bool:
    from repro.terms import Const

    for eq in rule.equality_body():
        left = eq.left.value if isinstance(eq.left, Const) else valuation[eq.left]
        right = eq.right.value if isinstance(eq.right, Const) else valuation[eq.right]
        if (left == right) != eq.positive:
            return False
    return True


def _reduct_lfp(
    grounded: list[tuple[Fact, list[Fact], list[Fact]]],
    candidate: frozenset[Fact],
) -> frozenset[Fact]:
    """lfp of the Gelfond–Lifschitz reduct of the ground program w.r.t. M."""
    # Keep rules whose negative body avoids M; strip their negative parts.
    rules = [
        (head, positive)
        for head, positive, negative in grounded
        if not any(fact in candidate for fact in negative)
    ]
    derived: set[Fact] = set()
    changed = True
    while changed:
        changed = False
        for head, positive in rules:
            if head in derived:
                continue
            if all(fact in derived for fact in positive):
                derived.add(head)
                changed = True
    return frozenset(derived)


def is_stable_model(
    program: Program,
    db: Database,
    candidate: frozenset[Fact],
    grounded: list[tuple[Fact, list[Fact], list[Fact]]] | None = None,
) -> bool:
    """Is ``candidate`` (a set of idb facts) a stable model over ``db``?"""
    if grounded is None:
        grounded = ground_program(program, db)
    return _reduct_lfp(grounded, candidate) == candidate


def stable_models(
    program: Program,
    db: Database,
    validate: bool = True,
    max_unknowns: int = 20,
    tracer=None,
) -> list[frozenset[Fact]]:
    """All stable models (as sets of idb facts), bracketed by well-founded.

    Uses the classical result that every stable model M satisfies
    ``WF_true ⊆ M ⊆ WF_possible``; enumeration is over subsets of the
    unknown facts, so programs with more than ``max_unknowns`` unknowns
    are rejected rather than silently exploding.  Tracing covers the
    bracketing well-founded run — the subset enumeration over unknowns
    fires no rules through the consequence operator.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_NEG)
    wf = evaluate_wellfounded(program, db, validate=False, tracer=tracer)
    unknowns = sorted(wf.unknown_facts(), key=repr)
    if len(unknowns) > max_unknowns:
        raise EvaluationError(
            f"{len(unknowns)} unknown facts exceed max_unknowns={max_unknowns}"
        )
    grounded = ground_program(program, db)
    models: list[frozenset[Fact]] = []
    base = set(wf.true_facts)
    for mask in itertools.product((False, True), repeat=len(unknowns)):
        candidate = frozenset(
            base | {fact for fact, keep in zip(unknowns, mask) if keep}
        )
        if is_stable_model(program, db, candidate, grounded=grounded):
            models.append(candidate)
    return models


def wellfounded_true_in_all_stable(
    program: Program, db: Database
) -> bool:
    """Check the bracketing: WF-true facts lie in every stable model."""
    wf = evaluate_wellfounded(program, db, validate=False)
    for model in stable_models(program, db, validate=False):
        if not wf.true_facts <= model:
            return False
    return True
