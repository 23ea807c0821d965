"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.relational.instance import Database
from repro.semantics import base, choice, invention, nondeterministic, planner
from repro.semantics.base import instantiate_head, reference_matches
from repro.workloads.graphs import chain, cycle, lollipop, random_gnp


def _reference_consequences(program, db, adom, delta=None, stats=None,
                            rule_ids=None, count_call=False, tracer=None,
                            add_only=False):
    """Γ_P rule by rule through ``reference_matches``: the planner's
    contract (delta-aware, scoped to ``rule_ids``, heads by relation),
    none of its code.  It returns every head, as an ``add_only=False``
    pass does."""
    if stats is not None and count_call:
        stats.consequence_calls += 1
    positive, negative, firings = {}, {}, 0
    for i in range(len(program.rules)) if rule_ids is None else rule_ids:
        rule = program.rules[i]
        for valuation in reference_matches(rule, db, adom, delta):
            firings += 1
            for relation, t, is_positive in instantiate_head(rule, valuation):
                heads = positive if is_positive else negative
                heads.setdefault(relation, set()).add(t)
    return positive, negative, firings


@pytest.fixture
def reference():
    """The reference oracle: inside ``with reference():`` every engine
    computes its matches through ``reference_matches`` — the planner's
    passes and the seeded engines' ``iter_matches`` alike — and its
    stats say ``matcher: interpreted``.  Engine loops, schedules and
    stages stay the engines' own."""

    @contextmanager
    def oracle():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "consequences", _reference_consequences)
            for module in (choice, invention, nondeterministic):
                patch.setattr(
                    module, "iter_matches",
                    lambda rule, db, adom, delta=None, span=None:
                    reference_matches(rule, db, adom, delta),
                )
            patch.setattr(base, "active_matcher", lambda: "interpreted")
            yield

    return oracle


@pytest.fixture
def small_graph() -> Database:
    """A 4-node graph with a reachable and an unreachable component."""
    return Database({"G": [("a", "b"), ("b", "c"), ("d", "d")]})


@pytest.fixture
def chain_graph() -> Database:
    return Database({"G": chain(5)})


@pytest.fixture
def cycle_graph() -> Database:
    return Database({"G": cycle(4)})


@pytest.fixture
def lollipop_graph() -> Database:
    return Database({"G": lollipop(3, 2)})


@pytest.fixture(params=[0, 1, 2])
def seeded_gnp(request) -> list[tuple[str, str]]:
    return random_gnp(7, 0.25, seed=request.param)
