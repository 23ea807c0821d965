"""The filtered-ring workload: a cold-start trap the stats store springs.

One recursive component where the selective relation is *produced
inside the component itself*::

    Out(x, z)    :- Big(x, y), Mid(y, z), Filter(z, w).
    Filter(z, w) :- Out(x, z), Loop(z, w).
    Filter(z, w) :- Seed(z, w).

``Big`` and ``Mid`` are dense n×n bipartite layers (n² rows each);
``Filter`` ends up tiny (the tagged seed set, a handful of rows) — but
because ``Out`` and ``Filter`` are mutually recursive they share one
SCC, so SCC scheduling cannot warm ``Filter`` before the component's
first full pass plans.  A stats-cold planner sees ``Filter`` at live
size 0 and falls back to the static dataflow prior; ``Filter`` is
binary and recursive, so the symbolic bound is the assumed-domain
square — far *above* ``Big``'s live n² — and the planner orders the
join ``Big ⋈ Mid ⋈ Filter``: an O(n³) enumeration probing an empty
relation.  A stats-warmed planner knows ``Filter`` measured tiny on
the last run, runs it first, and the same pass costs O(1) (the
relation really is still empty — the scan exits immediately; the real
work arrives with the delta, which both runs plan identically).

This is the deliberate worst case for purely static priors and the
headline workload of ``benchmarks/test_feedback_ablation.py``: the
cold-start penalty is paid exactly once, in one stage, and no amount
of mid-run replanning can refund it — only remembering last run's
cardinalities can.
"""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.parser import parse_program
from repro.relational.instance import Database

#: Seed rows (= final ``Filter`` cardinality).  Tiny by design.
DEFAULT_SEEDS = 4

#: Tag value filling ``Filter``'s second column (what makes the
#: relation binary, which is what lifts its static prior to the
#: assumed-domain square).
_TAG = "ok"

FEEDBACK_RING_SOURCE = (
    "Out(x, z) :- Big(x, y), Mid(y, z), Filter(z, w).\n"
    "Filter(z, w) :- Out(x, z), Loop(z, w).\n"
    "Filter(z, w) :- Seed(z, w).\n"
)


def feedback_ring_program() -> Program:
    """The parsed filtered-ring program (size lives in the data)."""
    return parse_program(
        FEEDBACK_RING_SOURCE,
        dialect=Dialect.DATALOG,
        name="feedback-ring",
    )


def feedback_ring_database(n: int, seeds: int = DEFAULT_SEEDS) -> Database:
    """Dense n×n ``Big``/``Mid`` layers and a ``seeds``-row seed set.

    ``Loop`` equals the seed rows, so the ring closes without ever
    growing ``Filter`` past the seed set — the recursion is real (the
    SCC is recursive, the delta loop runs) but the fixpoint stays
    small and exactly predictable.
    """
    if n < 1:
        raise ValueError("need at least one node per layer")
    seeds = min(seeds, n)
    a = [f"a{i}" for i in range(n)]
    b = [f"b{j}" for j in range(n)]
    c = [f"c{k}" for k in range(n)]
    seed_rows = [(z, _TAG) for z in c[:seeds]]
    return Database(
        {
            "Big": [(x, y) for x in a for y in b],
            "Mid": [(y, z) for y in b for z in c],
            "Seed": seed_rows,
            "Loop": seed_rows,
        }
    )


def reference_feedback_ring(
    n: int, seeds: int = DEFAULT_SEEDS
) -> dict[str, frozenset[tuple]]:
    """Ground truth: ``Filter`` = the seeds, ``Out`` = A × seed values.

    Every ``a_i`` reaches every ``c_k`` through the dense layers, so
    ``Out`` pairs each of the n left nodes with each seeded ``c``
    value; rule 1's feedback (``Loop`` ⊆ seeds) derives nothing new.
    """
    seeds = min(seeds, n)
    seed_values = [f"c{k}" for k in range(seeds)]
    return {
        "Filter": frozenset((z, _TAG) for z in seed_values),
        "Out": frozenset(
            (f"a{i}", z) for i in range(n) for z in seed_values
        ),
    }
