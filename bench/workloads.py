"""The five benchmark workloads: seeded inputs, engines and oracles.

Every workload has a fixed *shape* (graph structure, program text) and
takes the run's ``--seed`` to relabel the constants and shuffle the fact
order, so two seeds give different inputs that cost the engine the same
work.  Seeding the structure itself would move the cost of the run by
more than the regression bounds allow: on ``random_gnp(400, 0.0075)``
the rule firings range over ±5% across seeds.

Each workload is built at one of two scales: ``"full"`` is what the
benchmark measures, ``"small"`` is the same shape scaled down for the
harness tests and the per-process warm-up.  Each scale's sizes are
:data:`SIZES`.  A full batch operation takes about 0.2–0.4 s, so a run
holds dozens of them and the median of their rescaled latencies is
steady on a shared host (see ``bench/README.md``).

Batch workloads (:class:`BatchCase`) evaluate a whole program cold per
operation.  ``tc_watch`` (:class:`StreamCase`) keeps one
:class:`~repro.semantics.differential.DifferentialEngine` and applies a
closed-loop stream of single-edge updates to it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.programs.component_chain import (
    component_chain_database,
    component_chain_source,
    reference_component_chain,
)
from repro.programs.ctc_inflationary import CTC_INFLATIONARY_SOURCE
from repro.programs.tc import (
    TC_NONLINEAR_SOURCE,
    reference_complement_tc,
    reference_transitive_closure,
)
from repro.programs.win import WIN_SOURCE
from repro.semantics.differential import DiffBatch
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.games import random_game, solve_game_reference
from repro.workloads.graphs import chain, random_gnp

#: The structure seed of every workload; ``--seed`` only relabels.
SHAPE_SEED = 1

#: Workload sizes per scale.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "tc_closure": {"nodes": 150, "p": 0.02},
        "win_game": {"chain": 400, "states": 80, "p": 0.05},
        "gated_components": {"components": 30, "length": 16},
        "ctc_inflationary": {"chain": 22},
        "tc_watch": {"dags": 40, "nodes": 50, "degree": 2, "span": 8,
                     "updates": 1500},
    },
    "small": {
        "tc_closure": {"nodes": 40, "p": 0.06},
        "win_game": {"chain": 30, "states": 20, "p": 0.1},
        "gated_components": {"components": 4, "length": 6},
        "ctc_inflationary": {"chain": 8},
        "tc_watch": {"dags": 3, "nodes": 12, "degree": 2, "span": 4,
                     "updates": 60},
    },
}

WATCH_SOURCE = """
T(x, y) :- G(x, y).
T(x, y) :- G(x, z), T(z, y).
H(x, z) :- G(x, y), G(y, z).
"""


@dataclass(frozen=True)
class BatchCase:
    """One program evaluated cold per operation.

    ``read`` pulls the answer relations out of the engine's result;
    ``reference`` computes the same answer independently of the engines.
    """

    source: str
    facts: dict[str, list[tuple]]
    engine: Callable
    read: Callable[[Any], Any]
    reference: Callable[[], Any]


@dataclass(frozen=True)
class StreamCase:
    """A maintained view over ``G`` and the seeded update stream.

    ``updates()`` yields single-edge :class:`DiffBatch`\\ es without
    end, of which a run applies the first ``length``;
    ``reference(edges)`` recomputes every view relation from the base
    edge set.
    """

    source: str
    facts: dict[str, list[tuple]]
    updates: Callable[[], Iterator[DiffBatch]]
    length: int
    reference: Callable[[set], dict[str, frozenset]]
    views: tuple[str, ...]


def _relabeling(rng: random.Random, names) -> dict[str, str]:
    """A seeded permutation of ``names`` onto themselves."""
    names = sorted(names)
    return dict(zip(names, rng.sample(names, len(names))))


def _relabel_edges(edges, mapping, rng: random.Random) -> list[tuple]:
    out = [(mapping[u], mapping[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def tc_closure(seed: int, scale: str = "full") -> BatchCase:
    """Nonlinear TC under semi-naive evaluation on a sparse random graph."""
    size = SIZES[scale]["tc_closure"]
    edges = random_gnp(size["nodes"], size["p"], SHAPE_SEED)
    rng = random.Random(seed)
    edges = _relabel_edges(
        edges, _relabeling(rng, {n for e in edges for n in e}), rng
    )
    return BatchCase(
        source=TC_NONLINEAR_SOURCE,
        facts={"G": edges},
        engine=evaluate_datalog_seminaive,
        read=lambda result: result.answer("T"),
        reference=lambda: reference_transitive_closure(edges),
    )


def win_game(seed: int, scale: str = "full") -> BatchCase:
    """Example 3.2's ``win`` under the well-founded semantics."""
    size = SIZES[scale]["win_game"]
    moves = chain(size["chain"]) + random_game(
        size["states"], size["p"], SHAPE_SEED
    )
    rng = random.Random(seed)
    moves = _relabel_edges(
        moves, _relabeling(rng, {n for m in moves for n in m}), rng
    )

    def reference():
        winning, _losing, drawn = solve_game_reference(moves)
        return (
            frozenset((s,) for s in winning),
            frozenset((s,) for s in drawn),
        )

    return BatchCase(
        source=WIN_SOURCE,
        facts={"moves": moves},
        engine=evaluate_wellfounded,
        read=lambda model: (model.answer("win"), model.unknowns("win")),
        reference=reference,
    )


def gated_components(seed: int, scale: str = "full") -> BatchCase:
    """K gated linear-TC components: 2K rules in K singleton SCCs."""
    size = SIZES[scale]["gated_components"]
    k, length = size["components"], size["length"]
    base = component_chain_database(k, length)
    rng = random.Random(seed)
    mapping = _relabeling(
        rng, {v for fact in base.facts() for v in fact[1]}
    )
    # The gates name chain endpoints as quoted constants.
    source = re.sub(
        r"'([^']*)'",
        lambda m: f"'{mapping[m.group(1)]}'",
        component_chain_source(k, length),
    )
    facts = {
        f"E{i}": _relabel_edges(sorted(base.tuples(f"E{i}")), mapping, rng)
        for i in range(k)
    }
    answers = [f"T{i}" for i in range(k)]

    def reference():
        expected = reference_component_chain(k, length)
        return {
            relation: frozenset(
                tuple(mapping[v] for v in t) for t in expected[relation]
            )
            for relation in answers
        }

    return BatchCase(
        source=source,
        facts=facts,
        engine=evaluate_datalog_seminaive,
        read=lambda result: {r: result.answer(r) for r in answers},
        reference=reference,
    )


def ctc_inflationary(seed: int, scale: str = "full") -> BatchCase:
    """Example 4.3 verbatim: complement of TC by the delay technique."""
    size = SIZES[scale]["ctc_inflationary"]
    edges = chain(size["chain"])
    rng = random.Random(seed)
    edges = _relabel_edges(
        edges, _relabeling(rng, {n for e in edges for n in e}), rng
    )
    return BatchCase(
        source=CTC_INFLATIONARY_SOURCE,
        facts={"G": edges},
        engine=evaluate_inflationary,
        read=lambda result: result.answer("CT"),
        reference=lambda: reference_complement_tc(edges),
    )


def _forward_dags(dags: int, nodes: int, degree: int, span: int,
                  rng: random.Random) -> set[tuple[int, int, int]]:
    """``(dag, i, j)`` edges: each node links forward to ``degree``
    distinct nodes at most ``span`` positions ahead."""
    edges = set()
    for d in range(dags):
        for i in range(nodes - 1):
            ahead = range(i + 1, min(i + span, nodes - 1) + 1)
            for j in rng.sample(ahead, min(degree, len(ahead))):
                edges.add((d, i, j))
    return edges


def _reference_watch(edges: set) -> dict[str, frozenset]:
    successors: dict[str, list[str]] = {}
    for u, v in edges:
        successors.setdefault(u, []).append(v)
    hops = frozenset(
        (u, w) for u, v in edges for w in successors.get(v, ())
    )
    return {"T": reference_transitive_closure(list(edges)), "H": hops}


def tc_watch(seed: int, scale: str = "full") -> StreamCase:
    """Linear TC plus a two-hop view, maintained under single-edge updates.

    The stream alternates inserting a new forward edge with deleting an
    existing edge, so the base stays the same size and stays acyclic.
    """
    size = SIZES[scale]["tc_watch"]
    dags, nodes, span = size["dags"], size["nodes"], size["span"]
    shape = sorted(
        _forward_dags(dags, nodes, size["degree"], span,
                      random.Random(SHAPE_SEED))
    )
    rng = random.Random(seed)
    mapping = _relabeling(
        rng, {f"d{d}_{i}" for d in range(dags) for i in range(nodes)}
    )

    def label(d: int, i: int) -> str:
        return mapping[f"d{d}_{i}"]

    def edge(e: tuple[int, int, int]) -> tuple[str, str]:
        d, i, j = e
        return label(d, i), label(d, j)

    facts = [edge(e) for e in shape]
    rng.shuffle(facts)

    def updates() -> Iterator[DiffBatch]:
        stream = random.Random(seed)
        live = list(shape)
        present = set(shape)
        insert = True
        while True:
            if insert:
                while True:
                    d = stream.randrange(dags)
                    i = stream.randrange(nodes - 1)
                    j = stream.randint(i + 1, min(i + span, nodes - 1))
                    if (d, i, j) not in present:
                        break
                e = (d, i, j)
                present.add(e)
                live.append(e)
                yield DiffBatch(inserts=(("G", edge(e)),))
            else:
                k = stream.randrange(len(live))
                live[k], live[-1] = live[-1], live[k]
                e = live.pop()
                present.discard(e)
                yield DiffBatch(deletes=(("G", edge(e)),))
            insert = not insert

    return StreamCase(
        source=WATCH_SOURCE,
        facts={"G": facts},
        updates=updates,
        length=size["updates"],
        reference=_reference_watch,
        views=("T", "H"),
    )


#: Workload name → the function making its case, in the order the
#: benchmark runs them.
WORKLOADS: dict[str, Callable[..., BatchCase | StreamCase]] = {
    "tc_closure": tc_closure,
    "win_game": win_game,
    "gated_components": gated_components,
    "ctc_inflationary": ctc_inflationary,
    "tc_watch": tc_watch,
}
