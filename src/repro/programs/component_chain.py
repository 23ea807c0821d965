"""A chain of K gated transitive-closure components — the multi-SCC
scheduling workload.

Each component ``i`` computes the transitive closure ``Ti`` of its own
chain graph ``Ei``; for ``i > 0`` the base rule is *gated* on the fact
that component ``i-1`` finished (its end-to-end closure fact), so the
predicate dependency graph is a chain of K singleton SCCs
``T0 → T1 → … → T(K-1)``::

    T0(x, y) :- E0(x, y).
    T0(x, z) :- T0(x, y), E0(y, z).
    T1(x, y) :- E1(x, y), T0('c0_0', 'c0_15').
    T1(x, z) :- T1(x, y), E1(y, z).
    ...

The shape is adversarial for a *global* semi-naive loop: the gate fact
for component ``i`` appears only on the last delta stage of component
``i-1``'s closure, so the whole pipeline takes ~K·L stages, and every
stage revisits all 2K rules (and re-checks K still-closed gates)
against deltas that can only ever touch one component.  The
SCC-scheduled evaluator runs one component's delta loop at a time and
the relation→rules dispatch map confines each delta to its two rules —
work drops from O(K²·L) rule visits to O(K·L).  The ``bench/``
harness runs it as ``gated_components``.
"""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.parser import parse_program
from repro.relational.instance import Database

#: Chain length (node count) of each component's graph.
DEFAULT_LENGTH = 16


def _node(component: int, i: int) -> str:
    return f"c{component}_{i}"


def component_chain_source(
    components: int, length: int = DEFAULT_LENGTH
) -> str:
    """Program text for K gated linear-TC components."""
    if components < 1:
        raise ValueError("need at least one component")
    lines = [
        "T0(x, y) :- E0(x, y).",
        "T0(x, z) :- T0(x, y), E0(y, z).",
    ]
    for i in range(1, components):
        gate_from = _node(i - 1, 0)
        gate_to = _node(i - 1, length - 1)
        lines.append(
            f"T{i}(x, y) :- E{i}(x, y), "
            f"T{i - 1}('{gate_from}', '{gate_to}')."
        )
        lines.append(f"T{i}(x, z) :- T{i}(x, y), E{i}(y, z).")
    return "\n".join(lines) + "\n"


def component_chain_program(
    components: int, length: int = DEFAULT_LENGTH
) -> Program:
    """The parsed K-component gated-TC program."""
    return parse_program(
        component_chain_source(components, length),
        dialect=Dialect.DATALOG,
        name=f"component-chain-{components}x{length}",
    )


def component_chain_database(
    components: int, length: int = DEFAULT_LENGTH
) -> Database:
    """K disjoint chain graphs, one ``Ei`` relation per component."""
    return Database(
        {
            f"E{i}": [
                (_node(i, j), _node(i, j + 1)) for j in range(length - 1)
            ]
            for i in range(components)
        }
    )


def reference_component_chain(
    components: int, length: int = DEFAULT_LENGTH
) -> dict[str, frozenset[tuple]]:
    """Ground truth: every ``Ti`` is the full closure of chain ``i``.

    The gates delay *when* each component computes, never *what* — the
    gate fact (chain i-1's end-to-end pair) is always eventually
    derived, so each closure is total.
    """
    return {
        f"T{i}": frozenset(
            (_node(i, a), _node(i, b))
            for a in range(length)
            for b in range(a + 1, length)
        )
        for i in range(components)
    }
