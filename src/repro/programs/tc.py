"""Transitive closure and its complement — §3.1 and §3.2 of the paper.

The paper's opening example (TC as the query FO cannot express) and the
canonical stratified program (complement of TC, computed after T)."""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.parser import parse_program

from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.workloads.graphs import Edge, graph_database

TC_SOURCE = """
T(x, y) :- G(x, y).
T(x, y) :- G(x, z), T(z, y).
"""

TC_NONLINEAR_SOURCE = """
T(x, y) :- G(x, y).
T(x, z) :- T(x, y), T(y, z).
"""

TC_LEFT_SOURCE = """
T(x, y) :- G(x, y).
T(x, y) :- T(x, z), G(z, y).
"""

CTC_STRATIFIED_SOURCE = """
T(x, y) :- G(x, y).
T(x, y) :- G(x, z), T(z, y).
CT(x, y) :- not T(x, y).
"""


def tc_program() -> Program:
    """The two-rule transitive closure program of §3.1."""
    return parse_program(TC_SOURCE, dialect=Dialect.DATALOG, name="tc")


def tc_nonlinear_program() -> Program:
    """Nonlinear transitive closure: T joined with itself.

    Computes the same answer as :func:`tc_program` in O(log n) stages;
    the self-join probes the growing T through a chain index, which makes
    this the canonical stress test for incremental index maintenance.
    """
    return parse_program(
        TC_NONLINEAR_SOURCE, dialect=Dialect.DATALOG, name="tc-nonlinear"
    )


def tc_left_program() -> Program:
    """Left-linear transitive closure: recursion on the first argument.

    Same minimum model as :func:`tc_program`, but under a source-bound
    query ``T(a, ?)`` the magic-set rewrite keeps the binding on the
    recursive call (``T^bf`` stays anchored at ``a``), so the demand
    cone is linear in the reachable set — the canonical showcase for
    :mod:`repro.semantics.magic`.  (The right-linear form propagates
    demand to every reachable node and re-derives a quadratic cone.)
    """
    return parse_program(
        TC_LEFT_SOURCE, dialect=Dialect.DATALOG, name="tc-left"
    )


def ctc_stratified_program() -> Program:
    """The stratified complement-of-TC program of §3.2."""
    return parse_program(CTC_STRATIFIED_SOURCE, dialect=Dialect.STRATIFIED, name="ctc")


def transitive_closure(edges: list[Edge]) -> frozenset[tuple]:
    """TC of an edge list, via semi-naive Datalog evaluation."""
    return evaluate_datalog_seminaive(tc_program(), graph_database(edges)).answer("T")


def complement_tc(edges: list[Edge]) -> frozenset[tuple]:
    """adom² − TC, via the stratified program.

    Note the scope of the complement: CT(x, y) holds for pairs over the
    active domain not connected by a path, matching the paper's
    active-domain semantics for ¬T(x, y).
    """
    db = graph_database(edges)
    return evaluate_stratified(ctc_stratified_program(), db).answer("CT")


def reference_transitive_closure(edges: list[Edge]) -> frozenset[tuple]:
    """Ground truth by plain BFS, for cross-checking the engines."""
    successors: dict[str, set[str]] = {}
    nodes: set[str] = set()
    for u, v in edges:
        successors.setdefault(u, set()).add(v)
        nodes.update((u, v))
    closure: set[tuple] = set()
    for start in nodes:
        frontier = list(successors.get(start, ()))
        reached: set[str] = set()
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            frontier.extend(successors.get(node, ()))
        closure.update((start, node) for node in reached)
    return frozenset(closure)


def reference_complement_tc(edges: list[Edge]) -> frozenset[tuple]:
    """Ground truth for CT: adom² minus the closure."""
    closure = reference_transitive_closure(edges)
    nodes = {n for e in edges for n in e}
    return frozenset(
        (a, b) for a in nodes for b in nodes if (a, b) not in closure
    )
