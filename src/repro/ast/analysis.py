"""Static analysis of programs: safety, stratification, dialect checks.

Implements the syntactic conditions of the paper:

* *safety* (range restriction), whose exact form varies by dialect —
  plain Datalog requires head variables to occur in a positive body
  literal (Definition 3.1); Datalog¬ only requires occurrence in *some*
  body literal (§3.2); nondeterministic dialects require head variables
  to be *positively bound* (Definition 5.1); Datalog¬new exempts
  invention variables (§4.3);
* the *precedence graph* and *stratification* (§3.2): a program is
  stratifiable iff no cycle of the precedence graph traverses a
  negative edge;
* *semi-positivity* (§4.5): negation applied to edb relations only.
"""

from __future__ import annotations

from repro.errors import DialectError, SafetyError, StratificationError
from repro.ast.program import (
    Dialect,
    EQUALITY_DIALECTS,
    INVENTION_DIALECTS,
    MULTI_HEAD_DIALECTS,
    NEGATIVE_HEAD_DIALECTS,
    Program,
)
from repro.ast.rules import ChoiceLit, Lit, Rule


def precedence_graph(program: Program) -> dict[str, set[tuple[str, bool]]]:
    """Edges body-relation → head-relation, labelled positive/negative.

    Returns a dict mapping each relation R to the set of pairs
    ``(S, is_positive)`` such that some rule has S in its head and R in
    its body through a literal of that polarity.
    """
    graph: dict[str, set[tuple[str, bool]]] = {rel: set() for rel in program.sch()}
    for rule in program.rules:
        heads = rule.head_relations()
        for lit in rule.body:
            if not isinstance(lit, Lit):
                continue
            for head_rel in heads:
                graph[lit.relation].add((head_rel, lit.positive))
    return graph


def _sccs(nodes: list[str], edges: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's strongly connected components (iterative)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[set[str]] = []

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, iter]] = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def stratify(program: Program) -> list[set[str]]:
    """A stratification of the program's relations, lowest stratum first.

    Each stratum is a set of relation names; edb relations live in
    stratum 0.  Raises :class:`StratificationError` when the program has
    recursion through negation (some precedence-graph cycle contains a
    negative edge).
    """
    graph = precedence_graph(program)
    plain_edges: dict[str, set[str]] = {rel: set() for rel in graph}
    negative_edges: set[tuple[str, str]] = set()
    for src, targets in graph.items():
        for dst, positive in targets:
            plain_edges[src].add(dst)
            if not positive:
                negative_edges.add((src, dst))

    components = _sccs(sorted(graph), plain_edges)
    component_of: dict[str, int] = {}
    for i, comp in enumerate(components):
        for rel in comp:
            component_of[rel] = i

    for src, dst in negative_edges:
        if component_of[src] == component_of[dst]:
            raise StratificationError(
                f"recursion through negation: {src!r} and {dst!r} are mutually "
                "recursive and connected by a negative edge"
            )

    # Longest-path-style level assignment on the component DAG: a negative
    # edge forces a strictly higher stratum, a positive edge a ≥ stratum.
    level: dict[int, int] = {i: 0 for i in range(len(components))}
    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > len(components) + 1:
            raise StratificationError("stratum levels do not stabilize")
        for src, targets in graph.items():
            for dst, positive in targets:
                src_c, dst_c = component_of[src], component_of[dst]
                needed = level[src_c] + (0 if positive else 1)
                if level[dst_c] < needed:
                    level[dst_c] = needed
                    changed = True

    max_level = max(level.values(), default=0)
    strata: list[set[str]] = [set() for _ in range(max_level + 1)]
    for rel in graph:
        strata[level[component_of[rel]]].add(rel)
    return [s for s in strata if s]


def is_stratifiable(program: Program) -> bool:
    """True iff the program admits a stratification."""
    try:
        stratify(program)
    except StratificationError:
        return False
    return True


def is_semipositive(program: Program) -> bool:
    """True iff negation is applied to edb relations only (§4.5)."""
    for rule in program.rules:
        for lit in rule.negative_body():
            if lit.relation in program.idb:
                return False
    return True


def _check_rule_safety(rule: Rule, dialect: Dialect) -> None:
    """Raise :class:`SafetyError` on the first range-restriction violation.

    The actual per-dialect logic lives in the diagnostics-based
    framework (:func:`repro.analysis.safety.rule_safety_diagnostics`);
    this wrapper preserves the historical raise-on-first-error contract
    that the engines and ``repro check`` rely on.
    """
    from repro.analysis.safety import rule_safety_diagnostics

    diagnostics = rule_safety_diagnostics(rule, dialect)
    if diagnostics:
        raise SafetyError(
            diagnostics[0].message, span=diagnostics[0].span or rule.span
        )


def validate_program(program: Program, dialect: Dialect) -> None:
    """Check that ``program`` is legal in ``dialect``; raise otherwise.

    Raises :class:`DialectError` for forbidden features,
    :class:`SafetyError` for range-restriction violations, and
    :class:`StratificationError` when a stratified dialect is requested
    for a non-stratifiable program.  A rule's error carries the rule's
    span (or a finer one), when it has one.
    """
    for rule in program.rules:
        span = rule.span
        if len(rule.head) > 1 and dialect not in MULTI_HEAD_DIALECTS:
            raise DialectError(
                f"{dialect.value} forbids multiple head literals: {rule!r}",
                span=span,
            )
        if rule.has_bottom_head() and dialect is not Dialect.N_DATALOG_BOTTOM:
            raise DialectError(
                f"{dialect.value} forbids the ⊥ head literal: {rule!r}",
                span=span,
            )
        if rule.universal and dialect is not Dialect.N_DATALOG_FORALL:
            raise DialectError(
                f"{dialect.value} forbids universal quantification: {rule!r}",
                span=span,
            )
        has_negative_head = any(
            isinstance(l, Lit) and not l.positive for l in rule.head
        )
        if has_negative_head and dialect not in NEGATIVE_HEAD_DIALECTS:
            raise DialectError(
                f"{dialect.value} forbids negative head literals: {rule!r}",
                span=span,
            )
        if rule.equality_body() and dialect not in EQUALITY_DIALECTS:
            raise DialectError(
                f"{dialect.value} forbids (in)equality body literals: {rule!r}",
                span=span,
            )
        if rule.negative_body() and dialect is Dialect.DATALOG:
            raise DialectError(
                f"datalog forbids body negation: {rule!r}", span=span
            )
        choice_goals = rule.choice_body()
        if choice_goals and dialect is not Dialect.DATALOG_CHOICE:
            raise DialectError(
                f"{dialect.value} forbids choice goals: {rule!r}", span=span
            )
        for goal in choice_goals:
            free = {
                v
                for v in goal.variables()
                if not any(
                    v in lit.variables()
                    for lit in rule.body
                    if not isinstance(lit, ChoiceLit)
                )
            }
            if free:
                names = sorted(v.name for v in free)
                raise SafetyError(
                    f"choice variables {names} not bound by a non-choice "
                    f"body literal: {rule!r}",
                    span=goal.span or span,
                )
        if rule.invention_variables() and dialect not in INVENTION_DIALECTS:
            names = sorted(v.name for v in rule.invention_variables())
            raise SafetyError(
                f"head variables {names} do not occur in the body (invention "
                f"requires dialect datalog-neg-new): {rule!r}",
                span=span,
            )
        _check_rule_safety(rule, dialect)

    if dialect is Dialect.SEMIPOSITIVE and not is_semipositive(program):
        raise DialectError("program negates idb relations; not semi-positive")
    if dialect is Dialect.STRATIFIED:
        stratify(program)  # raises StratificationError when impossible


def infer_dialect(program: Program) -> Dialect:
    """The least expressive dialect (per Figure 1) admitting the program."""
    if program.uses_choice():
        return Dialect.DATALOG_CHOICE
    if program.uses_universal():
        return Dialect.N_DATALOG_FORALL
    if program.uses_bottom():
        return Dialect.N_DATALOG_BOTTOM
    if program.uses_invention():
        if (
            program.uses_multi_heads()
            or program.uses_equality()
            or program.uses_negative_heads()
        ):
            return Dialect.N_DATALOG_NEW
        return Dialect.DATALOG_NEW
    if program.uses_multi_heads() or program.uses_equality():
        if program.uses_negative_heads():
            return Dialect.N_DATALOG_NEGNEG
        return Dialect.N_DATALOG_NEG
    if program.uses_negative_heads():
        return Dialect.DATALOG_NEGNEG
    if not program.uses_body_negation():
        return Dialect.DATALOG
    if is_semipositive(program):
        return Dialect.SEMIPOSITIVE
    if is_stratifiable(program):
        return Dialect.STRATIFIED
    return Dialect.DATALOG_NEG
