"""Whole-program dataflow analysis: binding times, domains, cardinalities.

Everything the engine knows about a program *before* the first tuple is
read lives here.  A small monotone framework (:class:`MonotoneAnalysis`
+ :func:`solve`) runs a worklist least-fixpoint over the predicate
dependency graph; on top of it sit three concrete lattices:

* **binding times** (:func:`adorn`, :class:`BindingTimeAnalysis`) —
  per-(predicate, adornment) bound/free propagation from a query
  pattern, left-to-right through rule bodies (the textbook SIPS).  The
  demanded adornments are exactly the cone the magic-set transform
  (:mod:`repro.semantics.magic`) rewrites; literals reached with
  unbound variables they cannot bind surface as DL016;
* **argument domains** (:func:`argument_domains`,
  :class:`DomainAnalysis`) — which EDB columns and constants can flow
  into each argument position (a provenance lattice: sets of sources
  with an explicit ⊤).  Two occurrences of a join variable whose
  concretizations are disjoint prove the rule can never fire (DL012);
  a position whose domain is one constant is foldable (DL015);
* **cardinality bounds** (:func:`cardinality_bounds`) — per-predicate
  row-count intervals from EDB sizes (or a symbolic assumed size) and
  rule structure, classified by growth: ``facts``/``linear``/``product``
  for nonrecursive strata, ``recursive`` (≤ adom^arity) for recursive
  SCCs, and ``unbounded`` when the recursion runs through value
  invention — §4.3's loss of the termination guarantee, surfaced as
  DL014.  The condensation DAG is walked topologically, so the interval
  lattice needs no widening beyond the adom^arity ceiling.

``repro analyze`` renders all three analyses, lint reports their
findings, and the magic-set transform rewrites the binding-time
demand cone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.analysis.graph import dependency_edges
from repro.analysis.safety import positively_bound_vars
from repro.ast.analysis import _sccs
from repro.ast.program import Program
from repro.ast.rules import ChoiceLit, EqLit, Lit, Rule
from repro.errors import EvaluationError
from repro.terms import Const, Var

# -- the monotone framework ---------------------------------------------------


class MonotoneAnalysis:
    """One abstract interpretation over the predicate dependency graph.

    A concrete analysis supplies the lattice (:meth:`bottom`,
    :meth:`join` — both per relation) and a per-rule :meth:`transfer`
    function mapping the current relation→value environment to updates
    for some relations.  :meth:`deps` names the relations whose value
    change must re-trigger a rule (body relations for a forward
    analysis, head relations for a demand analysis).  :func:`solve`
    iterates transfer to the least fixpoint; termination holds because
    every concrete lattice here has finite height over the program's
    finite sources (adornment strings, EDB columns + constants,
    capped intervals).
    """

    def bottom(self, relation: str):
        raise NotImplementedError

    def initial(self, program: Program) -> dict[str, Any]:
        """Seed values joined over :meth:`bottom` before iteration."""
        return {}

    def join(self, a, b):
        raise NotImplementedError

    def deps(self, rule: Rule) -> Iterable[str]:
        return rule.body_relations()

    def transfer(self, rule: Rule, index: int, values: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError


def solve(program: Program, analysis: MonotoneAnalysis) -> dict[str, Any]:
    """Worklist least fixpoint of one analysis over one program."""
    values: dict[str, Any] = {
        relation: analysis.bottom(relation) for relation in program.sch()
    }
    for relation, seed in analysis.initial(program).items():
        if relation in values:
            values[relation] = analysis.join(values[relation], seed)
    readers: dict[str, list[int]] = {}
    for index, rule in enumerate(program.rules):
        for relation in analysis.deps(rule):
            readers.setdefault(relation, []).append(index)
    pending = deque(range(len(program.rules)))
    queued = set(pending)
    while pending:
        index = pending.popleft()
        queued.discard(index)
        for relation, update in analysis.transfer(
            program.rules[index], index, values
        ).items():
            if relation not in values:
                continue
            joined = analysis.join(values[relation], update)
            if joined != values[relation]:
                values[relation] = joined
                for reader in readers.get(relation, ()):
                    if reader not in queued:
                        pending.append(reader)
                        queued.add(reader)
    return values


# -- lattice 1: binding times (adornments) ------------------------------------


def adornment_for(pattern: tuple) -> str:
    """The b/f string of a query pattern (``None`` marks a free slot)."""
    return "".join("f" if value is None else "b" for value in pattern)


@dataclass(frozen=True)
class AdornedLiteral:
    """A body literal under an adornment; ``None`` for negated literals
    (they bind nothing and must be fully bound when reached)."""

    lit: Lit
    adornment: str | None


@dataclass(frozen=True)
class AdornedRule:
    """One rule specialized to one demanded head adornment."""

    rule_index: int
    head_index: int
    relation: str
    adornment: str
    head: Lit
    #: Body in textual order: :class:`AdornedLiteral` for relational
    #: literals, the raw literal for everything else (=, choice, ⊥).
    body: tuple[Any, ...]

    def bound_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.adornment) if a == "b")


@dataclass
class BindingTimes:
    """The demand cone of one query: who is needed, how bound."""

    relation: str
    pattern: tuple
    #: idb relation → demanded adornments (the (predicate, adornment)
    #: pairs the magic transform will materialize).
    demanded: dict[str, frozenset[str]]
    #: edb relations read somewhere inside the cone.
    edb_reached: frozenset[str]
    adorned_rules: list[AdornedRule]
    #: (rule index, literal, reason) — DL016 material: the literal is
    #: reached with unbound variables it cannot bind under this SIPS.
    unsafe: list[tuple[int, Any, str]]

    def cone_relations(self) -> frozenset[str]:
        return frozenset(self.demanded) | self.edb_reached | {self.relation}

    def cone_rule_indices(self, program: Program) -> frozenset[int]:
        """Rules that can matter to the query (DL013 is the complement).

        A rule is in the cone when some head relation is demanded
        (deletion heads count: removing facts from a demanded relation
        changes answers); headless constraint rules are always live.
        """
        out: set[int] = set()
        live = set(self.demanded) | {self.relation}
        for index, rule in enumerate(program.rules):
            relations = rule.head_relations()
            if not relations or relations & live:
                out.add(index)
        return frozenset(out)


class BindingTimeAnalysis(MonotoneAnalysis):
    """Demand propagation: head adornments induce body adornments.

    Values are sets of adornment strings; the transfer direction is
    *backwards* along rules (a demanded head re-triggers on head-value
    change and emits demands for body relations), which is why
    :meth:`deps` returns head relations.
    """

    def __init__(self, program: Program, relation: str, adornment: str):
        self.program = program
        self.idb = program.idb
        self.query = (relation, adornment)
        self.adorned: dict[tuple[int, int, str], AdornedRule] = {}
        self.unsafe: dict[tuple[int, int, str], list[tuple[int, Any, str]]] = {}
        self.edb_reached: set[str] = set()

    def bottom(self, relation: str) -> frozenset[str]:
        return frozenset()

    def initial(self, program: Program) -> dict[str, Any]:
        relation, adornment = self.query
        return {relation: frozenset({adornment})}

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def deps(self, rule: Rule) -> Iterable[str]:
        return rule.head_relations()

    def transfer(self, rule, index, values):
        updates: dict[str, frozenset] = {}
        for head_index, head in enumerate(rule.head_literals()):
            if not head.positive:
                continue
            for adornment in sorted(values.get(head.relation, ())):
                key = (index, head_index, adornment)
                adorned, demands, unsafe = self._adorn_rule(
                    rule, index, head_index, head, adornment
                )
                self.adorned[key] = adorned
                self.unsafe[key] = unsafe
                for relation, body_adornment in demands:
                    updates[relation] = updates.get(relation, frozenset()) | {
                        body_adornment
                    }
        return updates

    def _adorn_rule(self, rule, index, head_index, head, adornment):
        bound: set[Var] = {
            term
            for term, a in zip(head.terms, adornment)
            if a == "b" and isinstance(term, Var)
        }
        body: list[Any] = []
        demands: list[tuple[str, str]] = []
        unsafe: list[tuple[int, Any, str]] = []
        for lit in rule.body:
            if isinstance(lit, Lit):
                if lit.positive:
                    body_adornment = "".join(
                        "b" if isinstance(t, Const) or t in bound else "f"
                        for t in lit.terms
                    )
                    body.append(AdornedLiteral(lit, body_adornment))
                    if lit.relation in self.idb:
                        demands.append((lit.relation, body_adornment))
                    else:
                        self.edb_reached.add(lit.relation)
                    bound |= lit.variables()
                else:
                    unbound = sorted(
                        t.name
                        for t in lit.terms
                        if isinstance(t, Var) and t not in bound
                    )
                    if unbound:
                        unsafe.append((
                            index,
                            lit,
                            f"negated literal {lit!r} is reached with unbound "
                            f"variable(s) {', '.join(unbound)} under "
                            f"adornment {adornment!r}",
                        ))
                    body.append(AdornedLiteral(lit, None))
            elif isinstance(lit, EqLit):
                sides = (lit.left, lit.right)
                is_bound = [
                    isinstance(s, Const) or s in bound for s in sides
                ]
                if lit.positive:
                    # x = bound-side binds x; an all-unbound equality
                    # binds nothing (it is checked, not enumerated).
                    for side, other_bound in zip(sides, reversed(is_bound)):
                        if isinstance(side, Var) and other_bound:
                            bound.add(side)
                else:
                    unbound = sorted(
                        s.name
                        for s, b in zip(sides, is_bound)
                        if isinstance(s, Var) and not b
                    )
                    if unbound:
                        unsafe.append((
                            index,
                            lit,
                            f"inequality {lit!r} is reached with unbound "
                            f"variable(s) {', '.join(unbound)} under "
                            f"adornment {adornment!r}",
                        ))
                body.append(lit)
            else:
                body.append(lit)  # ChoiceLit / BottomLit: bind nothing
        adorned = AdornedRule(
            index, head_index, head.relation, adornment, head, tuple(body)
        )
        return adorned, demands, unsafe


def adorn(program: Program, relation: str, pattern: tuple) -> BindingTimes:
    """Binding-time analysis of ``relation(pattern)?`` over a program.

    ``pattern`` follows :func:`repro.semantics.topdown.query_topdown`:
    a constant per bound position, ``None`` per free one.  Works on any
    dialect — the magic transform restricts itself to plain Datalog,
    but the cone and the DL016 findings are meaningful everywhere.
    """
    if relation in program.sch() and len(pattern) != program.arity(relation):
        raise EvaluationError(
            f"pattern arity {len(pattern)} != arity of {relation!r} "
            f"({program.arity(relation)})"
        )
    if relation not in program.idb:
        reached = frozenset({relation}) if relation in program.sch() else frozenset()
        return BindingTimes(relation, tuple(pattern), {}, reached, [], [])
    adornment = adornment_for(tuple(pattern))
    analysis = BindingTimeAnalysis(program, relation, adornment)
    values = solve(program, analysis)
    demanded = {
        rel: adornments
        for rel, adornments in sorted(values.items())
        if adornments and rel in program.idb
    }
    adorned_rules = [
        analysis.adorned[key] for key in sorted(analysis.adorned)
    ]
    unsafe: list[tuple[int, Any, str]] = []
    seen: set[tuple[int, str]] = set()
    for key in sorted(analysis.unsafe):
        for entry in analysis.unsafe[key]:
            dedup = (entry[0], entry[2])
            if dedup not in seen:
                seen.add(dedup)
                unsafe.append(entry)
    return BindingTimes(
        relation,
        tuple(pattern),
        demanded,
        frozenset(analysis.edb_reached),
        adorned_rules,
        unsafe,
    )


# -- lattice 2: argument domains (provenance flow) ----------------------------


@dataclass(frozen=True)
class Domain:
    """Abstract set of values one argument position can hold.

    ``sources`` is a set of atoms — ``("col", relation, position)`` for
    an EDB column, ``("const", value)`` for a constant — whose
    concretization is the union of the atoms' value sets; ``top`` is
    the unknown element (invention, adom-ranging variables).  The empty
    source set is ⊥: no fact can reach the position (already covered by
    DL005/DL009, so the disjointness check skips it).
    """

    top: bool = False
    sources: frozenset = frozenset()

    @staticmethod
    def const(value: Hashable) -> "Domain":
        return Domain(sources=frozenset({("const", value)}))

    @staticmethod
    def column(relation: str, position: int) -> "Domain":
        return Domain(sources=frozenset({("col", relation, position)}))

    @property
    def is_bottom(self) -> bool:
        return not self.top and not self.sources

    @property
    def consts_only(self) -> bool:
        return not self.top and bool(self.sources) and all(
            source[0] == "const" for source in self.sources
        )

    def join(self, other: "Domain") -> "Domain":
        if self.top or other.top:
            return DOMAIN_TOP
        return Domain(sources=self.sources | other.sources)

    def meet(self, other: "Domain") -> "Domain":
        """A sound representative of the intersection.

        The feasible values of a join variable lie inside *each*
        occurrence's domain, so either side over-approximates the meet;
        constant-only domains intersect exactly, otherwise the more
        precise side (constant-only beats columns beats ⊤, then fewer
        sources, then label order — all deterministic) is kept.
        """
        if self.top:
            return other
        if other.top:
            return self
        if self.consts_only and other.consts_only:
            return Domain(sources=self.sources & other.sources)
        def rank(domain: "Domain"):
            return (
                0 if domain.consts_only else 1,
                len(domain.sources),
                sorted(domain.labels()),
            )
        return min((self, other), key=rank)

    def values(self, db=None) -> frozenset | None:
        """γ(domain) when known and nonempty, else ``None``.

        Constants are always known; a column is known only against a
        live database with a nonempty relation (an absent or empty
        relation proves nothing about the *program*, so it reads as
        unknown rather than ∅).
        """
        if self.top or not self.sources:
            return None
        out: set[Hashable] = set()
        for source in self.sources:
            if source[0] == "const":
                out.add(source[1])
            else:
                rel = db.relation(source[1]) if db is not None else None
                if rel is None or len(rel) == 0:
                    return None
                out |= {t[source[2]] for t in rel}
        return frozenset(out) if out else None

    def labels(self) -> list[str]:
        """Sorted human labels: ``G.0`` for columns, ``repr`` for consts."""
        out = []
        for source in self.sources:
            if source[0] == "const":
                out.append(repr(source[1]))
            else:
                out.append(f"{source[1]}.{source[2]}")
        return sorted(out)


DOMAIN_TOP = Domain(top=True)
DOMAIN_BOTTOM = Domain()


def _rule_var_domains(rule: Rule, values: dict[str, Any]) -> dict[Var, Domain]:
    """Per-variable domains inside one rule (meet over occurrences)."""
    domains: dict[Var, Domain] = {}

    def meet_in(var: Var, domain: Domain) -> None:
        domains[var] = domains[var].meet(domain) if var in domains else domain

    for lit in rule.positive_body():
        relation_domains = values.get(lit.relation)
        for position, term in enumerate(lit.terms):
            if isinstance(term, Var):
                domain = (
                    relation_domains[position]
                    if relation_domains is not None
                    else DOMAIN_TOP
                )
                meet_in(term, domain)
    for eq in rule.equality_body():
        if not eq.positive:
            continue
        left, right = eq.left, eq.right
        if isinstance(left, Var) and isinstance(right, Const):
            meet_in(left, Domain.const(right.value))
        elif isinstance(right, Var) and isinstance(left, Const):
            meet_in(right, Domain.const(left.value))
        elif isinstance(left, Var) and isinstance(right, Var):
            if left in domains or right in domains:
                met = domains.get(left, DOMAIN_TOP).meet(
                    domains.get(right, DOMAIN_TOP)
                )
                domains[left] = domains[right] = met
    return domains


class DomainAnalysis(MonotoneAnalysis):
    """Provenance flow: EDB columns and constants into IDB arguments."""

    def __init__(self, program: Program):
        self.program = program
        #: Datalog¬¬ programs may have head relations populated by the
        #: *input* instance (§4.2) — seed every relation with its own
        #: column so nothing is proven empty or constant there.
        self.open_world = program.uses_negative_heads()

    def bottom(self, relation: str) -> tuple[Domain, ...]:
        return (DOMAIN_BOTTOM,) * self.program.arity(relation)

    def initial(self, program: Program) -> dict[str, Any]:
        seeded = set(program.edb)
        if self.open_world:
            seeded = set(program.sch())
        return {
            relation: tuple(
                Domain.column(relation, position)
                for position in range(program.arity(relation))
            )
            for relation in seeded
        }

    def join(self, a, b):
        return tuple(x.join(y) for x, y in zip(a, b))

    def transfer(self, rule, index, values):
        var_domains = _rule_var_domains(rule, values)
        updates: dict[str, tuple[Domain, ...]] = {}
        for head in rule.head_literals():
            if not head.positive:
                continue
            row = tuple(
                Domain.const(term.value)
                if isinstance(term, Const)
                else var_domains.get(term, DOMAIN_TOP)
                for term in head.terms
            )
            current = updates.get(head.relation)
            updates[head.relation] = (
                self.join(current, row) if current is not None else row
            )
        return updates


def argument_domains(program: Program) -> dict[str, tuple[Domain, ...]]:
    """The provenance lattice's fixpoint: relation → per-position domains."""
    return solve(program, DomainAnalysis(program))


@dataclass(frozen=True)
class DomainFinding:
    """One rule-level consequence of the domain analysis.

    ``kind`` is ``"empty-join"`` (two occurrences of ``variable`` have
    provably disjoint value sets — the rule never fires; DL012) or
    ``"constant"`` (the position's domain is the single constant
    ``value`` — the variable is foldable; DL015).  ``literal`` anchors
    the span; ``other`` is the earlier conflicting occurrence.
    """

    kind: str
    rule_index: int
    variable: str
    literal: Lit
    other: Lit | None = None
    value: Any = None


def domain_findings(
    program: Program,
    domains: dict[str, tuple[Domain, ...]] | None = None,
    db=None,
) -> list[DomainFinding]:
    """DL012/DL015 material from one domain fixpoint.

    Disjointness uses concrete value sets: constants alone without a
    database, EDB column contents too when ``db`` is given.  Constant
    foldability is reported only when provable statically (the domain
    is constants-only), never from live data.
    """
    if domains is None:
        domains = argument_domains(program)
    out: list[DomainFinding] = []
    for index, rule in enumerate(program.rules):
        occurrences: dict[Var, list[tuple[Lit, int, Domain]]] = {}
        for lit in rule.positive_body():
            relation_domains = domains.get(lit.relation)
            if relation_domains is None:
                continue
            for position, term in enumerate(lit.terms):
                if isinstance(term, Var):
                    occurrences.setdefault(term, []).append(
                        (lit, position, relation_domains[position])
                    )
        for var in sorted(occurrences, key=lambda v: v.name):
            sites = occurrences[var]
            known = [
                (lit, position, values)
                for lit, position, domain in sites
                for values in (domain.values(db),)
                if values
            ]
            found = False
            for i in range(len(known)):
                for j in range(i + 1, len(known)):
                    if known[i][2].isdisjoint(known[j][2]):
                        out.append(
                            DomainFinding(
                                "empty-join", index, var.name,
                                literal=known[j][0], other=known[i][0],
                            )
                        )
                        found = True
                        break
                if found:
                    break
            if found:
                continue
            for lit, position, domain in sites:
                if domain.consts_only and len(domain.sources) == 1:
                    ((_, value),) = domain.sources
                    out.append(
                        DomainFinding(
                            "constant", index, var.name,
                            literal=lit, value=value,
                        )
                    )
                    break
    return out


# -- lattice 3: static cardinality bounds -------------------------------------

#: Ceiling for symbolic interval arithmetic (keeps bounds JSON-safe).
CARDINALITY_CAP = 10 ** 15

#: Assumed rows per EDB relation (and adom size) when no data is given.
ASSUMED_EDB_ROWS = 64


@dataclass(frozen=True)
class CardinalityBound:
    """A row-count interval plus the growth class behind it.

    ``hi`` is ``None`` when no finite bound exists (recursion through
    invention); growth is ``edb``, ``facts`` (ground rules only),
    ``linear`` (≤ 1 positive body literal per rule), ``product``
    (joins), ``recursive`` (bounded by adom^arity), or ``unbounded``.
    """

    lo: int
    hi: int | None
    growth: str

    def to_dict(self) -> dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi, "growth": self.growth}


def _cap(n: int) -> int:
    return min(n, CARDINALITY_CAP)


def _power(base: int, exponent: int) -> int:
    if exponent <= 0:
        return 1
    result = 1
    for _ in range(exponent):
        result *= base
        if result >= CARDINALITY_CAP:
            return CARDINALITY_CAP
    return result


def cardinality_bounds(
    program: Program,
    db=None,
    assumed_edb_rows: int = ASSUMED_EDB_ROWS,
) -> dict[str, CardinalityBound]:
    """Static row-count intervals for every relation of the program.

    With ``db`` the EDB sizes and the active domain are exact; without
    it every EDB relation is assumed to hold ``assumed_edb_rows`` rows
    over an adom of the same size (a symbolic regime, in which only the
    *relative* order of the bounds is meaningful).  The condensation of
    the dependency graph (deletion counted as an edge) is processed
    topologically: nonrecursive relations sum per-rule products of
    their body bounds, recursive SCCs take the adom^arity ceiling, and
    recursion through invention has no bound at all (§4.3) — ``hi`` is
    ``None``, growth ``"unbounded"``.
    """
    if db is not None:
        adom = max(1, len(set(db.active_domain()) | program.constants()))
    else:
        adom = max(1, assumed_edb_rows)
    open_world = program.uses_negative_heads()

    nodes = sorted(program.sch())
    adjacency: dict[str, set[str]] = {relation: set() for relation in nodes}
    for edge in dependency_edges(program, include_deletion=True):
        adjacency[edge.src].add(edge.dst)
    components = _sccs(nodes, adjacency)
    component_of: dict[str, int] = {}
    for i, component in enumerate(components):
        for relation in component:
            component_of[relation] = i
    # Deterministic topological order over the condensation.
    n = len(components)
    successors: list[set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for src, targets in adjacency.items():
        for dst in targets:
            a, b = component_of[src], component_of[dst]
            if a != b and b not in successors[a]:
                successors[a].add(b)
                indegree[b] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    topo: list[int] = []
    while ready:
        i = ready.pop(0)
        topo.append(i)
        opened = []
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                opened.append(j)
        if opened:
            ready = sorted(ready + opened)

    defining: dict[str, list[tuple[Rule, Lit]]] = {}
    ground_facts: dict[str, set[tuple]] = {}
    for rule in program.rules:
        for head in rule.head_literals():
            if not head.positive:
                continue
            defining.setdefault(head.relation, []).append((rule, head))
            if not rule.body and all(
                isinstance(t, Const) for t in head.terms
            ):
                ground_facts.setdefault(head.relation, set()).add(
                    tuple(t.value for t in head.terms)
                )

    bounds: dict[str, CardinalityBound] = {}
    for i in topo:
        component = components[i]
        recursive = any(
            dst in component for src in component for dst in adjacency[src]
        )
        invents = recursive and any(
            rule.invention_variables()
            for relation in component
            for rule, _head in defining.get(relation, ())
        )
        for relation in sorted(component):
            rules = defining.get(relation, ())
            if not rules:
                if db is not None:
                    rel = db.relation(relation)
                    size = len(rel) if rel is not None else 0
                    bounds[relation] = CardinalityBound(size, size, "edb")
                else:
                    bounds[relation] = CardinalityBound(
                        0, assumed_edb_rows, "edb"
                    )
                continue
            arity = program.arity(relation)
            lo = 0 if open_world else len(ground_facts.get(relation, ()))
            if recursive:
                if invents:
                    bounds[relation] = CardinalityBound(lo, None, "unbounded")
                else:
                    bounds[relation] = CardinalityBound(
                        lo, _power(adom, arity), "recursive"
                    )
                continue
            hi: int | None = assumed_edb_rows if (
                open_world and db is None
            ) else 0
            widest_body = 0
            for rule, head in rules:
                widest_body = max(widest_body, len(rule.positive_body()))
                rule_hi: int | None = 1
                for lit in rule.positive_body():
                    body_bound = bounds[lit.relation]
                    if body_bound.hi is None:
                        rule_hi = None
                        break
                    rule_hi = _cap(rule_hi * max(body_bound.hi, 0))
                if rule_hi is None:
                    hi = None
                    break
                bound_vars = positively_bound_vars(rule)
                invented = rule.invention_variables()
                free_head = {
                    t
                    for t in head.terms
                    if isinstance(t, Var)
                    and t not in bound_vars
                    and t not in invented
                }
                rule_hi = _cap(rule_hi * _power(adom, len(free_head)))
                if not invented:
                    rule_hi = min(rule_hi, _power(adom, arity))
                hi = _cap(hi + rule_hi)
            growth = (
                "facts" if widest_body == 0
                else "linear" if widest_body == 1
                else "product"
            )
            bounds[relation] = CardinalityBound(lo, hi, growth)
    return bounds
