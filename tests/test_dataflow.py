"""Unit coverage for the whole-program dataflow layer.

The three lattices of :mod:`repro.analysis.dataflow` — binding times,
argument domains, cardinality bounds — plus the monotone framework they
share.
"""

import pytest

from repro.analysis.dataflow import (
    ASSUMED_EDB_ROWS,
    CARDINALITY_CAP,
    Domain,
    DOMAIN_BOTTOM,
    DOMAIN_TOP,
    MonotoneAnalysis,
    adorn,
    adornment_for,
    argument_domains,
    cardinality_bounds,
    domain_findings,
    solve,
)
from repro.errors import EvaluationError
from repro.parser import parse_program
from repro.programs.tc import tc_left_program, tc_program
from repro.workloads.graphs import chain, graph_database


# -- the monotone framework ---------------------------------------------------


class ReachableAnalysis(MonotoneAnalysis):
    """Tiny forward analysis: can a relation hold any fact at all?

    Exercises solve()'s worklist independently of the shipped lattices.
    """

    def bottom(self, relation):
        return False

    def initial(self, program):
        return {relation: True for relation in program.edb}

    def join(self, a, b):
        return a or b

    def transfer(self, rule, index, values):
        populated = all(
            values.get(lit.relation, False) for lit in rule.positive_body()
        )
        return {
            head.relation: populated
            for head in rule.head_literals()
            if head.positive
        }


class TestMonotoneFramework:
    def test_reaches_fixpoint_through_recursion(self):
        values = solve(tc_program(), ReachableAnalysis())
        assert values == {"G": True, "T": True}

    def test_unreachable_relation_stays_bottom(self):
        program = parse_program(
            "P(x) :- E(x).\nQ(x) :- P(x), Dead(x).\nDead(x) :- Q(x).\n"
        )
        values = solve(program, ReachableAnalysis())
        assert values["P"] is True
        assert values["Q"] is False
        assert values["Dead"] is False


# -- lattice 1: binding times -------------------------------------------------


class TestAdornments:
    def test_adornment_for(self):
        assert adornment_for((None, None)) == "ff"
        assert adornment_for(("a", None)) == "bf"
        assert adornment_for((None, "b")) == "fb"
        assert adornment_for(("a", "b")) == "bb"

    def test_left_linear_source_bound_stays_bf(self):
        binding = adorn(tc_left_program(), "T", ("n0", None))
        assert binding.demanded == {"T": frozenset({"bf"})}
        assert binding.edb_reached == frozenset({"G"})

    def test_right_linear_source_bound_stays_bf(self):
        # T(x,y) :- G(x,z), T(z,y): z is bound after G, so the
        # recursive call is again T^bf.
        binding = adorn(tc_program(), "T", ("n0", None))
        assert binding.demanded == {"T": frozenset({"bf"})}

    def test_free_query_demands_ff_only(self):
        # Left-linear: the recursive call is reached before G binds
        # anything, so the all-free demand stays all-free.
        binding = adorn(tc_left_program(), "T", (None, None))
        assert binding.demanded == {"T": frozenset({"ff"})}

    def test_free_query_right_linear_specializes(self):
        # Right-linear: G binds z first, so T^ff also demands T^bf.
        binding = adorn(tc_program(), "T", (None, None))
        assert binding.demanded == {"T": frozenset({"ff", "bf"})}

    def test_sink_bound_left_linear_degrades(self):
        # T(x,y) :- T(x,z), G(z,y) under T^fb: the recursive call is
        # reached before G, so both its arguments are free.
        binding = adorn(tc_left_program(), "T", (None, "n3"))
        assert binding.demanded["T"] == frozenset({"fb", "ff"})

    def test_adorned_rules_cover_each_demand(self):
        binding = adorn(tc_program(), "T", ("n0", None))
        keys = {(r.relation, r.adornment) for r in binding.adorned_rules}
        assert keys == {("T", "bf")}
        base, recursive = sorted(
            binding.adorned_rules, key=lambda r: r.rule_index
        )
        assert base.bound_positions() == (0,)
        body_adornments = [
            entry.adornment for entry in recursive.body
        ]
        assert body_adornments == ["bf", "bf"]  # G(x,z) then T(z,y)

    def test_edb_query_is_trivial(self):
        binding = adorn(tc_program(), "G", ("n0", None))
        assert binding.demanded == {}
        assert binding.edb_reached == frozenset({"G"})
        assert binding.adorned_rules == []

    def test_arity_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            adorn(tc_program(), "T", ("n0",))

    def test_negation_reached_unbound_is_unsafe(self):
        program = parse_program(
            "P(x) :- E(x).\nA(x) :- P(x), not Q(x, y).\nQ(x, y) :- E(x), E(y).\n"
        )
        binding = adorn(program, "A", ("a",))
        assert binding.unsafe
        index, lit, reason = binding.unsafe[0]
        assert lit.relation == "Q"
        assert "y" in reason

    def test_fully_bound_negation_is_safe(self):
        program = parse_program(
            "A(x) :- E(x), not Q(x).\nQ(x) :- F(x).\n"
        )
        binding = adorn(program, "A", (None,))
        assert binding.unsafe == []

    def test_cone_excludes_unrelated_rules(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- G(x, z), T(z, y).\n"
            "Iso(x) :- H(x).\n"
        )
        binding = adorn(program, "T", ("a", None))
        assert binding.cone_relations() == frozenset({"T", "G"})
        assert binding.cone_rule_indices(program) == frozenset({0, 1})


# -- lattice 2: argument domains ----------------------------------------------


class TestDomainLattice:
    def test_join_unions_sources(self):
        a = Domain.column("G", 0)
        b = Domain.const("x")
        joined = a.join(b)
        assert joined.sources == a.sources | b.sources
        assert a.join(DOMAIN_TOP).top

    def test_meet_intersects_constants_exactly(self):
        ab = Domain.const("a").join(Domain.const("b"))
        bc = Domain.const("b").join(Domain.const("c"))
        assert ab.meet(bc).sources == frozenset({("const", "b")})
        assert Domain.const("a").meet(Domain.const("c")).is_bottom

    def test_meet_prefers_the_precise_side(self):
        column = Domain.column("G", 0)
        const = Domain.const("a")
        assert column.meet(const) == const
        assert DOMAIN_TOP.meet(column) == column
        assert column.meet(DOMAIN_TOP) == column

    def test_values_concretizes_constants_without_db(self):
        assert Domain.const("a").values() == frozenset({"a"})
        assert Domain.column("G", 0).values() is None
        assert DOMAIN_TOP.values() is None
        assert DOMAIN_BOTTOM.values() is None

    def test_values_reads_live_columns(self):
        db = graph_database(chain(3))
        domain = Domain.column("G", 0)
        assert domain.values(db) == frozenset({"n0", "n1"})

    def test_empty_relation_reads_as_unknown(self):
        db = graph_database([])
        assert Domain.column("G", 0).values(db) is None


class TestArgumentDomains:
    def test_tc_arguments_come_from_g(self):
        domains = argument_domains(tc_program())
        assert domains["T"][0].labels() == ["G.0"]
        assert domains["T"][1].labels() == ["G.1"]

    def test_constants_flow_into_heads(self):
        program = parse_program("P('a') :- E(x).\nQ(y) :- P(y).\n")
        domains = argument_domains(program)
        assert domains["P"][0] == Domain.const("a")
        assert domains["Q"][0] == Domain.const("a")

    def test_negative_heads_open_the_world(self):
        # Datalog¬¬ heads may be populated by the input instance, so
        # every relation keeps its own column as a source.
        program = parse_program("!P(x) :- Q(x).\nA(x) :- P(x).\n")
        domains = argument_domains(program)
        assert ("col", "P", 0) in domains["P"][0].sources


class TestDomainFindings:
    def test_disjoint_constant_join_is_empty(self):
        program = parse_program(
            "P('a') :- E(x).\nQ('b') :- E(x).\nBoth(y) :- P(y), Q(y).\n"
        )
        findings = [
            f for f in domain_findings(program) if f.kind == "empty-join"
        ]
        assert len(findings) == 1
        assert findings[0].variable == "y"
        assert findings[0].literal.relation == "Q"
        assert findings[0].other.relation == "P"

    def test_live_data_disjointness_needs_db(self):
        program = parse_program(
            "A(y) :- P(x, y), Q(y, z).\n"
        )
        from repro.relational.instance import Database

        db = Database({
            ("P", 2): {("p", "a")},
            ("Q", 2): {("b", "q")},
        })
        assert not [
            f for f in domain_findings(program) if f.kind == "empty-join"
        ]
        with_db = domain_findings(program, db=db)
        assert [f.kind for f in with_db] == ["empty-join"]

    def test_constant_foldable_position(self):
        program = parse_program(
            "P('a') :- E(x).\nUse(y) :- P(y), F(y).\n"
        )
        constants = [
            f for f in domain_findings(program) if f.kind == "constant"
        ]
        assert len(constants) == 1
        assert constants[0].variable == "y"
        assert constants[0].value == "a"

    def test_clean_program_has_no_findings(self):
        assert domain_findings(tc_program()) == []


# -- lattice 3: cardinality bounds --------------------------------------------


class TestCardinalityBounds:
    def test_edb_with_live_data_is_exact(self):
        db = graph_database(chain(4))
        bounds = cardinality_bounds(tc_program(), db=db)
        assert (bounds["G"].lo, bounds["G"].hi) == (3, 3)
        assert bounds["G"].growth == "edb"

    def test_edb_without_data_is_symbolic(self):
        bounds = cardinality_bounds(tc_program())
        assert (bounds["G"].lo, bounds["G"].hi) == (0, ASSUMED_EDB_ROWS)

    def test_recursion_bounded_by_adom_power_arity(self):
        bounds = cardinality_bounds(tc_program())
        assert bounds["T"].growth == "recursive"
        assert bounds["T"].hi == ASSUMED_EDB_ROWS ** 2

    def test_nonrecursive_growth_classes(self):
        program = parse_program(
            "Facts('a').\n"
            "Copy(x) :- E(x).\n"
            "Pair(x, y) :- E(x), F(y).\n"
        )
        bounds = cardinality_bounds(program)
        assert bounds["Facts"].growth == "facts"
        assert (bounds["Facts"].lo, bounds["Facts"].hi) == (1, 1)
        assert bounds["Copy"].growth == "linear"
        assert bounds["Pair"].growth == "product"

    def test_invention_recursion_is_unbounded(self):
        program = parse_program(
            "P(c, x) :- R(x).\nP(d, x) :- P(c, x).\n"
        )
        bounds = cardinality_bounds(program)
        assert bounds["P"].growth == "unbounded"
        assert bounds["P"].hi is None

    def test_interval_arithmetic_is_capped(self):
        program = parse_program(
            "Wide(a, b, c, d, e, f, g, h, i, j) :- "
            "E(a), E(b), E(c), E(d), E(e), E(f), E(g), E(h), E(i), E(j).\n"
        )
        bounds = cardinality_bounds(program, assumed_edb_rows=10 ** 6)
        assert bounds["Wide"].hi == CARDINALITY_CAP
