"""EngineStats: every engine reports consistent performance counters.

The observability layer added alongside incremental index maintenance:
each driver attaches an :class:`~repro.semantics.base.EngineStats` to
its result, with per-stage wall clock, rule firings, delta sizes, and
the index build/update counters diffed from the databases it mutated.
"""

import pytest

from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics import (
    EngineStats,
    StageStats,
    StageTrace,
    StatsRecorder,
    evaluate_datalog_naive,
    evaluate_datalog_seminaive,
    evaluate_inflationary,
    evaluate_noninflationary,
    evaluate_stratified,
    evaluate_wellfounded,
    evaluate_with_choice,
    evaluate_with_invention,
    run_nondeterministic,
)
from repro.semantics.base import EvaluationResult
from repro.statelog import parse_statelog, run_statelog
from tests.test_wellfounded import KEYED_EDGES, KEYED_SOURCE

TC = "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n"
GRAPH = {"G": [("a", "b"), ("b", "c"), ("c", "d")]}


def assert_consistent(stats: EngineStats, engine: str):
    assert stats.engine == engine
    assert stats.seconds >= 0
    assert stats.stage_count == len(stats.stages) > 0
    assert stats.rule_firings == sum(s.firings for s in stats.stages)
    assert stats.index_builds == sum(s.index_builds for s in stats.stages)
    assert stats.index_updates == sum(s.index_updates for s in stats.stages)
    assert all(s.seconds >= 0 for s in stats.stages)
    # The summary renders every headline counter.
    summary = stats.summary()
    for needle in ("engine:", "matcher:", "wall time:", "rule firings:",
                   "index builds:", "index updates:", "adom size:"):
        assert needle in summary


class TestDeterministicEngines:
    def test_naive(self):
        result = evaluate_datalog_naive(parse_program(TC), Database(GRAPH))
        assert_consistent(result.stats, "naive")
        assert result.stats.rule_firings == result.rule_firings
        assert result.stats.adom_size == 4

    def test_seminaive(self):
        result = evaluate_datalog_seminaive(parse_program(TC), Database(GRAPH))
        assert_consistent(result.stats, "seminaive")
        assert result.stats.consequence_calls == result.stats.stage_count

    def test_stratified(self):
        program = parse_program(TC + "CT(x, y) :- not T(x, y).")
        result = evaluate_stratified(program, Database(GRAPH))
        assert_consistent(result.stats, "stratified")

    def test_inflationary(self):
        program = parse_program(TC, name="tc")
        result = evaluate_inflationary(program, Database(GRAPH))
        assert_consistent(result.stats, "inflationary")

    def test_inflationary_empty_fixpoint(self):
        # The early-return path (no stage-1 facts) still attaches stats.
        program = parse_program("P(x) :- Q(x).")
        result = evaluate_inflationary(program, Database({("Q", 1): []}))
        assert_consistent(result.stats, "inflationary")

    def test_noninflationary(self):
        program = parse_program("!S(x) :- S(x), E(x).")
        db = Database({"S": [("a",), ("b",)], "E": [("a",)]})
        result = evaluate_noninflationary(program, db)
        assert_consistent(result.stats, "noninflationary")
        assert sum(s.removed for s in result.stats.stages) == 1

    def test_wellfounded(self):
        program = parse_program("win(x) :- moves(x, y), not win(y).")
        db = Database({"moves": [("a", "b"), ("b", "a"), ("b", "c")]})
        model = evaluate_wellfounded(program, db)
        assert_consistent(model.stats, "wellfounded")

    def test_wellfounded_counts_each_relation_once(self):
        # Each work database builds its chain on R once.  R is also the
        # other database's assumption relation; counting it there too
        # would read 4 builds.  No step resets R, and the incremental
        # steps change none of it after its chain is built, so no index
        # is updated.
        program = parse_program(KEYED_SOURCE)
        model = evaluate_wellfounded(program, Database({"G": KEYED_EDGES}))
        assert_consistent(model.stats, "wellfounded")
        assert [s.index_builds for s in model.stats.stages] == [1, 1, 0, 0, 0]
        assert model.stats.index_builds == 2
        assert model.stats.index_updates == 0

    def test_invention(self):
        program = parse_program(
            "tag(x, n) :- R(x), not tagged(x).\ntagged(x) :- tag(x, n).\n"
        )
        result = evaluate_with_invention(program, Database({"R": [("a",)]}))
        assert_consistent(result.stats, "invention")

    def test_choice(self):
        program = parse_program(
            "adv(s, p) :- student(s), prof(p), choice((s), (p)).\n"
        )
        db = Database({"student": [("sue",)], "prof": [("kim",), ("lee",)]})
        result = evaluate_with_choice(program, db, seed=1)
        assert_consistent(result.stats, "choice")


class TestOtherDrivers:
    def test_nondeterministic_run(self):
        program = parse_program("A(x) :- S(x).", name="nd")
        run = run_nondeterministic(program, Database({"S": [("a",), ("b",)]}))
        assert_consistent(run.stats, "nondeterministic")
        # One stage per applied step plus the terminal check.
        assert run.stats.stage_count == run.step_count + 1

    def test_statelog(self):
        program = parse_statelog(
            "alarm(x) :- sensor(x).\n+log(x) :- alarm(x).\n+log(x) :- log(x).\n"
        )
        result = run_statelog(program, Database({"sensor": [("s1",)]}))
        assert_consistent(result.stats, "statelog")
        assert result.stats.stage_count == len(result.states)


class TestStageOf:
    def test_stage_lookup(self):
        result = evaluate_datalog_seminaive(parse_program(TC), Database(GRAPH))
        assert result.stage_of("T", ("a", "b")) == 1
        assert result.stage_of("T", ("a", "c")) == 2
        assert result.stage_of("T", ("a", "d")) == 3
        assert result.stage_of("T", ("d", "a")) is None
        assert result.stage_of("missing", ()) is None

    def test_lookup_tracks_appended_stages(self):
        result = EvaluationResult(Database())
        result.stages.append(StageTrace(1, new_facts=[("R", ("a",))]))
        assert result.stage_of("R", ("a",)) == 1
        assert result.stage_of("R", ("b",)) is None
        # Appending a stage after a query must invalidate the cache.
        result.stages.append(StageTrace(2, new_facts=[("R", ("b",))]))
        assert result.stage_of("R", ("b",)) == 2
        assert result.stage_of("R", ("a",)) == 1  # first derivation wins

    def test_first_derivation_wins(self):
        result = EvaluationResult(Database())
        result.stages.append(StageTrace(1, new_facts=[("R", ("a",))]))
        result.stages.append(StageTrace(2, new_facts=[("R", ("a",))]))
        assert result.stage_of("R", ("a",)) == 1


class TestStatsRecorder:
    def test_explicit_counters_are_per_stage(self):
        # Engines evaluating over scratch databases (well-founded,
        # Statelog) pass each phase's own counter totals explicitly.
        recorder = StatsRecorder("custom")
        recorder.stage(1, 5, added=2, counters=(3, 7, 0))
        recorder.stage(2, 1, counters=(4, 9, 1))
        stats = recorder.finish(adom_size=10)
        assert stats.rule_firings == 6
        assert stats.index_builds == 3 + 4
        assert stats.index_updates == 7 + 9
        assert stats.index_drops == 1
        assert stats.stages[1].index_builds == 4
        assert stats.adom_size == 10

    def test_watch_diffs_database_counters(self):
        db = Database({"R": [("a", "b")]})
        recorder = StatsRecorder("custom", db)
        db.relation("R").chain_index((0,))
        db.add_fact("R", ("c", "d"))
        recorder.stage(1, 1)
        stats = recorder.finish()
        assert stats.index_builds == 1
        assert stats.index_updates == 1


class TestSummaryAlignment:
    """The per-stage table must stay aligned for arbitrarily wide counters."""

    def make_stats(self):
        stats = EngineStats(engine="seminaive", seconds=123.456789)
        stats.stages = [
            StageStats(stage=1, seconds=0.25, firings=3, added=2),
            StageStats(stage=2, seconds=100.5, firings=123_456_789,
                       added=98_765_432, removed=7, index_builds=1,
                       index_updates=55_555_555),
            StageStats(stage=3, seconds=0.000001, firings=0),
        ]
        stats.rule_firings = sum(s.firings for s in stats.stages)
        return stats

    def test_columns_fit_widest_value(self):
        summary = self.make_stats().summary()
        table = summary.splitlines()[10:]  # the per-stage table
        assert len(table) == 4  # header + 3 stages
        # Every row has identical length: wide counters never shear it.
        assert len({len(line) for line in table}) == 1
        header = table[0].split()
        assert header == ["stage", "seconds", "firings", "+facts",
                          "-facts", "builds", "updates"]
        # Columns remain parseable after splitting on whitespace.
        for line in table[1:]:
            assert len(line.split()) == 7
        assert "123456789" in table[2]

    def test_snapshot(self):
        """Byte-for-byte snapshot of the wide-counter rendering."""
        table = "\n".join(self.make_stats().summary().splitlines()[10:])
        assert table == (
            "stage     seconds    firings    +facts  -facts  builds   updates\n"
            "    1    0.250000          3         2       0       0         0\n"
            "    2  100.500000  123456789  98765432       7       1  55555555\n"
            "    3    0.000001          0         0       0       0         0"
        )

    def test_headline_lines_unchanged(self):
        summary = self.make_stats().summary()
        assert "engine:            seminaive" in summary
        assert "wall time:         123.456789 s" in summary
        assert "rule firings:      123456792" in summary


class TestRecorderInvariants:
    """Cross-engine invariants of the recorded statistics (satellite 4)."""

    def run_all(self):
        program = parse_program(TC)
        db = Database(GRAPH)
        return {
            "naive": evaluate_datalog_naive(program, db).stats,
            "seminaive": evaluate_datalog_seminaive(program, db).stats,
            "stratified": evaluate_stratified(program, db).stats,
            "inflationary": evaluate_inflationary(program, db).stats,
        }

    def test_stage_seconds_nonnegative_and_bounded(self):
        for engine, stats in self.run_all().items():
            assert all(s.seconds >= 0 for s in stats.stages), engine
            # Stages partition a sub-interval of the whole run.
            assert sum(s.seconds for s in stats.stages) <= stats.seconds, engine

    def test_index_counters_count_live_maintenance(self):
        from repro.relational.instance import Relation

        from repro.programs.tc import tc_nonlinear_program
        from repro.workloads.graphs import chain, graph_database

        program = tc_nonlinear_program()
        result = evaluate_datalog_seminaive(
            program, graph_database(chain(12))
        )
        stats = result.stats
        # Build each physical index once, then in-place updates only.
        # The planner's cover for nonlinear TC keeps two chain indexes
        # on T — one per join side — hence two builds.
        assert stats.index_builds == 2
        assert stats.index_updates > 0
        # The live chains equal chains built fresh on a copy of the
        # final tuples.
        live = result.database.relation("T")
        fresh = Relation("T", 2, live.tuples())
        chains = live.live_indexes()
        assert len(chains) == 2
        for order in chains:
            fresh.chain_index(order)
            for depth in range(1, len(order) + 1):
                positions = frozenset(order[:depth])
                assert live.distinct_estimate(positions) == (
                    fresh.distinct_estimate(positions)
                )
            for t in live.tuples():
                key = tuple(t[p] for p in order)
                assert sorted(live.probe_chain(order, len(order), key)) == (
                    sorted(fresh.probe_chain(order, len(order), key))
                )

    def test_matcher_field_names_production_or_reference(self, reference):
        program = parse_program(TC)
        db = Database(GRAPH)
        production = evaluate_datalog_seminaive(program, db).stats
        with reference():
            oracle = evaluate_datalog_seminaive(program, db).stats
        assert production.matcher == "columnar"
        assert oracle.matcher == "interpreted"
        # The matcher never changes what gets computed.
        assert production.rule_firings == oracle.rule_firings
        assert production.stage_count == oracle.stage_count

    def test_traced_runs_report_the_columnar_matcher(self):
        # A tracer observes the production path; it never swaps it.
        from repro.obs import CollectorSink, Tracer

        tracer = Tracer([CollectorSink()])
        stats = evaluate_datalog_seminaive(
            parse_program(TC), Database(GRAPH), tracer=tracer
        ).stats
        assert stats.matcher == "columnar"
        assert stats.planner is not None

    def test_null_tracer_adds_zero_events_and_identical_stats_shape(self):
        from repro.obs import NULL_TRACER, CollectorSink

        sink = CollectorSink()
        NULL_TRACER.add_sink(sink)
        try:
            program = parse_program(TC)
            db = Database(GRAPH)
            traced = evaluate_datalog_seminaive(program, db,
                                                tracer=NULL_TRACER).stats
            plain = evaluate_datalog_seminaive(program, db).stats
        finally:
            NULL_TRACER.sinks.remove(sink)
        assert sink.events == []
        assert traced.stage_count == plain.stage_count
        assert traced.rule_firings == plain.rule_firings
        assert [s.firings for s in traced.stages] == [
            s.firings for s in plain.stages
        ]
