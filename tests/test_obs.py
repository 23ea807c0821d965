"""The observability layer: events, tracer, probe, sinks, profiles.

Every engine driver emits the same schema-versioned event stream
(run_begin, stage spans, rule spans, run_end); the tests here pin the
event schema, check the stream across all ten drivers, and verify the
null-tracer default changes nothing — neither the result nor the hot
loops' behavior.
"""

import io
import json

import pytest

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    CollectorSink,
    JsonlSink,
    LiteralProfile,
    NULL_TRACER,
    NullTracer,
    ProfileReport,
    RuleEvent,
    RunBeginEvent,
    RunEndEvent,
    StageEvent,
    Tracer,
)
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics import (
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
from repro.semantics.stable import stable_models

TC = "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n"
GRAPH = {"G": [("a", "b"), ("b", "c"), ("c", "d")]}


def collect(engine_call):
    """Run ``engine_call(tracer)`` and return the collected events."""
    collector = CollectorSink()
    engine_call(Tracer([collector]))
    return collector


#: Every driver, called with a workload its dialect accepts.
ALL_ENGINES = {
    "naive": lambda tr: evaluate_datalog_naive(
        parse_program(TC), Database(GRAPH), tracer=tr
    ),
    "seminaive": lambda tr: evaluate_datalog_seminaive(
        parse_program(TC), Database(GRAPH), tracer=tr
    ),
    "stratified": lambda tr: evaluate_stratified(
        parse_program(TC + "CT(x, y) :- not T(x, y)."),
        Database(GRAPH), tracer=tr
    ),
    "inflationary": lambda tr: evaluate_inflationary(
        parse_program(TC), Database(GRAPH), tracer=tr
    ),
    "noninflationary": lambda tr: evaluate_noninflationary(
        parse_program("!S(x) :- S(x), E(x)."),
        Database({"S": [("a",), ("b",)], "E": [("a",)]}), tracer=tr
    ),
    "wellfounded": lambda tr: evaluate_wellfounded(
        parse_program("win(x) :- moves(x, y), not win(y)."),
        Database({"moves": [("a", "b"), ("b", "a"), ("b", "c")]}), tracer=tr
    ),
    "stable": lambda tr: stable_models(
        parse_program("win(x) :- moves(x, y), not win(y)."),
        Database({"moves": [("a", "b"), ("b", "a"), ("b", "c")]}), tracer=tr
    ),
    "choice": lambda tr: evaluate_with_choice(
        parse_program("adv(s, p) :- student(s), prof(p), choice((s), (p))."),
        Database({"student": [("sue",)], "prof": [("kim",), ("lee",)]}),
        seed=1, tracer=tr
    ),
    "nondeterministic": lambda tr: run_nondeterministic(
        parse_program("A(x) :- S(x)."),
        Database({"S": [("a",), ("b",)]}), tracer=tr
    ),
    "invention": lambda tr: evaluate_with_invention(
        parse_program("tag(x, n) :- R(x), not tagged(x).\n"
                      "tagged(x) :- tag(x, n).\n"),
        Database({"R": [("a",)]}), tracer=tr
    ),
}


class TestEventModel:
    def test_every_event_dict_carries_version_and_kind(self):
        collector = collect(ALL_ENGINES["seminaive"])
        assert collector.events
        for event in collector.events:
            d = event.to_dict()
            assert d["version"] == TRACE_SCHEMA_VERSION
            assert d["kind"] == type(event).kind

    def test_rule_event_schema(self):
        collector = collect(ALL_ENGINES["seminaive"])
        event = collector.rule_events()[0]
        d = event.to_dict()
        assert set(d) == {
            "version", "kind", "stage", "rule_index", "rule", "span",
            "seconds", "firings", "emitted", "deduplicated", "literals",
        }
        assert d["kind"] == "rule"
        assert d["span"] is not None  # parsed rules carry source spans
        for lp in d["literals"]:
            assert set(lp) == {"literal", "candidates", "matches"}

    def test_stage_event_counters_only_by_default(self):
        collector = collect(ALL_ENGINES["seminaive"])
        for event in collector.stage_events():
            assert event.new_facts is None
            assert "new_facts" not in event.to_dict()

    def test_stage_event_facts_when_requested(self):
        collector = CollectorSink()
        evaluate_datalog_seminaive(
            parse_program(TC), Database(GRAPH),
            tracer=Tracer([collector], include_facts=True),
        )
        first = collector.stage_events()[0]
        assert ("T", ("a", "b")) in first.new_facts
        d = first.to_dict()
        assert ["T", ["a", "b"]] in d["new_facts"]

    def test_literal_profile_selectivity(self):
        assert LiteralProfile("L(x)", 10, 5).selectivity == 0.5
        assert LiteralProfile("L(x)", 0, 0).selectivity == 1.0

    def test_run_brackets(self):
        collector = collect(ALL_ENGINES["naive"])
        assert isinstance(collector.events[0], RunBeginEvent)
        assert isinstance(collector.events[-1], RunEndEvent)
        end = collector.run_end()
        assert end.engine == "naive"
        assert end.seconds >= 0
        assert end.rule_firings > 0


class TestAllEngines:
    @pytest.mark.parametrize("name", sorted(ALL_ENGINES))
    def test_stream_shape(self, name):
        collector = collect(ALL_ENGINES[name])
        assert isinstance(collector.events[0], RunBeginEvent)
        assert collector.run_end() is not None
        assert collector.stage_events()
        rules = collector.rule_events()
        assert rules, f"{name} emitted no rule spans"
        for event in rules:
            assert event.seconds >= 0
            assert event.firings >= 0
            assert event.emitted >= event.deduplicated >= 0
            for lp in event.literals:
                assert lp.candidates >= lp.matches >= 0

    @pytest.mark.parametrize("name", sorted(ALL_ENGINES))
    def test_rule_firings_match_stats(self, name):
        """Rule spans account for every firing the engine counted."""
        if name == "stable":
            pytest.skip("stable_models returns models, not stats")
        collector = CollectorSink()
        result = ALL_ENGINES[name](Tracer([collector]))
        total = sum(e.firings for e in collector.rule_events())
        assert total == result.stats.rule_firings

    def test_traced_equals_untraced(self):
        program = parse_program(TC)
        db = Database(GRAPH)
        traced = evaluate_datalog_seminaive(
            program, db, tracer=Tracer([CollectorSink()])
        )
        plain = evaluate_datalog_seminaive(program, db)
        assert traced.database.canonical() == plain.database.canonical()
        assert traced.rule_firings == plain.rule_firings
        assert traced.stats.stage_count == plain.stats.stage_count

    def test_wellfounded_spans_survive_transform(self):
        """The well-founded engine's rewritten rules keep source spans."""
        collector = collect(ALL_ENGINES["wellfounded"])
        for event in collector.rule_events():
            assert event.span is not None
            assert event.span.line == 1


class TestNullTracer:
    def test_null_tracer_emits_nothing(self):
        sink = CollectorSink()
        tracer = NullTracer()
        tracer.add_sink(sink)
        evaluate_datalog_seminaive(
            parse_program(TC), Database(GRAPH), tracer=tracer
        )
        assert sink.events == []

    def test_null_tracer_singleton_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_engines_collapse_disabled_tracer(self):
        # Same canonical result whether tracer is None or the null tracer.
        program = parse_program(TC)
        db = Database(GRAPH)
        with_null = evaluate_datalog_naive(program, db, tracer=NULL_TRACER)
        without = evaluate_datalog_naive(program, db)
        assert with_null.database.canonical() == without.database.canonical()


class TestJsonlSink:
    def test_every_line_versioned_and_parseable(self):
        buffer = io.StringIO()
        tracer = Tracer([JsonlSink(buffer)], include_facts=True)
        evaluate_datalog_seminaive(parse_program(TC), Database(GRAPH),
                                   tracer=tracer)
        lines = buffer.getvalue().strip().split("\n")
        kinds = set()
        for line in lines:
            d = json.loads(line)
            assert d["version"] == TRACE_SCHEMA_VERSION
            kinds.add(d["kind"])
        assert kinds == {"run_begin", "stage", "rule", "run_end"}

    def test_path_destination_owned_and_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer([sink])
        evaluate_datalog_naive(parse_program(TC), Database(GRAPH),
                               tracer=tracer)
        tracer.close()
        lines = path.read_text().strip().split("\n")
        assert all(json.loads(line)["version"] == TRACE_SCHEMA_VERSION
                   for line in lines)

    def test_invented_values_degrade_to_repr(self):
        buffer = io.StringIO()
        tracer = Tracer([JsonlSink(buffer)], include_facts=True)
        ALL_ENGINES["invention"](tracer)
        for line in buffer.getvalue().strip().split("\n"):
            json.loads(line)  # ν-values must not break serialization


class TestProfileReport:
    def make_report(self):
        program = parse_program(TC)
        collector = CollectorSink()
        evaluate_datalog_seminaive(program, Database(GRAPH),
                                   tracer=Tracer([collector]))
        return ProfileReport.from_events(collector.events, program=program)

    def test_aggregates_per_rule(self):
        report = self.make_report()
        assert report.engine == "seminaive"
        assert len(report.rows) == 2
        assert sum(row.firings for row in report.rows) == report.rule_firings
        for row in report.rows:
            assert row.span is not None
            assert row.source_line is not None
            assert row.calls == report.stages

    def test_sort_orders(self):
        report = self.make_report()
        by_time = report.sorted_rows("time")
        assert by_time[0].seconds >= by_time[-1].seconds
        by_firings = report.sorted_rows("firings")
        assert by_firings[0].firings >= by_firings[-1].firings
        with pytest.raises(ValueError):
            report.sorted_rows("bogus")

    def test_to_dict_pinned_schema(self):
        d = self.make_report().to_dict(sort="firings", top=1)
        assert set(d) == {"version", "engine", "matcher", "seconds",
                          "stages", "rule_firings", "sort", "rules",
                          "planner"}
        assert d["version"] == TRACE_SCHEMA_VERSION
        assert len(d["rules"]) == 1
        row = d["rules"][0]
        assert set(row) == {
            "rule_index", "rule", "span", "source_line", "calls", "seconds",
            "firings", "emitted", "deduplicated", "literals",
        }

    def test_unfired_rules_appear_with_zeros(self):
        program = parse_program(TC + "U(x) :- Unused(x).")
        collector = CollectorSink()
        evaluate_datalog_seminaive(program, Database(GRAPH),
                                   tracer=Tracer([collector]))
        report = ProfileReport.from_events(collector.events, program=program)
        unused = [r for r in report.rows if "Unused" in r.rule]
        assert len(unused) == 1
        assert unused[0].firings == 0

    def test_render_contains_join_selectivity(self):
        rendered = self.make_report().render(top=10)
        assert "engine: seminaive" in rendered
        assert "T(x, y) :- G(x, y)." in rendered
        assert "join" in rendered
        assert "%" in rendered
