"""CLI observability surfaces: profile, run --trace-out, stats --format json."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import TRACE_SCHEMA_VERSION
from repro.semantics.base import STATS_SCHEMA_VERSION


@pytest.fixture
def tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text(
        "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n"
    )
    data = tmp_path / "graph.dl"
    data.write_text("G('a', 'b').\nG('b', 'c').\nG('c', 'd').\n")
    return str(program), str(data)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


#: Every semantics the profile command accepts, with a workload each
#: dialect accepts (None = the plain-Datalog tc fixture works).
PROFILE_SEMANTICS = {
    "naive": None,
    "seminaive": None,
    "stratified": None,
    "inflationary": None,
    "noninflationary": None,
    "wellfounded": None,
    "stable": None,
    "choice": (
        "adv(s, p) :- student(s), prof(p), choice((s), (p)).\n",
        "student('sue'). prof('kim'). prof('lee').\n",
    ),
    "nondeterministic": (
        "A(x) :- S(x).\n",
        "S('a'). S('b').\n",
    ),
    "invention": (
        "tag(x, n) :- R(x), not tagged(x).\ntagged(x) :- tag(x, n).\n",
        "R('a').\n",
    ),
}


class TestProfile:
    @pytest.mark.parametrize("semantics", sorted(PROFILE_SEMANTICS))
    def test_json_schema_for_every_semantics(
        self, semantics, tc_files, tmp_path
    ):
        override = PROFILE_SEMANTICS[semantics]
        if override is None:
            program, data = tc_files
        else:
            program_text, data_text = override
            program = str(tmp_path / "p.dl")
            data = str(tmp_path / "d.dl")
            (tmp_path / "p.dl").write_text(program_text)
            (tmp_path / "d.dl").write_text(data_text)
        code, output = run_cli(
            ["profile", program, "--data", data,
             "--semantics", semantics, "--format", "json"]
        )
        assert code == 0, semantics
        report = json.loads(output)
        assert report["version"] == TRACE_SCHEMA_VERSION
        assert report["rules"], semantics
        fired = [r for r in report["rules"] if r["firings"]]
        assert fired, semantics
        for row in fired:
            assert row["seconds"] >= 0
            assert row["span"] is not None  # points at a real source line
            assert row["emitted"] >= 0

    def test_planner_report_attached(self, tc_files):
        # Beside the run's spans, the profile carries the static planner
        # report (orders, estimates, cover) for the same program and
        # input.
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        planner = json.loads(output)["planner"]
        assert planner is not None
        assert set(planner) >= {"rules", "index_cover",
                                "scheduled_components"}
        full = planner["rules"]["1"]["full"]  # the recursive TC rule
        assert full["order"] and full["estimated_rows"] >= 0

    def test_reports_columnar_matcher(self, tc_files):
        # Profiles are collected through a tracer, and traced runs keep
        # the production matcher — the report says so, in both formats.
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        assert json.loads(output)["matcher"] == "columnar"
        code, output = run_cli(["profile", program, "--data", data])
        assert code == 0
        assert "matcher: columnar" in output

    def test_a_row_lists_every_order_its_spans_ran(self, tmp_path):
        """Nonlinear TC over a 30-edge chain: each delta pass runs both
        occurrences of ``T`` delta-first, ``[0, 1]`` then ``[1, 0]``, and
        the recursive rule's row (and each of its rule events) keeps
        both, in first-seen order (docs/TOUR.md §13)."""
        program = tmp_path / "tcn.dl"
        program.write_text(
            "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"
        )
        data = tmp_path / "chain.dl"
        data.write_text("".join(
            f"G('n{i}', 'n{i + 1}').\n" for i in range(30)
        ))
        code, output = run_cli(
            ["profile", str(program), "--data", str(data), "--format", "json"]
        )
        assert code == 0
        rows = {row["rule_index"]: row for row in json.loads(output)["rules"]}
        assert rows[1]["orders"] == [[0, 1], [1, 0]]
        assert rows[0]["orders"] == [[0]]
        code, output = run_cli(["profile", str(program), "--data", str(data)])
        assert code == 0
        assert "order [0, 1] [1, 0]" in output
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(["run", str(program), "--data", str(data),
                           "--trace-out", str(trace)])
        assert code == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        recursive = [e for e in events
                     if e["kind"] == "rule" and e["rule_index"] == 1]
        assert len(recursive) == 6
        assert all(e["orders"] == [[0, 1], [1, 0]] for e in recursive)

    def test_human_table(self, tc_files):
        program, data = tc_files
        code, output = run_cli(["profile", program, "--data", data])
        assert code == 0
        assert "engine: seminaive" in output
        assert "rank" in output and "firings" in output
        assert "T(x, y) :- G(x, z), T(z, y)." in output
        assert "join" in output  # per-literal selectivity sub-lines

    def test_top_limits_rows(self, tc_files):
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data,
             "--format", "json", "--top", "1"]
        )
        assert code == 0
        assert len(json.loads(output)["rules"]) == 1

    def test_sort_by_firings(self, tc_files):
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data,
             "--format", "json", "--sort", "firings"]
        )
        assert code == 0
        report = json.loads(output)
        assert report["sort"] == "firings"
        firings = [r["firings"] for r in report["rules"]]
        assert firings == sorted(firings, reverse=True)

    def test_auto_resolves_dialect(self, tc_files):
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        assert json.loads(output)["engine"] == "seminaive"

    def test_auto_rejects_nondeterministic_dialect(self, tmp_path):
        program = tmp_path / "n.dl"
        program.write_text("A(x), B(x) :- S(x).\n")
        code, _ = run_cli(["profile", str(program)])
        assert code == 2


class TestRunTraceOut:
    def test_writes_versioned_jsonl(self, tc_files, tmp_path):
        program, data = tc_files
        trace_path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            ["run", program, "--data", data, "--trace-out", str(trace_path)]
        )
        assert code == 0
        assert "T (6 tuples):" in output  # run output is unaffected
        lines = trace_path.read_text().strip().split("\n")
        kinds = []
        for line in lines:
            event = json.loads(line)
            assert event["version"] == TRACE_SCHEMA_VERSION
            kinds.append(event["kind"])
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "run_end"
        assert "rule" in kinds and "stage" in kinds
        # --trace-out implies fact payloads on stage events.
        stage = next(json.loads(line) for line in lines
                     if json.loads(line)["kind"] == "stage")
        assert "new_facts" in stage

    def test_trace_out_wellfounded(self, tmp_path):
        program = tmp_path / "win.dl"
        program.write_text("win(x) :- moves(x, y), not win(y).\n")
        data = tmp_path / "m.dl"
        data.write_text("moves('a','b'). moves('b','a'). moves('b','c').\n")
        trace_path = tmp_path / "wf.jsonl"
        code, _ = run_cli(
            ["run", str(program), "--data", str(data),
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        lines = trace_path.read_text().strip().split("\n")
        assert json.loads(lines[0])["engine"] == "wellfounded"


class TestStatsJson:
    def test_pinned_schema(self, tc_files):
        program, data = tc_files
        code, output = run_cli(
            ["stats", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        stats = json.loads(output)  # the auto notice must not pollute stdout
        assert stats["version"] == STATS_SCHEMA_VERSION
        assert set(stats) == {
            "version", "engine", "matcher", "seconds", "stage_count",
            "rule_firings", "consequence_calls", "adom_size",
            "index_builds", "index_updates", "index_drops", "planner",
            "differential", "stages",
        }
        assert stats["engine"] == "seminaive"
        # Which matcher produced the instantiations (untraced runs take
        # the production path) and the query planner's report.
        assert stats["matcher"] == "columnar"
        assert stats["planner"] is not None
        assert {"plan_lookups", "plan_hits", "replans", "rules",
                "index_cover", "scheduled_components"} <= set(stats["planner"])
        # From-scratch engines never set the differential counters.
        assert stats["differential"] is None
        assert stats["stage_count"] == len(stats["stages"])
        for stage in stats["stages"]:
            assert set(stage) == {
                "stage", "seconds", "firings", "added", "removed",
                "index_builds", "index_updates", "index_drops",
            }
        assert stats["rule_firings"] == sum(
            s["firings"] for s in stats["stages"]
        )

    def test_golden_counters(self, tc_files):
        """Golden values for linear TC on a 3-edge chain: pinned so the
        JSON schema *and* the counting semantics stay stable."""
        program, data = tc_files
        code, output = run_cli(
            ["stats", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        stats = json.loads(output)
        assert stats["version"] == 4
        assert stats["stage_count"] == 4
        assert stats["rule_firings"] == 6
        assert stats["adom_size"] == 4
        assert [s["added"] for s in stats["stages"]] == [3, 2, 1, 0]

    def test_planner_report_has_no_prior_fields(self, tc_files):
        """Schema 3: the planner report dropped its prior and adaptive
        fields, and no variant carries a per-literal ``sources`` map."""
        program, data = tc_files
        code, output = run_cli(
            ["stats", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        stats = json.loads(output)
        assert stats["version"] == 4
        planner = stats["planner"]
        assert set(planner) == {
            "plan_lookups", "plan_hits", "replans", "rules",
            "index_cover", "scheduled_components",
        }
        variants = [
            variant
            for entry in planner["rules"].values()
            for key, variant in entry.items()
            if key != "actual_rows"
        ]
        assert variants
        assert all("sources" not in variant for variant in variants)

    def test_human_format_unchanged(self, tc_files):
        program, data = tc_files
        code, output = run_cli(["stats", program, "--data", data])
        assert code == 0
        assert "engine:            seminaive" in output
        assert not output.lstrip().startswith("{")
