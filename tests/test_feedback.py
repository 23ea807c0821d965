"""Observability surfaces around the planner's live report.

* ``repro profile``: production kernels stay on (through their
  counting twins), join orders and per-literal counts ride the rule
  spans, and a nondeterministic dialect is refused with its witness
  feature;
* ``repro watch --stats-out``: one counters line per update;
* trace events serialize the planner's join order only when present.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs import RuleEvent

TC_SOURCE = "T(x, y) :- E(x, y).\nT(x, z) :- E(x, y), T(y, z).\n"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- the CLI surface ---------------------------------------------------------


@pytest.fixture
def tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text(TC_SOURCE)
    data = tmp_path / "graph.dl"
    data.write_text("E('a', 'b').\nE('b', 'c').\nE('c', 'd').\n")
    return str(program), str(data)


class TestProfilePlannedCLI:
    def test_planned_profile_keeps_the_kernel_on(self, tc_files):
        program, data = tc_files
        code, output = run_cli(
            ["profile", program, "--data", data, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(output)
        # Tracing keeps the full matcher stack on, and says so.
        assert doc["matcher"] == "columnar"
        # Every rule ran, so every row carries the join orders its
        # spans ran under and one count per positive body literal.
        # Rule 1's full pass reads an empty T and never runs; its delta
        # variant on T runs T first.
        rows = {row["rule_index"]: row for row in doc["rules"]}
        assert rows[0]["orders"] == [[0]]
        assert rows[1]["orders"] == [[1, 0]]
        assert [lp["literal"] for lp in rows[1]["literals"]] == [
            "E(x, y)", "T(y, z)",
        ]

    def test_nondeterministic_rejection_names_the_feature(
        self, tmp_path, capsys
    ):
        program = tmp_path / "n.dl"
        program.write_text("A(x), B(x) :- S(x).\n")
        code, _ = run_cli(["profile", str(program)])
        assert code == 2
        err = capsys.readouterr().err
        assert "nondeterministic" in err
        assert "multiple-heads" in err
        assert "2 head literals" in err
        assert "rule 0 at 1:" in err


class TestWatchStatsOut:
    def test_appends_one_line_per_update(
        self, tc_files, tmp_path, monkeypatch
    ):
        program, data = tc_files
        out_path = tmp_path / "counters.jsonl"
        stream = json.dumps({"insert": {"E": [["d", "e"]]}}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        code, _ = run_cli(
            ["watch", program, "--data", data,
             "--stats-out", str(out_path)]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert [line["seq"] for line in lines] == [0, 1]
        assert lines[0]["differential"]["updates"] == 0
        assert lines[1]["differential"]["updates"] == 1
        assert lines[1]["differential"]["facts_touched"] > 0


# -- trace events carry the planner's order ----------------------------------


class TestOrderOnEvents:
    def test_order_serializes_only_when_present(self):
        bare = RuleEvent(
            rule_index=0, rule="A(x) :- B(x).", span=None, stage=1,
            seconds=0.0, firings=1, emitted=1, deduplicated=0,
        )
        assert "orders" not in bare.to_dict()
        planned = RuleEvent(
            rule_index=0, rule="A(x) :- B(x).", span=None, stage=1,
            seconds=0.0, firings=1, emitted=1, deduplicated=0,
            orders=((1, 0), (0, 1)),
        )
        assert planned.to_dict()["orders"] == [[1, 0], [0, 1]]
