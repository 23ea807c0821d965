"""Tests for the ``repro watch`` subcommand (JSONL diff streaming)."""

import io
import json

import pytest

from repro.cli import main


@pytest.fixture
def tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text(
        "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n"
    )
    data = tmp_path / "graph.dl"
    data.write_text("G('a', 'b').\nG('b', 'c').\n")
    return str(program), str(data)


def run_watch(argv, stdin_text, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    out = io.StringIO()
    code = main(argv, out=out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, lines


def test_snapshot_then_diffs(tc_files, monkeypatch):
    program, data = tc_files
    stream = "\n".join(
        [
            json.dumps({"insert": {"G": [["c", "d"]]}}),
            json.dumps({"delete": {"G": [["a", "b"]]}}),
        ]
    )
    code, lines = run_watch(
        ["watch", program, "--data", data], stream, monkeypatch
    )
    assert code == 0
    snapshot, first, second = lines
    assert snapshot["seq"] == 0
    assert ["a", "c"] in snapshot["inserted"]["T"]
    assert snapshot["deleted"] == {}
    assert first["seq"] == 1
    assert sorted(first["inserted"]["T"]) == [
        ["a", "d"],
        ["b", "d"],
        ["c", "d"],
    ]
    assert second["seq"] == 2
    assert sorted(second["deleted"]["T"]) == [
        ["a", "b"],
        ["a", "c"],
        ["a", "d"],
    ]


def test_relation_filter(tc_files, monkeypatch):
    program, data = tc_files
    stream = json.dumps({"insert": {"G": [["c", "d"]]}})
    code, lines = run_watch(
        ["watch", program, "--data", data, "--relations", "T"],
        stream,
        monkeypatch,
    )
    assert code == 0
    assert all(set(line["inserted"]) <= {"T"} for line in lines)


def test_bad_lines_keep_stream_alive(tc_files, monkeypatch):
    program, data = tc_files
    stream = "\n".join(
        [
            "not json",
            json.dumps({"insert": {"T": [["x", "y"]]}}),  # IDB: rejected
            json.dumps({"bogus": {}}),
            json.dumps({"insert": {"G": [["c", "d"]]}}),
        ]
    )
    code, lines = run_watch(
        ["watch", program, "--data", data], stream, monkeypatch
    )
    assert code == 0
    snapshot, *rest = lines
    assert [("error" in line) for line in rest] == [True, True, True, False]
    assert ["c", "d"] in rest[3]["inserted"]["T"]
    # An atomic reject leaves the view untouched: T(x,y) never appears.
    assert all(
        ["x", "y"] not in line.get("inserted", {}).get("T", [])
        for line in lines
    )


def test_nested_values_yield_error_line_and_stream_continues(
    tc_files, monkeypatch
):
    program, data = tc_files
    stream = "\n".join(
        [
            json.dumps({"delete": {"G": [["a", "b"], [["x"], "y"]]}}),
            json.dumps({"insert": {"G": [["c", {"k": 1}]]}}),
            json.dumps({"insert": {"G": [["c", "d"]]}}),
        ]
    )
    code, lines = run_watch(
        ["watch", program, "--data", data], stream, monkeypatch
    )
    assert code == 0
    snapshot, nested_list, nested_object, applied = lines
    assert nested_list["seq"] == 1 and "error" in nested_list
    assert nested_object["seq"] == 2 and "error" in nested_object
    assert applied["seq"] == 3
    # G(a, b) survived the rejected batch, so a reaches the new d.
    assert sorted(applied["inserted"]["T"]) == [
        ["a", "d"],
        ["b", "d"],
        ["c", "d"],
    ]


def test_stats_say_why_adom_size_is_zero(tc_files, monkeypatch, capsys):
    program, data = tc_files
    stream = json.dumps({"insert": {"G": [["c", "d"]]}})
    code, _lines = run_watch(
        ["watch", program, "--data", data, "--stats"], stream, monkeypatch
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "adom size:         0" in err
    assert "never enumerates an active domain" in err


def test_empty_stream_prints_snapshot_only(tc_files, monkeypatch):
    program, data = tc_files
    code, lines = run_watch(
        ["watch", program, "--data", data], "", monkeypatch
    )
    assert code == 0
    assert len(lines) == 1 and lines[0]["seq"] == 0


def test_watch_requires_datalog_dialect(tmp_path, monkeypatch):
    program = tmp_path / "neg.dl"
    program.write_text("p(x) :- q(x), not r(x).\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    out = io.StringIO()
    code = main(["watch", str(program)], out=out)
    assert code != 0
