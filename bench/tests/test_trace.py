"""The outside-in tracer: answers unchanged, bindings restored, and a
missing target refused."""

from __future__ import annotations

import sys

import pytest

from bench import trace as trace_module
from bench import worker
from bench.trace import TARGETS, Trace, TraceTargetError
from bench.workloads import WORKLOADS


def _bindings():
    """Every repro.* module attribute and class method the trace wraps."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                seen[(name, attr)] = value
    return seen


@pytest.mark.parametrize("name", [n for n in WORKLOADS if n != "tc_watch"])
def test_traced_answers_equal_untraced_answers(name):
    case = WORKLOADS[name](seed=4, scale="small")
    *_, plain = worker.evaluate(case)
    trace = Trace()
    with trace.installed():
        *_, traced = worker.evaluate(case, trace)
    assert traced == plain == case.reference()
    spans = trace.phases["op"].spans
    assert spans["plan.kernel"][0] > 0
    assert trace.phases["setup"].spans["parser.parse"][0] == 1


def test_traced_stream_matches_the_oracle():
    case = WORKLOADS["tc_watch"](seed=4, scale="small")
    trace = Trace()
    with trace.installed():
        _, engine = worker.construct(case)
        engine.apply(next(case.updates()))
    assert trace.phases["op"].spans["differential.apply"][0] == 1


def test_install_wraps_imported_names_and_restores_them():
    from repro.semantics import base, planner, seminaive

    before = _bindings()
    original = planner.plan_for
    with Trace().installed():
        # ``from repro.semantics.plan import plan_for`` call sites too.
        assert planner.plan_for is not original
        assert base.plan_for is planner.plan_for
        assert seminaive.evaluation_adom is base.evaluation_adom
    assert _bindings() == before


def test_a_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        trace_module, "TARGETS",
        TARGETS + (("x.gone", "repro.semantics.plan", "no_such_fn", None),),
    )
    from repro.semantics import planner

    original = planner.consequences
    with pytest.raises(TraceTargetError, match="no_such_fn"):
        with Trace().installed():
            pass
    assert planner.consequences is original


def test_self_time_excludes_nested_spans():
    trace = Trace()

    def inner():
        return sum(range(20000))

    wrapped_inner = trace._wrap("inner", inner, None)

    def outer():
        return wrapped_inner() + wrapped_inner()

    trace._wrap("outer", outer, None)()
    spans = trace.phases["op"].spans
    calls, total, own = spans["outer"]
    assert (calls, spans["inner"][0]) == (1, 2)
    assert own == pytest.approx(total - spans["inner"][1])
    assert 0 <= own < total


def test_generator_resumptions_count_toward_the_span():
    trace = Trace()

    def rows():
        for i in range(3):
            sum(range(10000))
            yield i

    assert list(trace._wrap("rows", rows, None)()) == [0, 1, 2]
    calls, total, own = trace.phases["op"].spans["rows"]
    assert calls == 1 and total == own and total > 0
