"""Observability: structured tracing and profiling for every engine.

The paper's procedural semantics make evaluation *inspectable by
construction* — every stage of the forward-chaining fixpoint is a
concrete database.  This package turns that inspectability into a
uniform, machine-readable event stream shared by all ten engine
drivers:

* :mod:`repro.obs.events` — the event model: run brackets, stage spans,
  rule spans with firings / tuples emitted / tuples deduplicated, and
  per-literal join statistics (``TRACE_SCHEMA_VERSION``-pinned);
* :mod:`repro.obs.tracer` — :class:`Tracer` (fans events to sinks) and
  the zero-overhead :class:`NullTracer` default;
* :mod:`repro.obs.probe` — :class:`JoinProbe`, the per-literal
  candidate/match counter that rides inside the reference matcher;
* :mod:`repro.obs.sinks` — in-memory collector and JSONL writer;
* :mod:`repro.obs.profile` — :class:`ProfileReport`, the per-rule
  aggregation behind ``repro profile``.

Quickstart::

    from repro.obs import CollectorSink, ProfileReport, Tracer

    collector = CollectorSink()
    result = evaluate_datalog_seminaive(program, db,
                                        tracer=Tracer([collector]))
    report = ProfileReport.from_events(collector.events, program=program)
    print(report.render(top=5))
"""

from repro.obs.events import (
    TRACE_SCHEMA_VERSION,
    LiteralProfile,
    RuleEvent,
    RunBeginEvent,
    RunEndEvent,
    StageEvent,
    TraceEvent,
)
from repro.obs.probe import JoinProbe
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    SORT_KEYS,
    ProfileReport,
    RuleProfileRow,
)
from repro.obs.sinks import CollectorSink, JsonlSink
from repro.obs.tracer import NULL_TRACER, NullTracer, RuleSpan, Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "LiteralProfile",
    "RuleEvent",
    "RunBeginEvent",
    "RunEndEvent",
    "StageEvent",
    "TraceEvent",
    "JoinProbe",
    "PROFILE_SCHEMA_VERSION",
    "SORT_KEYS",
    "ProfileReport",
    "RuleProfileRow",
    "CollectorSink",
    "JsonlSink",
    "NULL_TRACER",
    "NullTracer",
    "RuleSpan",
    "Tracer",
]
