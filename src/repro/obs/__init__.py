"""Observability: structured tracing and profiling for every engine.

The paper's procedural semantics make evaluation *inspectable by
construction* — every stage of the forward-chaining fixpoint is a
concrete database.  This package turns that inspectability into a
uniform, machine-readable event stream shared by all ten engine
drivers:

* :mod:`repro.obs.events` — the event model: run brackets, stage spans,
  rule spans with firings / tuples emitted / tuples deduplicated, and
  per-literal join statistics (``TRACE_SCHEMA_VERSION``-pinned);
* :mod:`repro.obs.tracer` — :class:`Tracer` (fans events to sinks),
  :class:`RuleSpan` (into which the traced kernels count each
  literal's candidates and matches) and the zero-overhead
  :class:`NullTracer` default;
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": (
        "TRACE_SCHEMA_VERSION", "LiteralProfile", "RuleEvent", "RunBeginEvent",
        "RunEndEvent", "StageEvent", "TraceEvent",
    ),
    ".profile": (
        "PROFILE_SCHEMA_VERSION", "SORT_KEYS", "ProfileReport",
        "RuleProfileRow",
    ),
    ".sinks": ("CollectorSink", "JsonlSink"),
    ".tracer": ("NULL_TRACER", "NullTracer", "RuleSpan", "Tracer"),
})
