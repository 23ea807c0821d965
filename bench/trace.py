"""Per-layer tracing of the program from outside it.

:class:`Trace` wraps the public functions of each ``repro`` layer named
in :data:`TARGETS` for the duration of :meth:`Trace.installed`.  A
module-level function is replaced at *every* binding: the defining
module and each ``repro.*`` module that imported it by name with
``from … import f``.  A method is replaced on its class.  A target that
no longer exists raises :class:`TraceTargetError`, so a rename in the
program cannot read as a layer that costs nothing.

Each wrapped call is a span.  Spans nest on a stack; a span's *self*
time is its duration minus the time of the spans it encloses.  Spans
and counters aggregate in memory per span name, into the current
*phase* (``"setup"`` or ``"op"``), which the harness switches.  A call
that returns a generator is timed across its resumptions too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import GeneratorType


class TraceTargetError(RuntimeError):
    """A function the trace wraps is missing from the program."""


def _kernel_emit(trace, fn, args, kwargs):
    """``RulePlan.run_emit``: firings, and new facts in its output set."""
    out = args[8] if len(args) > 8 else kwargs["out"]
    before = len(out)
    fired = fn(*args, **kwargs)
    counts = trace.counts
    counts["plan.kernel_firings"] += fired
    counts["plan.emit_firings"] += fired
    counts["plan.emit_derived"] += len(out) - before
    return fired


def _counted(rows, counts, key):
    for row in rows:
        counts[key] += 1
        yield row


def _kernel_rows(trace, fn, args, kwargs):
    """``RulePlan.run_rows``: one firing per slot row."""
    rows = fn(*args, **kwargs)
    if isinstance(rows, list):
        trace.counts["plan.kernel_firings"] += len(rows)
        return rows
    return _counted(rows, trace.counts, "plan.kernel_firings")


def _compile(trace, fn, args, kwargs):
    compiled = fn(*args, **kwargs)
    trace.counts["codegen.source_bytes"] += len(compiled.source)
    return compiled


def _add_batch(trace, fn, args, kwargs):
    fresh = fn(*args, **kwargs)
    trace.counts["instance.add_batch_rows"] += len(args[1])
    trace.counts["instance.add_batch_fresh"] += len(fresh)
    return fresh


#: (span name, module, attribute path, observer or None).  Two targets
#: may share a span name; their calls and times add up.
TARGETS = (
    ("parser.parse", "repro.parser.parser", "parse_program", None),
    ("analysis.infer_dialect", "repro.ast.analysis", "infer_dialect", None),
    ("planner.consequences", "repro.semantics.planner", "consequences", None),
    ("planner.chain_cover", "repro.semantics.planner",
     "minimum_chain_cover", None),
    ("planner.apply_cover", "repro.semantics.planner", "apply_cover", None),
    ("planner.scheduled_fixpoint", "repro.semantics.planner",
     "scheduled_fixpoint", None),
    ("plan.plan_for", "repro.semantics.plan", "plan_for", None),
    ("plan.kernel", "repro.semantics.plan", "RulePlan.run_emit",
     _kernel_emit),
    ("plan.kernel", "repro.semantics.plan", "RulePlan.run_rows",
     _kernel_rows),
    ("plan.make_delta", "repro.semantics.plan", "make_delta", None),
    ("codegen.compile", "repro.semantics.codegen", "compile_plan", _compile),
    ("base.immediate_consequences", "repro.semantics.base",
     "immediate_consequences", None),
    ("base.evaluation_adom", "repro.semantics.base", "evaluation_adom", None),
    ("instance.add_batch", "repro.relational.instance",
     "Relation.add_batch", _add_batch),
    ("instance.add_fact", "repro.relational.instance",
     "Database.add_fact", None),
    ("instance.copy", "repro.relational.instance", "Database.copy", None),
    ("instance.active_domain", "repro.relational.instance",
     "Database.active_domain", None),
    ("instance.discard", "repro.relational.instance",
     "Relation.discard", None),
    ("differential.apply", "repro.semantics.differential",
     "DifferentialEngine.apply", None),
)

#: Spans that run while a workload sets up; reported per set-up.
SETUP_SPANS = ("parser.parse", "analysis.infer_dialect")

#: Per-layer metrics read off the span aggregates: (metric, span,
#: field), field being ``calls`` or the ``total``/``self`` seconds.
SPAN_METRICS = (
    ("parser.parse_s", "parser.parse", "total"),
    ("analysis.infer_dialect_s", "analysis.infer_dialect", "total"),
    ("planner.consequences_calls", "planner.consequences", "calls"),
    ("planner.consequences_self_s", "planner.consequences", "self"),
    ("planner.chain_cover_calls", "planner.chain_cover", "calls"),
    ("planner.chain_cover_s", "planner.chain_cover", "total"),
    ("planner.apply_cover_s", "planner.apply_cover", "total"),
    ("planner.scheduled_fixpoint_calls", "planner.scheduled_fixpoint",
     "calls"),
    ("plan.plan_for_calls", "plan.plan_for", "calls"),
    ("plan.plan_for_s", "plan.plan_for", "total"),
    ("plan.kernel_calls", "plan.kernel", "calls"),
    ("plan.kernel_self_s", "plan.kernel", "self"),
    ("plan.make_delta_s", "plan.make_delta", "total"),
    ("codegen.compile_calls", "codegen.compile", "calls"),
    ("codegen.compile_s", "codegen.compile", "total"),
    ("base.immediate_consequences_calls", "base.immediate_consequences",
     "calls"),
    ("base.immediate_consequences_self_s", "base.immediate_consequences",
     "self"),
    ("base.evaluation_adom_s", "base.evaluation_adom", "total"),
    ("instance.add_batch_calls", "instance.add_batch", "calls"),
    ("instance.add_batch_s", "instance.add_batch", "total"),
    ("instance.add_fact_calls", "instance.add_fact", "calls"),
    ("instance.add_fact_s", "instance.add_fact", "total"),
    ("instance.copy_calls", "instance.copy", "calls"),
    ("instance.copy_s", "instance.copy", "total"),
    ("instance.active_domain_calls", "instance.active_domain", "calls"),
    ("instance.active_domain_s", "instance.active_domain", "total"),
    ("instance.discard_calls", "instance.discard", "calls"),
    ("instance.discard_s", "instance.discard", "total"),
    ("differential.apply_calls", "differential.apply", "calls"),
    ("differential.apply_self_s", "differential.apply", "self"),
)

_FIELDS = {"calls": 0, "total": 1, "self": 2}


class _Phase:
    __slots__ = ("spans", "counts")

    def __init__(self):
        #: span name → [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()


def _resolve(module: str, path: str):
    """(owner, attribute, original) of one target; raises when gone."""
    try:
        owner = importlib.import_module(module)
        *outer, attribute = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError):
        raise TraceTargetError(
            f"trace target {module}.{path} no longer exists; "
            f"update TARGETS in bench/trace.py"
        ) from None
    if not callable(original):
        raise TraceTargetError(f"trace target {module}.{path} is not callable")
    return owner, attribute, original


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Trace:
    """Span and counter aggregates over the wrapped layers."""

    def __init__(self):
        self.phases = {"setup": _Phase(), "op": _Phase()}
        self._phase = self.phases["op"]
        self._stack: list[float] = []

    @property
    def counts(self) -> Counter:
        return self._phase.counts

    def phase(self, name: str) -> None:
        """Attribute the following spans and counts to phase ``name``."""
        self._phase = self.phases[name]

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched: list[tuple[object, str, object]] = []
        #: id(wrapper) → (wrapper, original); holding the wrapper keeps
        #: its id from being reused by another object.
        wrappers: dict[int, tuple[object, object]] = {}
        try:
            for span, module, path, observe in TARGETS:
                owner, attribute, original = _resolve(module, path)
                wrapper = self._wrap(span, original, observe)
                wrappers[id(wrapper)] = (wrapper, original)
                bindings = [(owner, attribute)]
                if not isinstance(owner, type):
                    bindings = [
                        (mod, name)
                        for mod in _program_modules()
                        for name, value in list(vars(mod).items())
                        if value is original
                    ]
                for target, name in bindings:
                    patched.append((target, name, original))
                    setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(patched):
                setattr(target, name, original)
            # A module first imported while tracing bound a wrapper.
            for mod in _program_modules():
                for name, value in list(vars(mod).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, name, entry[1])

    def _wrap(self, span: str, fn, observe):
        trace = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                if observe is None:
                    result = fn(*args, **kwargs)
                else:
                    result = observe(trace, fn, args, kwargs)
            finally:
                trace._close(span, start, stack.pop(), 1)
            if type(result) is GeneratorType:
                return trace._resumed(span, result)
            return result

        return wrapper

    def _resumed(self, span: str, generator):
        """Re-yield ``generator``, timing each resumption as ``span``."""
        stack = self._stack
        while True:
            stack.append(0.0)
            start = perf_counter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(span, start, stack.pop(), 0)
            yield item

    def _close(self, span: str, start: float, child: float, calls: int):
        elapsed = perf_counter() - start
        spans = self._phase.spans
        record = spans.get(span)
        if record is None:
            record = spans[span] = [0, 0.0, 0.0]
        record[0] += calls
        record[1] += elapsed
        record[2] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def metrics(self, setups: int, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: set-up spans per set-up, the rest per op.

        Returns ``{metric: (value, unit)}`` for :data:`SPAN_METRICS`
        plus the counter-derived kernel, codegen and instance metrics.
        """
        out: dict[str, tuple[float, str]] = {}
        for metric, span, field in SPAN_METRICS:
            if span in SETUP_SPANS:
                phase, per = self.phases["setup"], setups
            else:
                phase, per = self.phases["op"], ops
            record = phase.spans.get(span, (0, 0.0, 0.0))
            unit = "count" if field == "calls" else "s"
            out[metric] = (record[_FIELDS[field]] / max(per, 1), unit)
        counts = self.phases["op"].counts
        per = max(ops, 1)
        out["plan.kernel_firings"] = (counts["plan.kernel_firings"] / per,
                                      "count")
        out["plan.derived_per_firing"] = (
            _ratio(counts["plan.emit_derived"], counts["plan.emit_firings"]),
            "ratio",
        )
        out["codegen.source_bytes"] = (counts["codegen.source_bytes"] / per,
                                       "bytes")
        out["instance.add_batch_rows"] = (
            counts["instance.add_batch_rows"] / per, "count"
        )
        out["instance.add_batch_fresh_ratio"] = (
            _ratio(counts["instance.add_batch_fresh"],
                   counts["instance.add_batch_rows"]),
            "ratio",
        )
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
