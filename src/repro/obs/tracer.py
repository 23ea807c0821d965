"""Tracers: the object engines talk to while they run.

A :class:`Tracer` fans events out to its sinks; engines receive it as
an optional ``tracer=`` argument and consult only two things: the
``enabled`` flag (hot paths bail out on a single test) and the event
hooks (``run_begin`` / ``stage`` / ``rule_span`` / ``run_end``).  The
:class:`NullTracer` is the zero-overhead default: ``enabled`` is False,
so every engine collapses it to ``None`` at entry and the evaluation
hot loops run the exact uninstrumented code path.

The semantics layer never imports this module — tracers are duck-typed
there — so observability stays a pure add-on layer above the engines.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.obs.events import (
    LiteralProfile, RuleEvent, RunBeginEvent, RunEndEvent, StageEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ast.rules import Rule
    from repro.semantics.base import EngineStats, StageStats, StageTrace


class RuleSpan:
    """An open rule span: one rule being evaluated in one pass.

    Engines bump ``firings`` / ``emitted`` / ``deduplicated`` while the
    rule runs, hand the span to the matcher (the planner's traced
    kernels, or ``iter_matches``), which books each join order it runs
    (:meth:`ran`) and adds its per-literal counts into :meth:`tally`,
    and call :meth:`close` when the rule's work in this pass is done.
    Engines whose bookkeeping continues after matching (the choice
    engine commits firings in a separate shuffled pass) call
    :meth:`stop` first to freeze the clock at end-of-matching.
    """

    __slots__ = (
        "tracer", "rule_index", "rule", "counts",
        "firings", "emitted", "deduplicated", "orders", "_t0", "_seconds",
    )

    def __init__(self, tracer: "Tracer", rule_index: int, rule: "Rule"):
        self.tracer = tracer
        self.rule_index = rule_index
        self.rule = rule
        #: See :meth:`tally`; ``None`` while no counting kernel ran.
        self.counts: list[int] | None = None
        self.firings = 0
        self.emitted = 0
        self.deduplicated = 0
        #: Each distinct join order (positive body indices) the span's
        #: variants ran under, in first-seen order.
        self.orders: list[tuple[int, ...]] = []
        self._t0 = perf_counter()
        self._seconds: float | None = None

    def tally(self) -> list[int]:
        """The counts the traced kernels add into, made on first use:
        positive body literal ``i``'s candidates at ``2i``, its matches
        at ``2i + 1``."""
        if self.counts is None:
            self.counts = [0] * (2 * len(self.rule.positive_body()))
        return self.counts

    def ran(self, order: tuple[int, ...]) -> None:
        """Book one variant's join order (each distinct order once)."""
        if order not in self.orders:
            self.orders.append(order)

    def stop(self) -> None:
        """Freeze the span's clock without emitting it yet."""
        if self._seconds is None:
            self._seconds = perf_counter() - self._t0

    def close(self) -> None:
        """Emit the finished rule span to the tracer."""
        self.stop()
        counts = self.counts
        literals = () if counts is None else tuple(
            LiteralProfile(repr(lit), counts[2 * i], counts[2 * i + 1])
            for i, lit in enumerate(self.rule.positive_body())
        )
        self.tracer.emit(
            RuleEvent(
                stage=self.tracer.current_stage,
                rule_index=self.rule_index,
                rule=repr(self.rule),
                span=self.rule.span,
                seconds=self._seconds or 0.0,
                firings=self.firings,
                emitted=self.emitted,
                deduplicated=self.deduplicated,
                literals=literals,
                orders=tuple(self.orders),
            )
        )


class Tracer:
    """Forwards engine events to pluggable sinks.

    ``include_facts=True`` makes stage spans carry the actual facts
    added/removed (used by ``repro trace``); the default keeps stage
    spans to counters only.

    A traced run is the untraced run observed: the engines keep their
    stage structure and the planner its decisions, and only the kernels
    a pass calls change, to the counting twins of the scalar ones.
    """

    enabled = True

    def __init__(self, sinks=(), include_facts: bool = False):
        self.sinks = list(sinks)
        self.include_facts = include_facts
        #: Stage number rule spans opened now will be attributed to;
        #: tracks the engine's own stage labels via the stage events.
        self.current_stage = 1

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def emit(self, event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- engine-facing hooks --------------------------------------------------

    def run_begin(self, engine: str) -> None:
        self.current_stage = 1
        self.emit(RunBeginEvent(engine=engine))

    def rule_span(self, rule_index: int, rule: "Rule") -> RuleSpan:
        """Open a rule span; the engine closes it when the rule is done."""
        return RuleSpan(self, rule_index, rule)

    def stage(self, record: "StageStats", trace: "StageTrace | None" = None) -> None:
        """One consequence pass closed (called by ``StatsRecorder``)."""
        new_facts = removed_facts = None
        if self.include_facts and trace is not None:
            new_facts = tuple(trace.new_facts)
            removed_facts = tuple(trace.removed_facts)
        self.emit(
            StageEvent(
                stage=record.stage,
                seconds=record.seconds,
                firings=record.firings,
                added=record.added,
                removed=record.removed,
                index_builds=record.index_builds,
                index_updates=record.index_updates,
                new_facts=new_facts,
                removed_facts=removed_facts,
            )
        )
        self.current_stage = record.stage + 1

    def run_end(self, stats: "EngineStats") -> None:
        self.emit(
            RunEndEvent(
                engine=stats.engine,
                seconds=stats.seconds,
                stages=stats.stage_count,
                rule_firings=stats.rule_firings,
                adom_size=stats.adom_size,
            )
        )

    def close(self) -> None:
        """Close every sink that has a close method (e.g. JSONL files)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class NullTracer(Tracer):
    """The do-nothing default tracer.

    ``enabled`` is False, so engines collapse it to ``None`` on entry
    and never call any hook; even if one is called directly, nothing is
    emitted.  Keeping it a real object (rather than ``None``) gives
    callers a uniform API to pass around.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(())

    def emit(self, event) -> None:  # noqa: ARG002 - deliberately inert
        pass


#: Shared inert tracer instance.
NULL_TRACER = NullTracer()
