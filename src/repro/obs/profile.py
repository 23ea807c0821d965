"""Hot-rule profiles: aggregate rule spans into a per-rule report.

The profiling counterpart of ``repro stats``: where stats answer "how
did the run go", a profile answers "which rule is the hot spot, and
why".  A :class:`ProfileReport` is built from a collected event stream
(:class:`~repro.obs.sinks.CollectorSink`), aggregates every rule span
of the run per rule, and renders either the human hot-rule table or a
schema-versioned JSON document (``repro profile --format human|json``).

Rows point at real source lines: each carries the rule's
:class:`~repro.span.Span` and, when the program was parsed from text,
the source line itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.ast.program import Program
from repro.obs.events import (
    TRACE_SCHEMA_VERSION,
    LiteralProfile,
    RuleEvent,
    RunBeginEvent,
    RunEndEvent,
    StageEvent,
)
from repro.span import Span

#: Version of the ``repro profile --format json`` schema (same regime
#: as the trace schema: bump on rename/removal, additions allowed).
PROFILE_SCHEMA_VERSION = TRACE_SCHEMA_VERSION

#: Legal ``--sort`` keys and the row attribute each orders by.
SORT_KEYS = {"time": "seconds", "firings": "firings", "tuples": "emitted"}


@dataclass
class RuleProfileRow:
    """Whole-run aggregate for one rule."""

    rule_index: int
    rule: str
    span: Span | None = None
    source_line: str | None = None
    calls: int = 0
    seconds: float = 0.0
    firings: int = 0
    emitted: int = 0
    deduplicated: int = 0
    literals: list[LiteralProfile] = field(default_factory=list)
    #: Distinct join orders this rule's spans ran under, in first-seen
    #: order (empty when no span carried one).
    orders: list[list[int]] = field(default_factory=list)

    def merge_event(self, event: RuleEvent) -> None:
        self.calls += 1
        self.seconds += event.seconds
        self.firings += event.firings
        self.emitted += event.emitted
        self.deduplicated += event.deduplicated
        for order in map(list, event.orders):
            if order not in self.orders:
                self.orders.append(order)
        merged = {lp.literal: [lp.candidates, lp.matches] for lp in self.literals}
        order = [lp.literal for lp in self.literals]
        for lp in event.literals:
            if lp.literal in merged:
                merged[lp.literal][0] += lp.candidates
                merged[lp.literal][1] += lp.matches
            else:
                merged[lp.literal] = [lp.candidates, lp.matches]
                order.append(lp.literal)
        self.literals = [
            LiteralProfile(literal=name, candidates=merged[name][0],
                           matches=merged[name][1])
            for name in order
        ]

    def to_dict(self) -> dict[str, Any]:
        out = {
            "rule_index": self.rule_index,
            "rule": self.rule,
            "span": self.span.to_dict() if self.span is not None else None,
            "source_line": self.source_line,
            "calls": self.calls,
            "seconds": self.seconds,
            "firings": self.firings,
            "emitted": self.emitted,
            "deduplicated": self.deduplicated,
            "literals": [lp.to_dict() for lp in self.literals],
        }
        if self.orders:
            # Additive under the pinned schema: present once a span
            # carried an order.
            out["orders"] = [list(order) for order in self.orders]
        return out


@dataclass
class ProfileReport:
    """Per-rule hot-spot report for one engine run."""

    engine: str = ""
    #: Matcher of the profiled run: ``"columnar"``, as for ``repro
    #: stats`` — a traced run runs the production kernels' counting
    #: twins.
    matcher: str = ""
    seconds: float = 0.0
    stages: int = 0
    rule_firings: int = 0
    rows: list[RuleProfileRow] = field(default_factory=list)
    #: The static query-planner report for the profiled program against
    #: the input database (``repro.semantics.planner.explain`` shape:
    #: join orders with estimated rows, the shared index cover, and the
    #: SCC schedule), or None when the planner does not handle the
    #: program.  Attached by the CLI so one profile answers both "where
    #: did the time go" and "what would the planner do here".
    planner: dict | None = None

    @classmethod
    def from_events(
        cls,
        events,
        program: Program | None = None,
        engine: str | None = None,
        source_text: str | None = None,
    ) -> "ProfileReport":
        """Aggregate a collected event stream into a report.

        ``program``, when given, seeds one row per source rule (so
        rules that never fired still appear, with zero counters) and
        supplies the source text for line quoting.  Rule spans whose
        rule text is not in the program (e.g. the transformed rules the
        well-founded engine evaluates) get their own rows, keyed by
        text, with their original source spans intact.
        """
        if source_text is None and program is not None:
            source_text = program.source_text
        report = cls()
        by_rule: dict[str, RuleProfileRow] = {}
        if program is not None:
            for index, rule in enumerate(program.rules):
                row = RuleProfileRow(
                    rule_index=index, rule=repr(rule), span=rule.span
                )
                by_rule[row.rule] = row
                report.rows.append(row)
        for event in events:
            if isinstance(event, RunBeginEvent):
                if not report.engine:
                    report.engine = event.engine
            elif isinstance(event, RunEndEvent):
                report.seconds = event.seconds
                report.stages = event.stages
                report.rule_firings = event.rule_firings
            elif isinstance(event, StageEvent):
                report.stages = max(report.stages, event.stage)
            elif isinstance(event, RuleEvent):
                row = by_rule.get(event.rule)
                if row is None:
                    row = RuleProfileRow(
                        rule_index=event.rule_index,
                        rule=event.rule,
                        span=event.span,
                    )
                    by_rule[event.rule] = row
                    report.rows.append(row)
                row.merge_event(event)
        if engine is not None:
            report.engine = engine
        if source_text is not None:
            for row in report.rows:
                if row.span is not None and row.source_line is None:
                    row.source_line = row.span.source_line(source_text)
        return report

    def sorted_rows(self, sort: str = "time") -> list[RuleProfileRow]:
        """Rows ordered hottest-first by the given key (stable on ties)."""
        try:
            attribute = SORT_KEYS[sort]
        except KeyError:
            raise ValueError(
                f"unknown sort key {sort!r}; choose from "
                f"{', '.join(sorted(SORT_KEYS))}"
            ) from None
        return sorted(
            self.rows,
            key=lambda row: (-getattr(row, attribute), row.rule_index),
        )

    def to_dict(self, sort: str = "time", top: int | None = None) -> dict[str, Any]:
        rows = self.sorted_rows(sort)
        if top is not None:
            rows = rows[:top]
        return {
            "version": PROFILE_SCHEMA_VERSION,
            "engine": self.engine,
            "matcher": self.matcher,
            "seconds": self.seconds,
            "stages": self.stages,
            "rule_firings": self.rule_firings,
            "sort": sort,
            "rules": [row.to_dict() for row in rows],
            "planner": self.planner,
        }

    def to_json(self, sort: str = "time", top: int | None = None,
                indent: int | None = 2) -> str:
        return json.dumps(
            self.to_dict(sort=sort, top=top), indent=indent, default=repr
        )

    def render(self, top: int | None = 10, sort: str = "time") -> str:
        """The human hot-rule table."""
        lines = [
            f"engine: {self.engine or '(unknown)'}   "
            f"matcher: {self.matcher or '(unknown)'}   "
            f"wall time: {self.seconds:.6f} s   "
            f"stages: {self.stages}   firings: {self.rule_firings}"
        ]
        rows = self.sorted_rows(sort)
        if top is not None:
            rows = rows[:top]
        if not rows:
            lines.append("(no rule spans recorded)")
            return "\n".join(lines)
        headers = ("rank", "seconds", "calls", "firings", "emitted",
                   "deduped", "span", "rule")
        table = [
            (
                str(rank), f"{row.seconds:.6f}", str(row.calls),
                str(row.firings), str(row.emitted), str(row.deduplicated),
                str(row.span) if row.span is not None else "-",
                row.rule,
            )
            for rank, row in enumerate(rows, start=1)
        ]
        widths = [
            max(len(header), max(len(entry[i]) for entry in table))
            for i, header in enumerate(headers[:-1])
        ]
        lines.append(
            "  ".join(h.rjust(w) for h, w in zip(headers[:-1], widths))
            + "  " + headers[-1]
        )
        for entry, row in zip(table, rows):
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(entry[:-1], widths))
                + "  " + entry[-1]
            )
            if row.literals:
                joins = " ; ".join(
                    f"{lp.literal}: {lp.matches}/{lp.candidates} "
                    f"({100.0 * lp.selectivity:.1f}%)"
                    for lp in row.literals
                )
                lines.append(" " * (sum(widths) + 2 * len(widths)) + f"join {joins}")
            if row.orders:
                orders = " ".join(str(order) for order in row.orders)
                lines.append(" " * (sum(widths) + 2 * len(widths))
                             + f"order {orders}")
        return "\n".join(lines)
