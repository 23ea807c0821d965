"""Pluggable sinks for the trace event stream.

Two sinks cover the intended uses:

* :class:`CollectorSink` — in-memory list of events, for programmatic
  analysis and for building :class:`~repro.obs.profile.ProfileReport`s;
* :class:`JsonlSink` — schema-versioned JSON Lines (one event per
  line, each line carrying ``"version"`` and ``"kind"``), the durable
  machine-readable artifact (``repro run --trace-out``).

A sink is anything with ``emit(event)`` and optionally ``close()``.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.events import RuleEvent, RunEndEvent, StageEvent, TraceEvent


class CollectorSink:
    """Collects every event in memory, in emission order."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def rule_events(self) -> list[RuleEvent]:
        return [e for e in self.events if isinstance(e, RuleEvent)]

    def stage_events(self) -> list[StageEvent]:
        return [e for e in self.events if isinstance(e, StageEvent)]

    def run_end(self) -> RunEndEvent | None:
        for event in reversed(self.events):
            if isinstance(event, RunEndEvent):
                return event
        return None


class JsonlSink:
    """Writes each event as one JSON line to a path or open stream.

    Values that are not JSON-serializable (e.g. invented ν-values)
    degrade to their ``repr``; keys are sorted so the output is
    byte-stable for identical runs.
    """

    def __init__(self, destination: str | IO[str]):
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False

    def emit(self, event: TraceEvent) -> None:
        line = json.dumps(event.to_dict(), default=repr, sort_keys=True)
        self._handle.write(line + "\n")

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()
