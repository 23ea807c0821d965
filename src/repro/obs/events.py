"""The trace event model: spans + counters.

The paper's procedural semantics make evaluation inspectable by
construction — every stage of a forward-chaining fixpoint is a concrete
database — and the tracing layer turns that inspectability into a
uniform event stream.  Four event kinds cover every engine:

* ``run_begin`` / ``run_end`` — one evaluation, bracketed;
* ``stage`` — one closed consequence pass (a *stage span*): wall
  seconds, firings, facts added/removed, index work, and (optionally)
  the facts themselves;
* ``rule`` — one rule evaluated within a stage (a *rule span*): wall
  seconds, firings, tuples emitted, tuples deduplicated, the join
  order it ran under, and the per-literal join statistics
  (:class:`LiteralProfile`) that expose join selectivity.

Every event serializes with :meth:`to_dict` under the pinned
``TRACE_SCHEMA_VERSION``; the JSONL sink writes one event per line, the
same schema-versioning discipline as ``repro lint --format json``.

Rule spans have one definition, whichever engine runs:

* a span exists for each rule the pass visits — on a planned pass, each
  rule at least one of whose variants runs (a variant that reads an
  empty relation is skipped, and a delta pass visits only the rules
  that read the delta); engines that match every rule every stage
  (choice, invention, nondeterministic) open one per rule per stage;
* ``firings`` counts the body instantiations, ``emitted`` the head
  instantiations they make;
* ``deduplicated`` counts the emitted heads that added nothing to the
  pass's output: already derived in the pass (by this or another
  rule) or, when the caller is an add-only fixpoint or the engine adds
  each head to the database at once, already in the database;
* ``literals`` holds one entry per positive body literal, in body
  order, with the candidates and matches the traced kernels counted
  for it, summed over the variants the span ran (none for a span no
  counting kernel ran, such as a ∀ rule's); ``orders`` lists each
  distinct join order its variants ran under, in first-seen order (a
  delta pass over two occurrences of one relation runs two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.span import Span

#: Version of the on-the-wire trace event schema (JSONL lines, profile
#: reports).  Bump on any field rename/removal; additions are allowed.
#: Version 2: a rule event lists every join order its span ran
#: (``orders``) where version 1 gave the last one (``order``).
TRACE_SCHEMA_VERSION = 2

Fact = tuple[str, tuple]


@dataclass(frozen=True)
class LiteralProfile:
    """Join statistics for one positive body literal of one rule span.

    ``candidates`` counts tuples the join considered for this literal
    (after index lookup); ``matches`` counts the ones that extended the
    valuation consistently.  ``matches / candidates`` is the literal's
    selectivity — a literal with many candidates and few matches is a
    missing-index or bad-join-order smell.
    """

    literal: str
    candidates: int
    matches: int

    @property
    def selectivity(self) -> float:
        """matches / candidates; 1.0 for a literal that saw no candidates."""
        return self.matches / self.candidates if self.candidates else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "literal": self.literal,
            "candidates": self.candidates,
            "matches": self.matches,
        }


@dataclass(frozen=True)
class RunBeginEvent:
    """The opening bracket of one engine run."""

    kind: ClassVar[str] = "run_begin"
    engine: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "kind": self.kind,
            "engine": self.engine,
        }


@dataclass(frozen=True)
class StageEvent:
    """One closed consequence pass (stage span).

    ``new_facts`` / ``removed_facts`` carry the actual facts only when
    the tracer was built with ``include_facts=True`` (the ``repro
    trace`` path); they are ``None`` otherwise so that profiling runs
    stay cheap.
    """

    kind: ClassVar[str] = "stage"
    stage: int
    seconds: float
    firings: int
    added: int
    removed: int
    index_builds: int
    index_updates: int
    new_facts: tuple[Fact, ...] | None = None
    removed_facts: tuple[Fact, ...] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "version": TRACE_SCHEMA_VERSION,
            "kind": self.kind,
            "stage": self.stage,
            "seconds": self.seconds,
            "firings": self.firings,
            "added": self.added,
            "removed": self.removed,
            "index_builds": self.index_builds,
            "index_updates": self.index_updates,
        }
        if self.new_facts is not None:
            out["new_facts"] = [[rel, list(t)] for rel, t in self.new_facts]
        if self.removed_facts is not None:
            out["removed_facts"] = [
                [rel, list(t)] for rel, t in self.removed_facts
            ]
        return out


@dataclass(frozen=True)
class RuleEvent:
    """One rule span: a rule evaluated within one consequence pass.

    ``span`` is the rule's source span when the program was parsed from
    text (None for programmatically built rules), so downstream
    renderers can point at real source lines.
    """

    kind: ClassVar[str] = "rule"
    stage: int
    rule_index: int
    rule: str
    span: Span | None
    seconds: float
    firings: int
    emitted: int
    deduplicated: int
    literals: tuple[LiteralProfile, ...] = ()
    #: Each distinct join order (positive body indices) the span's
    #: variants ran under, in first-seen order; empty when no planned
    #: matcher ran, and then not serialized.
    orders: tuple[tuple[int, ...], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out = {
            "version": TRACE_SCHEMA_VERSION,
            "kind": self.kind,
            "stage": self.stage,
            "rule_index": self.rule_index,
            "rule": self.rule,
            "span": self.span.to_dict() if self.span is not None else None,
            "seconds": self.seconds,
            "firings": self.firings,
            "emitted": self.emitted,
            "deduplicated": self.deduplicated,
            "literals": [lp.to_dict() for lp in self.literals],
        }
        if self.orders:
            out["orders"] = [list(order) for order in self.orders]
        return out


@dataclass(frozen=True)
class RunEndEvent:
    """The closing bracket of one engine run, with whole-run totals."""

    kind: ClassVar[str] = "run_end"
    engine: str
    seconds: float
    stages: int
    rule_firings: int
    adom_size: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "kind": self.kind,
            "engine": self.engine,
            "seconds": self.seconds,
            "stages": self.stages,
            "rule_firings": self.rule_firings,
            "adom_size": self.adom_size,
        }


TraceEvent = RunBeginEvent | StageEvent | RuleEvent | RunEndEvent
