"""Machine-readable benchmark artifacts of the ``benchmarks/`` suite.

The benchmark suite under ``benchmarks/`` asserts *shapes* (who wins,
what scales how); this module gives it a durable, machine-readable
output so the performance trajectory of the repository can be tracked
across commits.  Each benchmark that exercises an engine records one
:class:`BenchRecord` — engine name, workload size, wall seconds, rule
firings, stage count — through the ``bench_artifact`` fixture in
``benchmarks/conftest.py``, and the session writes a single
deterministic JSON document at exit (``BENCH_engines.json``).

``BENCH_differential.json`` is the incremental-maintenance ablation:
each :class:`DifferentialRecord` measures one (benchmark, mode, size)
cell, where the mode is ``"differential"`` (a single-edge update
propagated through :class:`~repro.semantics.differential
.DifferentialEngine`) or ``"scratch"`` (the same update answered by
re-running semi-naive evaluation from scratch), recorded through the
``differential_artifact`` fixture.

``BENCH_magic.json`` is the magic-set ablation: each
:class:`MagicRecord` measures one bound query answered with and without
demand restriction, recorded through the ``magic_artifact`` fixture.

``BENCH_feedback.json`` is the feedback-directed planning ablation:
each :class:`FeedbackRecord` measures one (benchmark, stats mode,
size) cell, where the mode is ``"cold"`` (first run, no persisted
statistics) or ``"warmed"`` (planner seeded from the stats store a
previous run saved — see :mod:`repro.obs.store`), recorded through the
``feedback_artifact`` fixture.

All the schemas are pinned: the ``validate_*_artifact`` functions
raise :class:`ValueError` on any drift, and CI runs them against the
artifacts it uploads, so a schema change must be deliberate (bump
``BENCH_SCHEMA_VERSION`` / ``DIFFERENTIAL_SCHEMA_VERSION`` /
``MAGIC_SCHEMA_VERSION`` / ``FEEDBACK_SCHEMA_VERSION``) rather than
accidental.  The artifacts
share one shape — ``{"version": V, "benchmarks": [records]}`` with a
fixed per-record key set — so validation is one generic walk,
:func:`_validate_artifact`, parameterized per artifact; each public
``validate_*`` is a thin wrapper pinning that artifact's version,
fields, types, and enum-valued fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

# -- shared artifact machinery ------------------------------------------------


def _artifact_dict(records: list, version: int, variant: str) -> dict[str, Any]:
    """The artifact document: schema-versioned, deterministically ordered.

    Records sort by (benchmark, ``variant`` field, size) — the variant
    is whichever field names the ablation cell (engine, matcher,
    planner, mode).
    """
    ordered = sorted(
        records, key=lambda r: (r.benchmark, getattr(r, variant), r.size)
    )
    return {
        "version": version,
        "benchmarks": [record.to_dict() for record in ordered],
    }


def _write_artifact(document: dict[str, Any], path: str) -> None:
    """Write one artifact document (sorted keys, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate_artifact(
    data: Any,
    *,
    label: str,
    version: int,
    fields: tuple,
    types: dict,
    enums: dict,
    factory,
) -> list:
    """Check one artifact document against its pinned schema.

    Returns the parsed records (built via ``factory(**entry)``); raises
    :class:`ValueError` on drift — wrong version, missing/extra keys,
    wrong types, or a value outside an ``enums`` field's allowed set.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{label} artifact must be a JSON object")
    if data.get("version") != version:
        raise ValueError(
            f"{label} artifact version {data.get('version')!r} != {version}"
        )
    extra_top = set(data) - {"version", "benchmarks"}
    if extra_top:
        raise ValueError(f"unexpected top-level keys: {sorted(extra_top)}")
    entries = data.get("benchmarks")
    if not isinstance(entries, list):
        raise ValueError(f"{label} artifact 'benchmarks' must be a list")
    records = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"record {position} is not an object")
        if set(entry) != set(fields):
            raise ValueError(
                f"record {position} keys {sorted(entry)} != {sorted(fields)}"
            )
        for key, expected in types.items():
            if not isinstance(entry[key], expected):
                raise ValueError(
                    f"record {position} field {key!r} has type "
                    f"{type(entry[key]).__name__}"
                )
        for key, allowed in enums.items():
            if entry[key] not in allowed:
                quoted = [repr(value) for value in allowed]
                phrase = " or ".join(
                    [", ".join(quoted[:-1]), quoted[-1]]
                    if len(quoted) > 2
                    else quoted
                )
                raise ValueError(
                    f"record {position} {key} {entry[key]!r} is not {phrase}"
                )
        records.append(factory(**entry))
    return records


# -- BENCH_engines.json: cross-engine scaling ---------------------------------

#: Version of the BENCH_engines.json schema.
BENCH_SCHEMA_VERSION = 1

#: Exact key set of one record; drift in either direction is an error.
RECORD_FIELDS = (
    "benchmark",
    "engine",
    "size",
    "seconds",
    "rule_firings",
    "stages",
)


@dataclass(frozen=True)
class BenchRecord:
    """One (benchmark, engine, workload size) measurement."""

    benchmark: str
    engine: str
    size: int
    seconds: float
    rule_firings: int
    stages: int

    @classmethod
    def from_stats(
        cls, benchmark: str, engine: str, size: int, stats
    ) -> "BenchRecord":
        """Build a record from an :class:`~repro.semantics.EngineStats`."""
        return cls(
            benchmark=benchmark,
            engine=engine,
            size=size,
            seconds=stats.seconds,
            rule_firings=stats.rule_firings,
            stages=stats.stage_count,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "engine": self.engine,
            "size": self.size,
            "seconds": self.seconds,
            "rule_firings": self.rule_firings,
            "stages": self.stages,
        }


def bench_artifact_dict(records: list[BenchRecord]) -> dict[str, Any]:
    """The artifact document: schema-versioned, deterministically ordered."""
    return _artifact_dict(records, BENCH_SCHEMA_VERSION, "engine")


def write_bench_artifact(records: list[BenchRecord], path: str) -> None:
    """Write ``BENCH_engines.json`` (sorted records, sorted keys)."""
    _write_artifact(bench_artifact_dict(records), path)


def validate_bench_artifact(data: Any) -> list[BenchRecord]:
    """Check an artifact document against the pinned schema.

    Returns the parsed records; raises :class:`ValueError` on drift
    (wrong version, missing/extra keys, wrong types).
    """
    return _validate_artifact(
        data,
        label="bench",
        version=BENCH_SCHEMA_VERSION,
        fields=RECORD_FIELDS,
        types={
            "benchmark": str,
            "engine": str,
            "size": int,
            "seconds": (int, float),
            "rule_firings": int,
            "stages": int,
        },
        enums={},
        factory=BenchRecord,
    )


def load_bench_artifact(path: str) -> list[BenchRecord]:
    """Read and validate an artifact file; raises ValueError on drift."""
    with open(path) as handle:
        return validate_bench_artifact(json.load(handle))


# -- BENCH_differential.json: incremental-maintenance ablation ----------------

#: Version of the BENCH_differential.json schema (same regime as
#: :data:`BENCH_SCHEMA_VERSION`).
DIFFERENTIAL_SCHEMA_VERSION = 1

#: Exact key set of one differential record.
DIFFERENTIAL_RECORD_FIELDS = (
    "benchmark",
    "mode",
    "size",
    "seconds",
    "facts_touched",
)


@dataclass(frozen=True)
class DifferentialRecord:
    """One (benchmark, update mode, workload size) measurement.

    ``mode`` is ``"differential"`` (the update propagated through the
    maintained view — per-SCC DRed/counting with delta-restricted
    rederivation) or ``"scratch"`` (the same base change answered by a
    full semi-naive re-evaluation).  ``seconds`` is the best observed
    latency of one update; ``facts_touched`` is the engine's count of
    facts examined for that update (for ``"scratch"``, the size of the
    recomputed view — the work a from-scratch answer cannot avoid).
    """

    benchmark: str
    mode: str
    size: int
    seconds: float
    facts_touched: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "size": self.size,
            "seconds": self.seconds,
            "facts_touched": self.facts_touched,
        }


def differential_artifact_dict(
    records: list[DifferentialRecord],
) -> dict[str, Any]:
    """The artifact document: schema-versioned, deterministically ordered."""
    return _artifact_dict(records, DIFFERENTIAL_SCHEMA_VERSION, "mode")


def write_differential_artifact(
    records: list[DifferentialRecord], path: str
) -> None:
    """Write ``BENCH_differential.json`` (sorted records, sorted keys)."""
    _write_artifact(differential_artifact_dict(records), path)


def validate_differential_artifact(data: Any) -> list[DifferentialRecord]:
    """Check a differential artifact document against the pinned schema.

    Returns the parsed records; raises :class:`ValueError` on drift
    (wrong version, missing/extra keys, wrong types, unknown mode).
    """
    return _validate_artifact(
        data,
        label="differential",
        version=DIFFERENTIAL_SCHEMA_VERSION,
        fields=DIFFERENTIAL_RECORD_FIELDS,
        types={
            "benchmark": str,
            "mode": str,
            "size": int,
            "seconds": (int, float),
            "facts_touched": int,
        },
        enums={"mode": ("differential", "scratch")},
        factory=DifferentialRecord,
    )


def load_differential_artifact(path: str) -> list[DifferentialRecord]:
    """Read and validate a differential artifact file; raises on drift."""
    with open(path) as handle:
        return validate_differential_artifact(json.load(handle))


# -- BENCH_magic.json: magic-set demand vs full evaluation --------------------

#: Version of the BENCH_magic.json schema (same regime as
#: :data:`BENCH_SCHEMA_VERSION`).
MAGIC_SCHEMA_VERSION = 1

#: Exact key set of one magic record.
MAGIC_RECORD_FIELDS = (
    "benchmark",
    "mode",
    "size",
    "seconds",
    "facts_derived",
)


@dataclass(frozen=True)
class MagicRecord:
    """One (benchmark, evaluation mode, workload size) measurement.

    ``mode`` is ``"magic"`` (the bound query answered by the magic-set
    rewrite of :mod:`repro.semantics.magic`, evaluated semi-naively) or
    ``"full"`` (the same query answered by evaluating the untransformed
    program to its full minimum model).  ``seconds`` is the best
    observed latency of one query; ``facts_derived`` counts the idb
    tuples materialized to answer it — the demand cone for ``"magic"``,
    the whole model for ``"full"`` — which is the relevance claim the
    acceptance gate checks (≥5× fewer on single-source reachability).
    """

    benchmark: str
    mode: str
    size: int
    seconds: float
    facts_derived: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "size": self.size,
            "seconds": self.seconds,
            "facts_derived": self.facts_derived,
        }


def magic_artifact_dict(records: list[MagicRecord]) -> dict[str, Any]:
    """The artifact document: schema-versioned, deterministically ordered."""
    return _artifact_dict(records, MAGIC_SCHEMA_VERSION, "mode")


def write_magic_artifact(records: list[MagicRecord], path: str) -> None:
    """Write ``BENCH_magic.json`` (sorted records, sorted keys)."""
    _write_artifact(magic_artifact_dict(records), path)


def validate_magic_artifact(data: Any) -> list[MagicRecord]:
    """Check a magic artifact document against the pinned schema.

    Returns the parsed records; raises :class:`ValueError` on drift
    (wrong version, missing/extra keys, wrong types, unknown mode).
    """
    return _validate_artifact(
        data,
        label="magic",
        version=MAGIC_SCHEMA_VERSION,
        fields=MAGIC_RECORD_FIELDS,
        types={
            "benchmark": str,
            "mode": str,
            "size": int,
            "seconds": (int, float),
            "facts_derived": int,
        },
        enums={"mode": ("magic", "full")},
        factory=MagicRecord,
    )


def load_magic_artifact(path: str) -> list[MagicRecord]:
    """Read and validate a magic artifact file; raises on drift."""
    with open(path) as handle:
        return validate_magic_artifact(json.load(handle))


# -- BENCH_feedback.json: stats-warmed vs stats-cold planning -----------------

#: Version of the BENCH_feedback.json schema (same regime as
#: :data:`BENCH_SCHEMA_VERSION`).
FEEDBACK_SCHEMA_VERSION = 1

#: Exact key set of one feedback record.
FEEDBACK_RECORD_FIELDS = (
    "benchmark",
    "mode",
    "size",
    "seconds",
    "adaptive_replans",
)


@dataclass(frozen=True)
class FeedbackRecord:
    """One (benchmark, stats mode, workload size) measurement.

    ``mode`` is ``"cold"`` (first run, planner falls back to static
    priors for cold relations) or ``"warmed"`` (planner seeded with the
    measured cardinalities a previous run persisted to the stats
    store).  ``seconds`` is the best observed engine wall time;
    ``adaptive_replans`` counts the mid-run estimate-vs-actual
    divergences the planner acted on — the cold run pays for its blind
    first-stage order and then replans, the warmed run should barely
    need to.
    """

    benchmark: str
    mode: str
    size: int
    seconds: float
    adaptive_replans: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "size": self.size,
            "seconds": self.seconds,
            "adaptive_replans": self.adaptive_replans,
        }


def feedback_artifact_dict(records: list[FeedbackRecord]) -> dict[str, Any]:
    """The artifact document: schema-versioned, deterministically ordered."""
    return _artifact_dict(records, FEEDBACK_SCHEMA_VERSION, "mode")


def write_feedback_artifact(records: list[FeedbackRecord], path: str) -> None:
    """Write ``BENCH_feedback.json`` (sorted records, sorted keys)."""
    _write_artifact(feedback_artifact_dict(records), path)


def validate_feedback_artifact(data: Any) -> list[FeedbackRecord]:
    """Check a feedback artifact document against the pinned schema.

    Returns the parsed records; raises :class:`ValueError` on drift
    (wrong version, missing/extra keys, wrong types, unknown mode).
    """
    return _validate_artifact(
        data,
        label="feedback",
        version=FEEDBACK_SCHEMA_VERSION,
        fields=FEEDBACK_RECORD_FIELDS,
        types={
            "benchmark": str,
            "mode": str,
            "size": int,
            "seconds": (int, float),
            "adaptive_replans": int,
        },
        enums={"mode": ("cold", "warmed")},
        factory=FeedbackRecord,
    )


def load_feedback_artifact(path: str) -> list[FeedbackRecord]:
    """Read and validate a feedback artifact file; raises on drift."""
    with open(path) as handle:
        return validate_feedback_artifact(json.load(handle))
