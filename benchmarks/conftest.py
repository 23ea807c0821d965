"""Shared helpers for the benchmark suite.

Every module regenerates one experiment from DESIGN.md's index; the
assertions inside the benchmarks check the *shape* the paper predicts
(who wins, what scales how), not absolute numbers.

Benchmarks that evaluate an engine additionally record one
:class:`~repro.obs.bench.BenchRecord` each through the
``bench_artifact`` fixture; when any were recorded, the session writes
the schema-pinned ``BENCH_engines.json`` artifact on exit (path
overridable via ``REPRO_BENCH_ARTIFACT``) so the performance
trajectory is machine-readable across commits.

The incremental-maintenance ablation (``test_differential_ablation.py``)
records :class:`~repro.obs.bench.DifferentialRecord` measurements
through the ``differential_artifact`` fixture; those land in the
schema-pinned ``BENCH_differential.json`` (path overridable via
``REPRO_DIFFERENTIAL_ARTIFACT``).

The magic-set ablation (``test_magic_ablation.py``) records
:class:`~repro.obs.bench.MagicRecord` measurements through the
``magic_artifact`` fixture; those land in the schema-pinned
``BENCH_magic.json`` (path overridable via ``REPRO_MAGIC_ARTIFACT``).

The feedback-directed ablation (``test_feedback_ablation.py``) records
:class:`~repro.obs.bench.FeedbackRecord` measurements through the
``feedback_artifact`` fixture; those land in the schema-pinned
``BENCH_feedback.json`` (path overridable via
``REPRO_FEEDBACK_ARTIFACT``).
"""

from __future__ import annotations

import os

import pytest

_RECORDS = []
_DIFFERENTIAL_RECORDS = []
_MAGIC_RECORDS = []
_FEEDBACK_RECORDS = []

#: Artifact registry: (records list, writer name in repro.obs.bench,
#: path env-var override, default path).  ``pytest_sessionfinish``
#: walks this instead of copy-pasted per-artifact blocks; a new
#: artifact is one more row plus its fixture.
_ARTIFACTS = (
    (_RECORDS, "write_bench_artifact",
     "REPRO_BENCH_ARTIFACT", "BENCH_engines.json"),
    (_DIFFERENTIAL_RECORDS, "write_differential_artifact",
     "REPRO_DIFFERENTIAL_ARTIFACT", "BENCH_differential.json"),
    (_MAGIC_RECORDS, "write_magic_artifact",
     "REPRO_MAGIC_ARTIFACT", "BENCH_magic.json"),
    (_FEEDBACK_RECORDS, "write_feedback_artifact",
     "REPRO_FEEDBACK_ARTIFACT", "BENCH_feedback.json"),
)


class _BenchArtifact:
    """The ``bench_artifact`` fixture's API: ``record(...)`` one run."""

    @staticmethod
    def record(benchmark: str, engine: str, size: int, stats) -> None:
        from repro.obs.bench import BenchRecord

        _RECORDS.append(BenchRecord.from_stats(benchmark, engine, size, stats))


@pytest.fixture
def bench_artifact():
    """Collects (benchmark, engine, size, EngineStats) measurements."""
    return _BenchArtifact


class _DifferentialArtifact:
    """The ``differential_artifact`` fixture: ``record(...)`` one cell."""

    @staticmethod
    def record(
        benchmark: str, mode: str, size: int, seconds: float,
        facts_touched: int,
    ) -> None:
        from repro.obs.bench import DifferentialRecord

        _DIFFERENTIAL_RECORDS.append(
            DifferentialRecord(
                benchmark=benchmark,
                mode=mode,
                size=size,
                seconds=seconds,
                facts_touched=facts_touched,
            )
        )


@pytest.fixture
def differential_artifact():
    """Collects (benchmark, differential/scratch, size) latency cells."""
    return _DifferentialArtifact


class _MagicArtifact:
    """The ``magic_artifact`` fixture: ``record(...)`` one cell."""

    @staticmethod
    def record(
        benchmark: str, mode: str, size: int, seconds: float,
        facts_derived: int,
    ) -> None:
        from repro.obs.bench import MagicRecord

        _MAGIC_RECORDS.append(
            MagicRecord(
                benchmark=benchmark,
                mode=mode,
                size=size,
                seconds=seconds,
                facts_derived=facts_derived,
            )
        )


@pytest.fixture
def magic_artifact():
    """Collects (benchmark, magic/full, size) query-latency cells."""
    return _MagicArtifact


class _FeedbackArtifact:
    """The ``feedback_artifact`` fixture: ``record(...)`` one cell."""

    @staticmethod
    def record(
        benchmark: str, mode: str, size: int, seconds: float,
        adaptive_replans: int,
    ) -> None:
        from repro.obs.bench import FeedbackRecord

        _FEEDBACK_RECORDS.append(
            FeedbackRecord(
                benchmark=benchmark,
                mode=mode,
                size=size,
                seconds=seconds,
                adaptive_replans=adaptive_replans,
            )
        )


@pytest.fixture
def feedback_artifact():
    """Collects (benchmark, cold/warmed, size) planning-loop cells."""
    return _FeedbackArtifact


def pytest_sessionfinish(session, exitstatus):
    from repro.obs import bench

    for records, writer, env_var, default in _ARTIFACTS:
        if records:
            getattr(bench, writer)(records, os.environ.get(env_var, default))


def pytest_collection_modifyitems(items):
    """Keep benchmark output ordered by experiment id (file order)."""
    items.sort(key=lambda item: item.nodeid)
