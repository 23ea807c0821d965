"""Always-on run metrics: the harvest side of the feedback loop.

The planner keeps counters-only metrics on every untraced run already —
per-rule actual rows, per-variant estimates, join orders, and stage
wall time all land in ``EngineStats`` (and its per-run ``planner`` report)
with no ``JoinProbe`` and no reference-matcher detour, so collecting them
costs nothing beyond the bookkeeping the engines do anyway.  This
module distills one finished run into a :class:`RunMetrics` snapshot —
the unit the persistent stats store (:mod:`repro.obs.store`) records
and the planner later consumes as measured priors.

The key discipline: a snapshot is tied to the *text* of the program via
:func:`program_content_hash`, so stats recorded for one program can
never warm a different one — editing a rule changes the hash and the
store simply comes up cold (see DESIGN.md "The stats store").

The semantics layer never imports this module; harvesting reads the
``EngineStats`` the engines already produced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.ast.program import Program
from repro.relational.instance import Database

#: Version of the RunMetrics dict shape (nested inside the stats-store
#: artifact).  Bump on any field rename/removal; additions are allowed.
METRICS_SCHEMA_VERSION = 1


def program_content_hash(program: Program) -> str:
    """A stable content hash for a program's rules.

    Hashes the canonical rule representations (``repr`` round-trips the
    concrete syntax), so two parses of the same text — or the same
    rules built programmatically — agree, while any rule edit produces
    a fresh key.  Program *names* and source file paths deliberately do
    not participate: stats survive renaming a file, not editing a rule.
    """
    payload = "\n".join(repr(rule) for rule in program.rules)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunMetrics:
    """One run's measured statistics, keyed for the stats store.

    ``relations`` holds final relation sizes (the measured
    cardinalities the planner feeds back as priors); ``rules`` maps
    rule id → adornment (``"full"`` / ``"delta@<occ>"``) → the
    planner's recorded ``order`` / ``estimated_rows`` / ``actual_rows``
    for that variant, plus a per-rule ``"actual_rows"`` total.
    """

    program_hash: str
    engine: str
    matcher: str
    seconds: float
    relations: dict[str, int] = field(default_factory=dict)
    rules: dict[str, dict[str, Any]] = field(default_factory=dict)
    stage_seconds: list[float] = field(default_factory=list)

    @classmethod
    def from_run(
        cls,
        program: Program,
        stats,
        db: Database | None = None,
    ) -> "RunMetrics":
        """Harvest a finished run.

        ``stats`` is the run's :class:`~repro.semantics.base.EngineStats`
        (or anything duck-typed like it); ``db`` the evaluated database
        whose relation sizes become the measured cardinalities.  Runs
        without a planner report (fully traced runs, which match
        through the reference matcher) still harvest relation sizes and
        stage timings — the parts any run can measure.
        """
        relations: dict[str, int] = {}
        if db is not None:
            for name in db.relation_names():
                rel = db.relation(name)
                if rel is not None and len(rel) > 0:
                    relations[name] = len(rel)
        rules: dict[str, dict[str, Any]] = {}
        planner = getattr(stats, "planner", None)
        if planner:
            for rule_id, entry in planner.get("rules", {}).items():
                harvested: dict[str, Any] = {}
                if "actual_rows" in entry:
                    harvested["actual_rows"] = entry["actual_rows"]
                adornments: dict[str, Any] = {}
                for variant, decision in entry.items():
                    if variant == "actual_rows":
                        continue
                    adornments[variant] = {
                        key: decision[key]
                        for key in (
                            "order", "estimated_rows", "actual_rows",
                            "sources",
                        )
                        if key in decision
                    }
                if adornments:
                    harvested["adornments"] = adornments
                if harvested:
                    rules[rule_id] = harvested
        return cls(
            program_hash=program_content_hash(program),
            engine=getattr(stats, "engine", "unknown"),
            matcher=getattr(stats, "matcher", "unknown"),
            seconds=float(getattr(stats, "seconds", 0.0)),
            relations=relations,
            rules=rules,
            stage_seconds=[
                s.seconds for s in getattr(stats, "stages", [])
            ],
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": METRICS_SCHEMA_VERSION,
            "program_hash": self.program_hash,
            "engine": self.engine,
            "matcher": self.matcher,
            "seconds": self.seconds,
            "relations": {
                name: self.relations[name] for name in sorted(self.relations)
            },
            "rules": {
                rule_id: self.rules[rule_id]
                for rule_id in sorted(self.rules, key=_rule_sort_key)
            },
            "stage_seconds": list(self.stage_seconds),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetrics":
        return cls(
            program_hash=data["program_hash"],
            engine=data.get("engine", "unknown"),
            matcher=data.get("matcher", "unknown"),
            seconds=float(data.get("seconds", 0.0)),
            relations=dict(data.get("relations", {})),
            rules=dict(data.get("rules", {})),
            stage_seconds=list(data.get("stage_seconds", [])),
        )


def _rule_sort_key(rule_id: str):
    """Numeric rule ids sort numerically, anything else after, stably."""
    return (0, int(rule_id), rule_id) if rule_id.isdigit() else (1, 0, rule_id)
