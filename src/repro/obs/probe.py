"""The join probe: per-literal candidate/match counting.

:func:`repro.semantics.base.reference_matches` evaluates a rule body as
a backtracking join over its positive literals.  A :class:`JoinProbe`
slots into that join (via the ``probe`` parameter) and counts, for each
literal of the chosen join order, how many candidate tuples the index
lookup produced and how many of them extended the valuation
consistently.  The ratio is the literal's *selectivity* — the number
profiling surfaces to answer "which literal of the hot rule is doing
all the work".

The probe reuses the reference matcher's own candidate-lookup logic
(:func:`~repro.semantics.base._literal_candidates`), so the counted
join is byte-for-byte the join that matcher runs — and, under the same
join order, the matches production enumerates.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.ast.rules import Lit
from repro.obs.events import LiteralProfile
from repro.relational.instance import Database
from repro.semantics.base import _extend_valuation, _literal_candidates
from repro.terms import Var


class JoinProbe:
    """Accumulates per-literal join counts for one rule span.

    Counts are keyed by the literal's position in the join order the
    engine chose (which may differ from source order); the literal's
    own text is recorded alongside, so consumers never need to reverse
    the join ordering.
    """

    __slots__ = ("labels", "candidates", "matches")

    def __init__(self) -> None:
        self.labels: dict[int, str] = {}
        self.candidates: dict[int, int] = {}
        self.matches: dict[int, int] = {}

    def iter_matches(
        self,
        idx: int,
        lit: Lit,
        db: Database,
        valuation: dict[Var, Hashable],
        restricted: frozenset[tuple] | None,
    ) -> Iterator[dict[Var, Hashable]]:
        """One literal's join step in the reference matcher, counted."""
        candidates, free = _literal_candidates(lit, db, valuation, restricted)
        if idx not in self.labels:
            self.labels[idx] = repr(lit)
            self.candidates[idx] = 0
            self.matches[idx] = 0
        self.candidates[idx] += len(candidates)
        for extended in _extend_valuation(candidates, free, valuation):
            self.matches[idx] += 1
            yield extended

    def profiles(self) -> tuple[LiteralProfile, ...]:
        """The accumulated counts, in join order."""
        return tuple(
            LiteralProfile(
                literal=self.labels[idx],
                candidates=self.candidates[idx],
                matches=self.matches[idx],
            )
            for idx in sorted(self.labels)
        )
