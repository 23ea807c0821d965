"""Relation and database instances.

A :class:`Relation` is a finite set of constant tuples of fixed arity; a
:class:`Database` maps relation names to relations (the paper's
*instance over a database schema*).  Both are mutable — the forward
chaining engines grow and shrink them — but expose cheap snapshots
(:meth:`Database.canonical`) used for equality tests and for the cycle
detection that powers nontermination checks in Datalog¬¬.

Besides its tuple set a relation keeps one kind of index: the *chain*
(trie) index (:meth:`Relation.chain_index`), a nested-dict trie over a
column order.  Level d maps the value at position ``order[d]`` to the
next level, and the node below the last level is a bucket — a dict used
as an *ordered set* (``dict[tuple, None]``).  Insertion order matches
the old list-append order (so seeded nondeterministic engines see the
same enumeration order), while deletion is O(1) instead of the
O(bucket) ``list.remove`` scan — which matters for the
noninflationary/while engines that discard heavily from skewed buckets.

One chain answers every key template that is a prefix of its order
(:meth:`Relation.probe_chain`), which is what lets the query planner's
minimum chain cover (MISP) serve several templates with one physical
index.  A keyed lookup the planner has not pointed at a cover chain —
the reference matcher, ``iter_matches``, the differential engine's
support probes — uses the *identity chain*: its key positions in
ascending order, probed at full depth, whose bucket is exactly a hash
index's bucket on those positions.  Per-depth distinct-key counts are
maintained live and feed the planner's cardinality estimates
(:meth:`Relation.distinct_estimate`).

Chains are maintained *incrementally*: once built, a chain is updated
in place on every ``add``/``discard`` instead of being discarded and
rebuilt — the difference between O(facts) and O(stages × facts) total
index work over a fixpoint computation.  The planner garbage-collects
chains its cover no longer needs (:meth:`Relation.drop_chain_index`).
The counters :attr:`Relation.index_builds`,
:attr:`Relation.index_updates` and :attr:`Relation.index_drops` feed
the engines' :class:`~repro.semantics.base.EngineStats`.  A relation
pushes each counter move to the running totals of every database that
holds it, once per name it is held under, so
:meth:`Database.index_totals` reads three numbers instead of walking
the relations.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.schema import DatabaseSchema, RelationSchema

Fact = tuple[str, tuple[Hashable, ...]]


class Relation:
    """A mutable finite set of tuples of a fixed arity."""

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_chains",
        "_chain_counts",
        "_counters",
        "_sinks",
    )

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple] = ()):
        self.name = name
        self.arity = arity
        self._tuples: set[tuple] = set()
        #: Chain (trie) indexes: column order → nested dicts; the node
        #: after the last column is the bucket (``dict[tuple, None]``).
        self._chains: dict[tuple[int, ...], dict] = {}
        #: Per-chain live statistics: ``counts[d]`` is the number of
        #: distinct key prefixes of length d+1 (planner fan-out input).
        self._chain_counts: dict[tuple[int, ...], list[int]] = {}
        #: [builds, updates, drops] of this relation's own chains.
        self._counters = [0, 0, 0]
        #: Where a counter move goes: this relation's own counters, then
        #: the running totals of each database name it is held under.
        self._sinks: tuple[list[int], ...] = (self._counters,)
        if tuples:
            self.update(tuples)

    def _check(self, t: tuple) -> tuple:
        if not isinstance(t, tuple):
            t = tuple(t)
        if len(t) != self.arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, but relation "
                f"{self.name!r} has arity {self.arity}"
            )
        return t

    # -- incremental index maintenance --------------------------------------

    def _count(self, kind: int, n: int) -> None:
        """Add ``n`` to counter ``kind`` (0 builds, 1 updates, 2 drops),
        here and in every database total this relation feeds."""
        for sink in self._sinks:
            sink[kind] += n

    @staticmethod
    def _thread(root: dict, counts: list[int], order: tuple[int, ...],
                ts: Iterable[tuple]) -> None:
        """Insert ``ts``, in their order, into one chain (``root`` over
        ``order``), adding the nodes each depth gains to ``counts``."""
        if len(order) == 1:
            # No per-level loop: half the absorb time of nonlinear TC.
            (p,) = order
            get = root.get
            for t in ts:
                v = t[p]
                bucket = get(v)
                if bucket is None:
                    root[v] = {t: None}
                else:
                    bucket[t] = None
            # Emptied nodes are pruned, so depth 0 counts the root's keys.
            counts[0] = len(root)
            return
        for t in ts:
            node = root
            for depth, p in enumerate(order):
                v = t[p]
                child = node.get(v)
                if child is None:
                    child = node[v] = {}
                    counts[depth] += 1
                node = child
            node[t] = None

    def _chain_insert(self, ts) -> None:
        """Thread the new tuples ``ts`` into every live chain index, one
        loop per chain (one index update per tuple and chain)."""
        for order, root in self._chains.items():
            self._thread(root, self._chain_counts[order], order, ts)
        self._count(1, len(ts) * len(self._chains))

    def _chain_remove(self, ts) -> None:
        """Remove the tuples ``ts`` from every live chain index, one loop
        per chain, pruning emptied nodes (one index update per tuple and
        chain)."""
        for order, root in self._chains.items():
            counts = self._chain_counts[order]
            if len(order) == 1:
                (p,) = order
                get = root.get
                for t in ts:
                    v = t[p]
                    bucket = get(v)
                    if bucket is not None:
                        bucket.pop(t, None)
                        if not bucket:
                            del root[v]
                counts[0] = len(root)
                continue
            last = len(order) - 1
            for t in ts:
                path: list[tuple[dict, Hashable]] = []
                node = root
                for p in order:
                    child = node.get(t[p])
                    if child is None:
                        break
                    path.append((node, t[p]))
                    node = child
                else:
                    node.pop(t, None)
                    depth = last
                    while depth >= 0 and not node:
                        parent, v = path[depth]
                        del parent[v]
                        counts[depth] -= 1
                        node = parent
                        depth -= 1
        self._count(1, len(ts) * len(self._chains))

    def add(self, t: tuple) -> bool:
        """Insert a tuple; return True if it was new."""
        t = self._check(t)
        if t in self._tuples:
            return False
        self._tuples.add(t)
        if self._chains:
            self._chain_insert((t,))
        return True

    def add_batch(self, ts) -> list[tuple]:
        """Bulk insert; returns the tuples that were actually new.

        The consequence-absorption and loading hot path: one membership
        filter and one ``set.update`` replace the per-fact ``add`` call
        chain.  Callers pass tuples (head instantiations, or rows
        :meth:`update` coerced), so the per-tuple coercion of
        :meth:`_check` is skipped — only the arity is verified, of every
        new tuple before any goes in.  Each new tuple comes back once,
        in the order ``ts`` first gives it, and each live chain takes
        the new tuples in one loop, leaving it (and the index counters)
        as one :meth:`add` per row of ``ts`` would.  A tuple given twice shows
        as a set that grew less than the filtered list, so distinct
        input pays no extra pass.
        """
        tuples = self._tuples
        fresh = [t for t in ts if t not in tuples]
        if not fresh:
            return fresh
        arity = self.arity
        for t in fresh:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, but relation "
                    f"{self.name!r} has arity {arity}"
                )
        before = len(tuples)
        tuples.update(fresh)
        if len(tuples) - before != len(fresh):
            fresh = list(dict.fromkeys(fresh))
        if self._chains:
            self._chain_insert(fresh)
        return fresh

    def discard(self, t: tuple) -> bool:
        """Remove a tuple; return True if it was present."""
        t = self._check(t)
        if t not in self._tuples:
            return False
        self._tuples.remove(t)
        if self._chains:
            self._chain_remove((t,))
        return True

    def discard_batch(self, ts) -> list[tuple]:
        """Bulk removal; returns the tuples that were actually present.

        The maintenance engines' removal path (DRed's over-deletion,
        recounts that reach zero): one membership filter and one
        ``set.difference_update`` replace the per-fact ``discard`` call
        chain, and each live chain loses the present tuples in one
        loop, leaving it (and the index counters) as one
        :meth:`discard` per row of ``ts`` would.  Like
        :meth:`add_batch`, it takes engine-built tuples: an absent one
        is skipped, and one given twice comes back once.
        """
        tuples = self._tuples
        gone = [t for t in ts if t in tuples]
        if not gone:
            return gone
        before = len(tuples)
        tuples.difference_update(gone)
        if before - len(tuples) != len(gone):
            gone = list(dict.fromkeys(gone))
        if self._chains:
            self._chain_remove(gone)
        return gone

    def update(self, tuples: Iterable[tuple]) -> int:
        """Insert many tuples; return how many were new.

        Each tuple is coerced and its arity checked before any is
        inserted, so a bad one leaves the relation as it was: they go
        in as one :meth:`add_batch`.
        """
        return len(self.add_batch(
            [t if isinstance(t, tuple) else tuple(t) for t in tuples]
        ))

    def clear(self) -> None:
        if self._tuples:
            self._tuples.clear()
            # Keep the chains live (all empty) so later adds maintain
            # them without a rebuild.
            for order, root in self._chains.items():
                root.clear()
                counts = self._chain_counts[order]
                for depth in range(len(counts)):
                    counts[depth] = 0

    def replace(self, tuples: Iterable[tuple]) -> None:
        """Replace the whole content (used by while-language assignment)."""
        new = {self._check(t) for t in tuples}
        if new == self._tuples:
            return
        if self._chains:
            added = new - self._tuples
            removed = self._tuples - new
            if len(added) + len(removed) <= len(new):
                # Small diff: patch the live chains in place.
                self._chain_remove(removed)
                self._chain_insert(added)
            else:
                # Wholesale change: cheaper to rebuild lazily.
                self._chains.clear()
                self._chain_counts.clear()
        self._tuples = new

    def __contains__(self, t: tuple) -> bool:
        return t in self._tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self._tuples == other._tuples

    def __repr__(self) -> str:
        return f"Relation({self.name!r}/{self.arity}, {len(self)} tuples)"

    @property
    def index_builds(self) -> int:
        """How many times a full index was built from scratch."""
        return self._counters[0]

    @property
    def index_updates(self) -> int:
        """How many single-tuple in-place index maintenance operations ran."""
        return self._counters[1]

    @property
    def index_drops(self) -> int:
        """How many live indexes the planner's GC freed."""
        return self._counters[2]

    def tuples(self) -> frozenset[tuple]:
        """An immutable snapshot of the current content."""
        return frozenset(self._tuples)

    def live_set(self) -> set[tuple]:
        """The live tuple set itself — a zero-copy read-only view.

        The batch kernels subtract a relation's current content from
        their deduped head emissions in one ``difference_update``;
        copying via :meth:`tuples` per kernel call would cost more
        than the subtraction saves.  Callers must not mutate it.
        """
        return self._tuples

    # -- chain (trie) indexes -----------------------------------------------

    def chain_index(self, order: tuple[int, ...]) -> dict:
        """A trie index over ``order``, built lazily and cached.

        Level d of the trie maps the value at position ``order[d]`` to the
        next level; the node below the last level is an ordered-set bucket
        (``dict[tuple, None]``).  Any key template whose positions are a
        prefix of ``order`` can be answered by :meth:`probe_chain`, which
        is what lets the planner's minimal cover serve several templates
        with one chain.  The returned trie is live — maintained in place
        by subsequent mutations — so callers must not modify it, and
        must snapshot a bucket before iterating across their own writes.
        """
        cached = self._chains.get(order)
        if cached is not None:
            return cached
        root: dict = {}
        counts = [0] * len(order)
        self._thread(root, counts, order, self._tuples)
        self._chains[order] = root
        self._chain_counts[order] = counts
        self._count(0, 1)
        return root

    def probe_chain(
        self, order: tuple[int, ...], depth: int, key: tuple
    ) -> "Iterable[tuple]":
        """Tuples whose values at ``order[:depth]`` equal ``key``.

        A full-depth probe returns the live bucket itself, in insertion
        order; a prefix probe returns a fresh list of the buckets under
        the matched subtrie.  A miss returns ``()``.  A caller that
        mutates the relation while consuming a full-depth result must
        snapshot it with ``list(...)`` first, as the reference matcher
        does.
        """
        node = self._chains.get(order)
        if node is None:
            node = self.chain_index(order)
        for v in key:
            node = node.get(v)
            if node is None:
                return ()
        if depth == len(order):
            return node
        out: list[tuple] = []
        self._collect(node, len(order) - depth, out)
        return out

    @staticmethod
    def _collect(node: dict, remaining: int, out: list[tuple]) -> None:
        if remaining == 0:
            out.extend(node)
            return
        for child in node.values():
            Relation._collect(child, remaining - 1, out)

    def distinct_estimate(self, positions: frozenset[int]) -> int | None:
        """Distinct-key count for a position set, from live chains only.

        Any live chain whose prefix of that length is exactly the set
        answers; returns ``None`` when none does (the planner then falls
        back to a heuristic).  Never builds anything — estimates must
        be free.
        """
        depth = len(positions)
        for order, counts in self._chain_counts.items():
            if depth <= len(order) and frozenset(order[:depth]) == positions:
                return counts[depth - 1] if depth else len(self._tuples)
        return None

    def live_indexes(self) -> list[tuple[int, ...]]:
        """The column orders of the chains currently materialized."""
        return list(self._chains)

    def drop_chain_index(self, order: tuple[int, ...]) -> bool:
        """Free a chain index (planner GC); True if one was live."""
        if self._chains.pop(order, None) is None:
            return False
        del self._chain_counts[order]
        self._count(2, 1)
        return True

    def copy(self) -> "Relation":
        """An independent copy: same tuples and chains, counters at zero."""
        clone = Relation(self.name, self.arity)
        clone._tuples = set(self._tuples)
        # Carrying the live chains over is cheaper than letting the
        # clone rebuild them from scratch on first use.
        clone._chains = {
            order: self._copy_trie(root, len(order))
            for order, root in self._chains.items()
        }
        clone._chain_counts = {
            order: list(counts) for order, counts in self._chain_counts.items()
        }
        return clone

    @staticmethod
    def _copy_trie(node: dict, remaining: int) -> dict:
        if remaining == 0:
            return dict(node)
        return {
            v: Relation._copy_trie(child, remaining - 1)
            for v, child in node.items()
        }

    def values(self) -> set[Hashable]:
        """All domain values occurring in this relation."""
        out: set[Hashable] = set()
        for t in self._tuples:
            out.update(t)
        return out


class Database:
    """A mutable database instance: a mapping from relation names to relations.

    Construct from a plain dict of name → iterable of tuples::

        db = Database({"G": [("a", "b"), ("b", "c")]})

    Relations are created on first reference; arity is inferred from the
    first tuple (or set explicitly via :meth:`ensure_relation`).  An
    explicitly empty relation can be seeded with a ``(name, arity)``
    key::

        db = Database({("G", 2): []})

    With a plain-string key and no tuples the arity is unknown; the name
    is *deferred*: it shows up in :meth:`relation_names` and negation
    semantics treat it as empty, but an operation that needs the arity
    (:meth:`schema`) raises :class:`~repro.errors.SchemaError` until the
    arity is fixed by a first fact or an :meth:`ensure_relation` call.
    """

    __slots__ = ("_relations", "_deferred", "_totals")

    def __init__(
        self,
        contents: dict[str | tuple[str, int], Iterable[tuple]] | None = None,
    ):
        self._relations: dict[str, Relation] = {}
        self._deferred: set[str] = set()
        #: [builds, updates, drops] over every name, pushed by the
        #: relations (see :meth:`_hold`).
        self._totals = [0, 0, 0]
        if contents:
            for key, tuples in contents.items():
                tuples = [t if isinstance(t, tuple) else tuple(t) for t in tuples]
                if isinstance(key, tuple):
                    name, arity = key
                    self.ensure_relation(name, arity).add_batch(tuples)
                elif tuples:
                    self.ensure_relation(key, len(tuples[0])).add_batch(tuples)
                else:
                    # Arity unknown for an empty relation given as a list
                    # under a plain-string key: register the name and
                    # resolve the arity on first use.
                    self._deferred.add(key)

    def ensure_relation(self, name: str, arity: int) -> Relation:
        """Get the relation, creating it empty if absent; check arity."""
        rel = self._relations.get(name)
        if rel is None:
            rel = self._hold(name, Relation(name, arity))
        elif rel.arity != arity:
            raise SchemaError(
                f"relation {name!r} has arity {rel.arity}, requested {arity}"
            )
        return rel

    def attach(self, name: str, relation: Relation) -> Relation:
        """Register an existing relation object under ``name``.

        The object is shared, not copied: a write to it shows under
        every name and in every database that holds it.  :meth:`copy`
        gives each name its own copy, and :meth:`index_totals` counts
        the object once per name.  Raises :class:`SchemaError` if
        ``name`` is taken.
        """
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        return self._hold(name, relation)

    def _hold(self, name: str, relation: Relation) -> Relation:
        """Register ``relation`` under ``name`` and feed its counters,
        from their current values on, into this database's totals."""
        self._relations[name] = relation
        self._deferred.discard(name)
        totals = self._totals
        for kind, n in enumerate(relation._counters):
            totals[kind] += n
        relation._sinks += (totals,)
        return relation

    def relation(self, name: str) -> Relation | None:
        """The relation of that name, or None if absent."""
        return self._relations.get(name)

    def tuples(self, name: str) -> frozenset[tuple]:
        """Snapshot of a relation's tuples (empty if the relation is absent)."""
        rel = self._relations.get(name)
        return rel.tuples() if rel is not None else frozenset()

    def has_fact(self, name: str, t: tuple) -> bool:
        rel = self._relations.get(name)
        return rel is not None and t in rel

    def add_fact(self, name: str, t: tuple) -> bool:
        """Insert one fact, creating the relation if needed."""
        t = tuple(t)
        rel = self.ensure_relation(name, len(t))
        return rel.add(t)

    def remove_fact(self, name: str, t: tuple) -> bool:
        rel = self._relations.get(name)
        if rel is None:
            return False
        return rel.discard(tuple(t))

    def facts(self) -> Iterator[Fact]:
        """Iterate over all (relation name, tuple) facts."""
        for name, rel in self._relations.items():
            for t in rel:
                yield (name, t)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def relation_names(self) -> list[str]:
        out = list(self._relations)
        out.extend(sorted(self._deferred))
        return out

    def index_totals(self) -> tuple[int, int, int]:
        """(builds, updates, drops) over the relations, once per name.

        The stage-accounting hot path: :class:`StatsRecorder` diffs
        these totals after every consequence pass.  The relations push
        their counter moves here as they happen, so this walks nothing;
        a dropped name takes its relation's counters with it.
        """
        builds, updates, drops = self._totals
        return builds, updates, drops

    def active_domain(self) -> set[Hashable]:
        """adom(I): every constant occurring in some tuple of the instance."""
        out: set[Hashable] = set()
        for rel in self._relations.values():
            out |= rel.values()
        return out

    def schema(self) -> DatabaseSchema:
        """The schema induced by the current relations.

        Raises :class:`SchemaError` if the instance still holds deferred
        empty relations — their arity is unknown, so no schema exists.
        """
        if self._deferred:
            names = ", ".join(sorted(self._deferred))
            raise SchemaError(
                f"arity of empty relation(s) {names} is unknown; seed them "
                "with a (name, arity) key or call ensure_relation first"
            )
        return DatabaseSchema(
            [RelationSchema(rel.name, rel.arity) for rel in self._relations.values()]
        )

    def copy(self) -> "Database":
        """An independent copy; its index counters start at zero."""
        clone = Database()
        for name, rel in self._relations.items():
            clone._hold(name, rel.copy())
        clone._deferred = set(self._deferred)
        return clone

    def restrict(self, names: Iterable[str]) -> "Database":
        """A copy containing only the named relations (present ones)."""
        clone = Database()
        for name in names:
            rel = self._relations.get(name)
            if rel is not None:
                clone._hold(name, rel.copy())
            elif name in self._deferred:
                clone._deferred.add(name)
        return clone

    def drop(self, name: str) -> None:
        rel = self._relations.pop(name, None)
        self._deferred.discard(name)
        if rel is not None:
            totals = self._totals
            for kind, n in enumerate(rel._counters):
                totals[kind] -= n
            # By identity: another total may hold equal numbers.
            sinks = rel._sinks
            at = next(i for i, sink in enumerate(sinks) if sink is totals)
            rel._sinks = sinks[:at] + sinks[at + 1:]

    def canonical(self) -> frozenset[Fact]:
        """A hashable snapshot of the full instance (for cycle detection)."""
        return frozenset(self.facts())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __contains__(self, name: str) -> bool:
        return name in self._relations or name in self._deferred

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}: {len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"

    def pretty(self, names: Iterable[str] | None = None) -> str:
        """A deterministic human-readable rendering, for examples and docs."""
        lines = []
        for name in sorted(names if names is not None else self.relation_names()):
            rel = self._relations.get(name)
            rows = sorted(rel.tuples(), key=repr) if rel is not None else []
            body = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in rows)
            lines.append(f"{name} = {{{body}}}")
        return "\n".join(lines)

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Database":
        db = cls()
        for name, t in facts:
            db.add_fact(name, t)
        return db
