"""The filtering stage: per-node query matching (Sections 5.1-5.2).

A :class:`FilteringNode` is one matching node in the 2D grid.  It holds
a subset of all queries (its query partition) and sees a fraction of
all written data items (its write partition).  For every incoming
after-image it determines the affected queries and compares the current
against the former matching status of the entity, producing
:class:`MatchEvent` objects:

* ``add`` — the item newly satisfies the query;
* ``change`` — a current result member was updated;
* ``remove`` — the item just ceased matching;
* anything else "is filtered out", so downstream stages only see
  relevant traffic.

Per-write work is sublinear in the number of active queries: a
:class:`~repro.query.index.QueryIndex` decomposes every registered
query into indexable access predicates and generates a *candidate set*
per after-image instead of scanning the whole query partition.  Two
invariants keep the pruning loss-free:

* **reverse-map invariant** — ``_matching_keys`` maps every entity key
  to the queries it currently matches; those queries are ALWAYS
  re-evaluated for a write to that key, so a ``remove``/``change`` is
  emitted even when the new image no longer hits any index bucket.
  Deletes skip predicate lookup entirely and use only the reverse map.
* **superset invariant** — the index may return false positives (the
  engine filters them) but never false negatives for a matching
  document.

There is one matching path.  All registered queries are canonicalized
into one hash-consed predicate DAG
(:class:`~repro.query.shared.SharedPredicateDAG`, SharedDB-style
whole-plan sharing) and a single lazy pass per after-image serves every
candidate's match/unmatch decision, consumed in registration order.  A
query the DAG cannot intern (unhashable canonical form) is decided by
plain ``engine.matches(query, document)`` instead.  Underneath both is
one evaluator: the closures :func:`repro.query.matcher.compile_node`
builds, held per DAG leaf and per :class:`Query`.

``process_write`` is one flat loop over the candidates — ask the pass,
apply the add/change/remove transition in place, build the event — and
tokenizes the after-image at most once, shared between the index's
text probe and the pass's ``$text`` leaves.  The after-image's document
is a plain dict in every execution model (a worker decodes each batch
frame once), and the node holds it as it came.  Deletes and registration
replay, which have no pass to share, decide one query at a time in
``_evaluate``.

The node also implements write stream retention: retained after-images
are replayed against newly registered queries, closing the
write-subscription race, and version numbers let it ignore stale
writes.  The subscribe's read watermark limits replay to the images the
bootstrap has not seen: one stamped below it committed before the read.

Sorted queries are matched per *sort core* (``Query.core_id``): every
page of one filter + sort shares one entry — one index entry, one DAG
root, one event per write — refcounted by the pages registered on it.
An unsorted query is its own entry.  Every after-image an entry takes
goes through one version-merge rule (a version at or below the held
one is dropped): live writes, retained replay and a (re-)registration's
bootstrap alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Set

from repro.core.partitioning import NodeCoordinates
from repro.core.retention import RetentionBuffer
from repro.obs.telemetry import NULL_TELEMETRY
from repro.query.engine import MongoQueryEngine, PluggableQueryEngine, Query
from repro.query.index import QueryIndex
from repro.query.shared import SharedPredicateDAG
from repro.query.text import LazyTokens
from repro.types import AfterImage, Document, MatchType, WriteKind


class MatchEvent(NamedTuple):
    """A result transition detected by the filtering stage.

    For sorted queries these flow into the sorting stage; for unsorted
    queries they translate directly into change notifications.  A
    ``NamedTuple``: immutable like a frozen dataclass, but one is built
    for every (write, matching query) pair, and a tuple is several
    times cheaper to construct.
    """

    query_id: str
    match_type: MatchType
    key: Any
    document: Optional[Document]
    version: int
    timestamp: float
    needs_sorting: bool


@dataclass
class _ActiveQuery:
    query: Query
    #: ``query.needs_sorting_stage``, read once at registration: every
    #: event of the entry carries it.
    sorts: bool
    #: Keys of this node's result partition -> the image held for them:
    #: version, oplog stamp and document in the write's own after-image,
    #: shared by every entry it matched (a delete's remove event still
    #: carries the item's last content).  A bootstrap document is held
    #: as an unstamped image.
    matching: Dict[Any, AfterImage] = field(default_factory=dict)
    #: Ids of the queries registered on this entry: the pages of a sort
    #: core, or the unsorted query itself.
    pages: Set[str] = field(default_factory=set)


class FilteringNode:
    """One matching node of the filtering stage."""

    def __init__(
        self,
        coordinates: NodeCoordinates,
        retention_seconds: float = 5.0,
        engine: Optional[PluggableQueryEngine] = None,
        use_index: bool = True,
        spatial_grid_cells: int = 64,
        telemetry=None,
    ):
        self.coordinates = coordinates
        self.engine = engine if engine is not None else MongoQueryEngine()
        self.retention = RetentionBuffer(retention_seconds)
        #: Entry id (``Query.core_id``) -> entry.
        self._queries: Dict[str, _ActiveQuery] = {}
        #: Sorted page id -> the core id of its entry.
        self._core_of: Dict[str, str] = {}
        #: ``use_index=False`` is the linear scan the equivalence suites
        #: compare the index against.
        self.index: Optional[QueryIndex] = (
            QueryIndex(grid_cells=spatial_grid_cells) if use_index else None
        )
        #: Shared multi-query execution: one hash-consed predicate DAG
        #: over all registered queries, evaluated once per after-image.
        self.dag = SharedPredicateDAG()
        #: Reverse map: entity key -> ids of queries currently matching
        #: it.  The removal-correctness backbone of indexed matching.
        self._matching_keys: Dict[Any, Set[str]] = {}
        #: Registration sequence per query id, so indexed candidate sets
        #: are evaluated in exactly the order a full scan would use
        #: (event streams stay byte-identical to the naive path).
        self._order: Dict[str, int] = {}
        self._next_order = 0
        # -- runtime counters ------------------------------------------
        #: Actual engine-level match computations (one per evaluated
        #: candidate with a live document in the query's collection).
        self.matched_operations = 0
        #: Query evaluations skipped thanks to candidate pruning.
        self.candidates_pruned = 0
        #: Candidates the index produced (including reverse-map hits).
        self.candidates_considered = 0
        #: After-images processed (post staleness check).
        self.writes_processed = 0
        # Telemetry: per-write distributions of how many candidates the
        # index produced vs. how many evaluations pruning skipped.  The
        # plain counters above stay the hot-path source of truth (the
        # cluster bridges them into snapshots via a registry collector);
        # these histograms add the *shape* a single total cannot show.
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._examined_hist = tel.histogram("filter.candidates_examined")
        self._pruned_hist = tel.histogram("filter.candidates_pruned")

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register_query(
        self,
        query: Query,
        bootstrap: List[Document],
        versions: Dict[Any, int],
        now: float,
        watermark: Optional[Dict[int, int]] = None,
    ) -> List[MatchEvent]:
        """Activate *query* with its result partition, or merge a
        re-registration (renewal, resync, another app server, another
        page of a sort core) into the entry it already has.

        *bootstrap* is the slice of the initial result whose keys fall
        into this node's write partition; *versions* maps those keys to
        the version the database reported; *watermark* is the read's
        ``{store_id: head_sequence}``: an image stamped below it
        committed before the read, so the bootstrap reflects it.

        A fresh entry takes the bootstrap and emits nothing (the
        initial result reaches the subscriber through its app server).
        An entry that exists merges the bootstrap key by key through
        the rule live writes use — a version at or below the held one
        is dropped, a newer one is an ``add`` or ``change`` — and, when
        the bootstrap is the whole result (no limit), a held key absent
        from it whose image is stamped below the watermark left the
        result before the read: ``remove``.  A held image the watermark
        does not name (unstamped, a bootstrap's own document, another
        store's write) counts as racing the read, as in replay: it is
        kept, and the next write to its key decides.  The merge's
        events go to every subscriber of the entry, like live ones.

        Then retained after-images newer than the bootstrap replay
        (Section 5.1): those stamped at or above the watermark, or
        unstamped, or of a store the watermark does not name — the
        writes that raced the read.  The index and the DAG are keyed by
        the entry id, so neither is rebuilt.
        """
        entry_id = query.core_id
        state = self._queries.get(entry_id)
        fresh = state is None
        if state is None:
            self._order[entry_id] = self._next_order
            self._next_order += 1
            if self.index is not None:
                self.index.add(query, entry_id)
            self.dag.add(query, entry_id)
            state = self._queries[entry_id] = _ActiveQuery(
                query, query.needs_sorting_stage
            )
        state.pages.add(query.query_id)
        if query.is_sorted:
            self._core_of[query.query_id] = entry_id
        matching = state.matching
        heads = watermark or {}
        events: List[MatchEvent] = []
        sorts = state.sorts
        for doc in bootstrap:
            key = doc["_id"]
            version = versions.get(key, 0)
            held = matching.get(key)
            if held is not None and version <= held.version:
                continue
            if held is None:
                self._matching_keys.setdefault(key, set()).add(entry_id)
            matching[key] = AfterImage(key, version, WriteKind.UPDATE, doc,
                                       query.collection, now)
            if not fresh:
                events.append(MatchEvent(
                    entry_id,
                    MatchType.ADD if held is None else MatchType.CHANGE,
                    key, doc, version, now, sorts,
                ))
        if not fresh and heads and query.limit is None:
            present = {doc["_id"] for doc in bootstrap}
            for key, held in list(matching.items()):
                if key not in present and (
                    0 < held.sequence < heads.get(held.store_id, 0)
                ):
                    del matching[key]
                    self._unmatch(key, entry_id)
                    events.append(MatchEvent(
                        entry_id, MatchType.REMOVE, key, held.document,
                        held.version, now, sorts,
                    ))
        for after in self.retention.replay(now):
            if 0 < after.sequence < heads.get(after.store_id, 0):
                continue
            if after.version <= versions.get(after.key, 0):
                continue
            events.extend(self._evaluate(entry_id, state, after))
        return events

    def deactivate_query(self, query_id: str) -> bool:
        """Drop a query; True when it was active.  A sort core's entry
        goes with its last page."""
        entry_id = self._core_of.pop(query_id, query_id)
        state = self._queries.get(entry_id)
        if state is None or query_id not in state.pages:
            return False
        state.pages.discard(query_id)
        if state.pages:
            return True
        del self._queries[entry_id]
        for key in state.matching:
            self._unmatch(key, entry_id)
        self._order.pop(entry_id, None)
        if self.index is not None:
            self.index.remove(entry_id)
        self.dag.remove(entry_id)
        return True

    def _unmatch(self, key: Any, entry_id: str) -> None:
        """Take *entry_id* off *key*'s reverse-map entry."""
        matchers = self._matching_keys.get(key)
        if matchers is not None:
            matchers.discard(entry_id)
            if not matchers:
                del self._matching_keys[key]

    def holds(self, query: Query) -> bool:
        """True when *query*'s entry is registered here: a subscribe for
        it merges instead of creating the entry."""
        return query.core_id in self._queries

    def active_queries(self) -> List[str]:
        return list(self._queries)

    def result_partition(self, query_id: str) -> List[Document]:
        """Current partition of the given query's result on this node
        (a sorted page's: its core's)."""
        state = self._queries.get(self._core_of.get(query_id, query_id))
        if state is None:
            return []
        return [held.document for held in state.matching.values()]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Write processing
    # ------------------------------------------------------------------

    def process_write(self, after: AfterImage, now: float) -> List[MatchEvent]:
        """Match an after-image against the affected queries.

        Stale after-images (older than an already-processed version of
        the same entity) are dropped entirely.  With the predicate
        index enabled, only candidate queries (index hits plus the
        entity's previous matchers) are evaluated; without it, every
        active query is scanned.  The transition applied per candidate
        is the one ``_evaluate`` defines; keep the two in step.
        """
        if not self.retention.observe(after, now):
            return []
        self.writes_processed += 1
        is_delete = after.is_delete
        tokens: Optional[LazyTokens] = None
        if not is_delete:
            # One token set per write, shared by the index's text probe
            # and every $text leaf of the pass; built only if one asks.
            tokens = LazyTokens(after.document)
        candidate_ids = self._candidate_ids(after, tokens)
        pruned = len(self._queries) - len(candidate_ids)
        self.candidates_considered += len(candidate_ids)
        self.candidates_pruned += pruned
        # Distribution shape only: sample 1-in-16 writes (phase-locked
        # to the exact writes_processed counter for determinism).
        if (self.writes_processed & 15) == 1:
            self._examined_hist.record(len(candidate_ids))
            self._pruned_hist.record(pruned)
        events: List[MatchEvent] = []
        if not candidate_ids:
            return events
        queries = self._queries
        if is_delete:
            for query_id in candidate_ids:
                state = queries.get(query_id)
                if state is not None:
                    events.extend(self._evaluate(query_id, state, after))
            return events
        # One shared DAG pass serves every candidate's decision; the
        # loop below is _evaluate for a live document, applied in place.
        document: Document = after.document  # type: ignore[assignment]
        decide = self.dag.begin(document, tokens).matches
        collection, key = after.collection, after.key
        version, timestamp = after.version, after.timestamp
        matching_keys = self._matching_keys
        evaluated = 0
        for query_id in candidate_ids:
            state = queries.get(query_id)
            if state is None:
                continue
            query = state.query
            matches_now: Optional[bool] = False
            if collection == query.collection:
                evaluated += 1
                matches_now = decide(query_id)
                if matches_now is None:
                    # Not interned (unhashable canonical form).
                    matches_now = self.engine.matches(query, document)
            matching = state.matching
            if matches_now:
                if key in matching:
                    match_type = MatchType.CHANGE
                else:
                    match_type = MatchType.ADD
                    matching_keys.setdefault(key, set()).add(query_id)
                matching[key] = after
            elif key in matching:
                match_type = MatchType.REMOVE
                del matching[key]
                self._unmatch(key, query_id)
            else:
                continue
            events.append(MatchEvent(
                query_id, match_type, key, document, version, timestamp,
                state.sorts,
            ))
        self.matched_operations += evaluated
        return events

    def _candidate_ids(
        self, after: AfterImage, tokens: Optional[LazyTokens] = None
    ) -> List[Any]:
        """Queries to evaluate for *after*, in registration order."""
        if self.index is None:
            return list(self._queries)
        previous = self._matching_keys.get(after.key)
        if after.is_delete:
            # A delete can only affect queries the entity currently
            # matches: go straight to the reverse map.
            if not previous:
                return []
            candidates = set(previous)
        else:
            candidates = self.index.candidates(
                after.document,  # type: ignore[arg-type]
                after.collection,
                tokens,
            )
            if previous:
                candidates.update(previous)
        # Every candidate is a registered entry, so it has an order.
        return sorted(candidates, key=self._order.get)

    def _evaluate(
        self, entry_id: str, state: _ActiveQuery, after: AfterImage
    ) -> List[MatchEvent]:
        """One entry's transition for *after*, outside a shared pass:
        deletes (nothing to evaluate) and registration replay (one
        query, decided by its own compiled predicate)."""
        query = state.query
        if after.is_delete or after.collection != query.collection:
            matches_now = False
        else:
            self.matched_operations += 1
            matches_now = self.engine.matches(
                query, after.document  # type: ignore[arg-type]
            )
        was_matching = after.key in state.matching
        if matches_now:
            state.matching[after.key] = after
            if not was_matching:
                self._matching_keys.setdefault(after.key, set()).add(entry_id)
            match_type = MatchType.CHANGE if was_matching else MatchType.ADD
            document = after.document
        elif was_matching:
            held = state.matching.pop(after.key)
            self._unmatch(after.key, entry_id)
            match_type = MatchType.REMOVE
            document = after.document if after.document is not None else held.document
        else:
            return []
        return [MatchEvent(
            entry_id, match_type, after.key, document, after.version,
            after.timestamp, state.sorts,
        )]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of query evaluations skipped by candidate pruning."""
        total = self.candidates_considered + self.candidates_pruned
        return self.candidates_pruned / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot of this node's matching work."""
        snapshot: Dict[str, Any] = {
            "queries": self.query_count,
            "matched_operations": self.matched_operations,
            "writes_processed": self.writes_processed,
            "candidates_considered": self.candidates_considered,
            "candidates_pruned": self.candidates_pruned,
            "pruning_ratio": round(self.pruning_ratio, 4),
            "retained_after_images": len(self.retention),
        }
        if self.index is not None:
            snapshot["index"] = self.index.stats()
        snapshot["dag"] = self.dag.stats()
        return snapshot

    def __repr__(self) -> str:
        return (
            f"FilteringNode({self.coordinates}, {len(self._queries)} queries, "
            f"{len(self.retention)} retained)"
        )
