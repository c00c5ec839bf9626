"""The sorting stage: ordered result maintenance (Section 5.2).

Sorted filter queries are not self-maintainable from per-record match
events alone: result membership can depend on an item's position, on
the items in the query's *offset*, and on items *beyond* the limit.
The sorting stage therefore maintains, per query, an ordered window of

    offset items | visible result (limit) | slack items beyond limit

bootstrapped from the rewritten query (``OFFSET 0``, ``LIMIT offset +
limit + slack``).  The implementation tracks a *knowledge horizon*: the
sort position below which matching items are unknown.  Invariant: the
maintained entries are exactly the true matching items ranking at or
above the horizon.  Consequences:

* an incoming item ranking above the horizon is inserted at its true
  position; one ranking below is ignored (it cannot be placed
  correctly relative to unknown items);
* a removal shrinks the window; when fewer than ``offset + limit``
  items remain and knowledge is incomplete, the query becomes
  unmaintainable — a **query maintenance error** deactivates it and an
  error notification doubling as a *query renewal request* is emitted;
* when the window outgrows its capacity it is truncated and the
  horizon moves up, keeping per-query memory bounded.

Each window keeps a key→entry map plus a bisect-ordered parallel list
of native sort keys (plain tuples, ``query/sortspec.py``), locates an
entry's old and new positions with ``bisect_left`` — O(log W)
comparisons, all in C — and derives the exact ``add``/``remove``/
``change``/``changeIndex`` stream from positional arithmetic on the
offset/limit window boundaries — no linear scans, no full-window
snapshots.

An event changes window membership by at most three entries (the
written item plus one entry crossing each window boundary), so the
differ emits from those positions alone: removals ordered by their old
window index first, then additions and the written item's transition
ordered by new window index — the order in which a client applying
them one by one arrives at the new window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.filtering import MatchEvent
from repro.core.notifications import QueryChange, diff_windows
from repro.errors import QueryMaintenanceError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.query.engine import Query
from repro.types import Document, MatchType


@dataclass
class _Entry:
    sort_key: Tuple[Any, ...]
    key: Any
    document: Document
    version: int


class _SortedQueryState:
    """Ordered window of one sorted query."""

    def __init__(self, query: Query, slack: int):
        if query.sort is None:
            raise ValueError("sorting stage only accepts sorted queries")
        self.query = query
        self.offset = query.offset
        self.limit = query.limit
        self.capacity: Optional[int] = (
            None if query.limit is None else query.offset + query.limit + slack
        )
        self.entries: List[_Entry] = []
        self.complete = True
        #: Sort key of the worst-ranked item we have full knowledge down
        #: to; only meaningful when ``complete`` is False.
        self.horizon: Optional[Tuple[Any, ...]] = None
        #: Probe depth spent maintaining this window: each bisect counts
        #: ``len(keys).bit_length()`` (its worst-case comparisons, a
        #: function of the window size alone), each horizon test 1 —
        #: the per-event work metric behind sort.window_ops.
        self.comparisons = 0
        # A parallel, bisect-ordered list of sort keys (positions in
        # O(log W)) and a key→entry map (membership in O(1)).
        self._sort_keys: List[Tuple[Any, ...]] = []
        self._by_key: Dict[Any, _Entry] = {}

    # -- window geometry -----------------------------------------------------

    def visible(self) -> List[Tuple[Any, Document]]:
        """The user-facing result window: entries[offset : offset+limit]."""
        window = self.entries[self.offset :]
        if self.limit is not None:
            window = window[: self.limit]
        return [(entry.key, entry.document) for entry in window]

    def current_slack(self) -> Optional[int]:
        """Items known beyond the limit — removals survivable right now."""
        if self.limit is None:
            return None
        return max(0, len(self.entries) - (self.offset + self.limit))

    # -- mutation -------------------------------------------------------------

    def bootstrap(self, documents: List[Document], versions: Dict[Any, int]) -> None:
        sort = self.query.sort
        assert sort is not None
        self.entries = [
            _Entry(sort.key(doc), doc["_id"], doc, versions.get(doc["_id"], 0))
            for doc in documents
        ]
        self.entries.sort(key=lambda entry: entry.sort_key)
        if self.capacity is None or len(self.entries) < self.capacity:
            self.complete = True
            self.horizon = None
        else:
            del self.entries[self.capacity :]
            self.complete = False
            self.horizon = self.entries[-1].sort_key
        self._sort_keys = [entry.sort_key for entry in self.entries]
        self._by_key = {entry.key: entry for entry in self.entries}

    # ------------------------------------------------------------------
    # O(log W) positioning + positional diffing.
    # ------------------------------------------------------------------

    def _bisect(self, sort_key: Tuple[Any, ...]) -> int:
        """Leftmost insertion point of *sort_key*, counting the probe."""
        keys = self._sort_keys
        self.comparisons += len(keys).bit_length()
        return bisect_left(keys, sort_key)

    def _insert_at(self, position: int, entry: _Entry) -> None:
        self.entries.insert(position, entry)
        self._sort_keys.insert(position, entry.sort_key)
        self._by_key[entry.key] = entry

    def _delete_at(self, position: int) -> _Entry:
        entry = self.entries.pop(position)
        self._sort_keys.pop(position)
        del self._by_key[entry.key]
        return entry

    def _truncate(self) -> None:
        capacity = self.capacity
        if capacity is not None and len(self.entries) > capacity:
            for entry in self.entries[capacity:]:
                del self._by_key[entry.key]
            del self.entries[capacity:]
            del self._sort_keys[capacity:]
            self.complete = False
            self.horizon = self.entries[-1].sort_key

    def _change(
        self,
        match_type: MatchType,
        entry_key: Any,
        document: Document,
        timestamp: float,
        index: Optional[int] = None,
        old_index: Optional[int] = None,
    ) -> QueryChange:
        return QueryChange(
            query_id=self.query.query_id,
            match_type=match_type,
            key=entry_key,
            document=document,
            index=index,
            old_index=old_index,
            timestamp=timestamp,
        )

    def _delete_changes(
        self,
        position: int,
        entry: _Entry,
        timestamp: float,
    ) -> List[QueryChange]:
        """Visible-window changes of deleting the entry at *position*.

        Must be called BEFORE the deletion mutates the list.
        """
        n = len(self.entries)
        offset, limit = self.offset, self.limit
        end = offset + limit if limit is not None else n
        changes: List[QueryChange] = []
        if position < offset:
            # The first visible item slides into the offset region …
            if n > offset:
                slid = self.entries[offset]
                changes.append(self._change(
                    MatchType.REMOVE, slid.key, slid.document, timestamp,
                    old_index=0,
                ))
            # … and the first item beyond the limit becomes visible.
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1,
                ))
        elif position < end:
            changes.append(self._change(
                MatchType.REMOVE, entry.key, entry.document, timestamp,
                old_index=position - offset,
            ))
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1,
                ))
        return changes

    def _insert_changes(
        self,
        position: int,
        entry: _Entry,
        timestamp: float,
    ) -> List[QueryChange]:
        """Visible-window changes of inserting *entry* at *position*.

        Must be called BEFORE the insertion mutates the list.
        """
        n = len(self.entries)
        offset, limit = self.offset, self.limit
        end = offset + limit if limit is not None else n + 2
        changes: List[QueryChange] = []
        if position < offset:
            # The last visible item is pushed beyond the limit …
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1,
                ))
            # … and the last offset item is pushed into the window.
            if n >= offset:
                pushed_in = self.entries[offset - 1]
                changes.append(self._change(
                    MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0,
                ))
        elif position < end:
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1,
                ))
            changes.append(self._change(
                MatchType.ADD, entry.key, entry.document, timestamp,
                index=position - offset,
            ))
        return changes

    def _move_changes(
        self,
        old_position: int,
        new_position: int,
        old_document: Document,
        document: Document,
        key: Any,
        timestamp: float,
    ) -> List[QueryChange]:
        """Changes of relocating the written entry old→new position.

        The list length is unchanged by a move, so at most one entry
        crosses each window boundary; everything else keeps its window
        membership (and, per the diff contract, silently shifts).
        Must be called BEFORE the move mutates the list.
        """
        n = len(self.entries)
        offset, limit = self.offset, self.limit
        end = offset + limit if limit is not None else n + 1
        removes: List[QueryChange] = []
        others: List[QueryChange] = []
        if old_position < new_position:
            # Entries in (old, new] shift one position down.
            if old_position < offset <= new_position:
                slid = self.entries[offset]
                removes.append(self._change(
                    MatchType.REMOVE, slid.key, slid.document, timestamp,
                    old_index=0,
                ))
            if limit is not None and old_position < end <= new_position:
                pulled = self.entries[end]
                others.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1,
                ))
        elif new_position < old_position:
            # Entries in [new, old) shift one position up.
            if new_position <= offset - 1 < old_position:
                pushed_in = self.entries[offset - 1]
                others.append(self._change(
                    MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0,
                ))
            if limit is not None and new_position <= end - 1 < old_position:
                pushed = self.entries[end - 1]
                removes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1,
                ))
        was_visible = offset <= old_position < end
        is_visible = offset <= new_position < end
        if was_visible and is_visible:
            if old_position != new_position:
                others.append(self._change(
                    MatchType.CHANGE_INDEX, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset,
                ))
            elif old_document != document:
                others.append(self._change(
                    MatchType.CHANGE, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset,
                ))
        elif was_visible:
            removes.append(self._change(
                MatchType.REMOVE, key, old_document, timestamp,
                old_index=old_position - offset,
            ))
        elif is_visible:
            others.append(self._change(
                MatchType.ADD, key, document, timestamp,
                index=new_position - offset,
            ))
        removes.sort(key=lambda change: change.old_index)  # type: ignore[arg-type, return-value]
        others.sort(key=lambda change: change.index)  # type: ignore[arg-type, return-value]
        return removes + others

    def apply_upsert(
        self, key: Any, document: Document, version: int, timestamp: float
    ) -> Optional[List[QueryChange]]:
        """Apply an add/change event: mutate + diff in one positional pass.

        Returns the visible-window changes, or None when the window
        became unmaintainable (checked before mutating, so the state
        still holds the last valid window).
        """
        sort = self.query.sort
        assert sort is not None
        existing = self._by_key.get(key)
        if existing is not None and version < existing.version:
            return []
        new_sort_key = sort.key(document)
        below_horizon = False
        if not self.complete and self.horizon is not None:
            self.comparisons += 1
            below_horizon = new_sort_key > self.horizon
        if existing is None:
            if below_horizon:
                return []
            position = self._bisect(new_sort_key)
            entry = _Entry(new_sort_key, key, document, version)
            changes = self._insert_changes(position, entry, timestamp)
            self._insert_at(position, entry)
            self._truncate()
            return changes
        old_position = self._bisect(existing.sort_key)
        if below_horizon:
            # Demotion below the horizon acts like a removal.
            if (
                self.limit is not None
                and len(self.entries) - 1 < self.offset + self.limit
            ):
                return None
            changes = self._delete_changes(old_position, existing, timestamp)
            self._delete_at(old_position)
            return changes
        insertion_point = self._bisect(new_sort_key)
        new_position = (
            insertion_point - 1 if insertion_point > old_position
            else insertion_point
        )
        changes = self._move_changes(
            old_position, new_position, existing.document, document, key,
            timestamp,
        )
        self.entries.pop(old_position)
        self._sort_keys.pop(old_position)
        updated = _Entry(new_sort_key, key, document, version)
        self.entries.insert(new_position, updated)
        self._sort_keys.insert(new_position, new_sort_key)
        self._by_key[key] = updated
        return changes

    def apply_remove(
        self, key: Any, version: int, timestamp: float
    ) -> Optional[List[QueryChange]]:
        """Apply a remove event; None signals a maintenance error."""
        entry = self._by_key.get(key)
        if entry is None:
            return []
        if version < entry.version:
            return []
        if (
            not self.complete
            and self.limit is not None
            and len(self.entries) - 1 < self.offset + self.limit
        ):
            return None
        position = self._bisect(entry.sort_key)
        changes = self._delete_changes(position, entry, timestamp)
        self._delete_at(position)
        return changes


class SortingNode:
    """One node of the sorting stage; owns a partition of sorted queries."""

    def __init__(self, node_index: int = 0, telemetry=None):
        self.node_index = node_index
        self._states: Dict[str, _SortedQueryState] = {}
        #: Last valid visible window per query — survives deactivation so
        #: a renewal can emit the delta "from the last valid to the
        #: current result representation" (Section 5.2).  Materialized
        #: lazily, only when a state is deactivated or hits a
        #: maintenance error (a live state's window IS the last valid
        #: one).
        self._last_visible: Dict[str, List[Tuple[Any, Document]]] = {}
        # -- runtime counters ------------------------------------------
        #: Filtering-stage events consumed (including events for
        #: unknown/inactive queries, which are dropped).
        self.events_processed = 0
        #: Maintenance errors emitted (each doubles as a renewal request).
        self.renewals_requested = 0
        #: Probe depth spent on window maintenance (summed over events,
        #: see ``_SortedQueryState.comparisons``; the per-event
        #: distribution is sort.window_ops).
        self.window_comparisons = 0
        #: Match events dropped because the originating write's latency
        #: budget expired in flight (deadline shedding).
        self.deadline_shed = 0
        # Telemetry: distribution of the slack remaining after each
        # event — how close limit queries run to a maintenance error —
        # and of the per-event window work (comparisons).
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._slack_hist = tel.histogram("sort.slack_remaining")
        self._window_ops_hist = tel.histogram("sort.window_ops")

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register_query(
        self,
        query: Query,
        bootstrap: List[Document],
        versions: Dict[Any, int],
        slack: int,
        timestamp: float = 0.0,
    ) -> List[QueryChange]:
        """Activate (or renew) a sorted query with its extended result.

        *bootstrap* must come from the rewritten query (offset removed,
        limit extended by offset + slack).  On first registration no
        notifications are produced — the initial result reaches the
        subscriber through the application server.  On re-registration
        (renewal, or another app server subscribing) the delta between
        the last valid and the fresh visible window is emitted.
        """
        previous_state = self._states.get(query.query_id)
        if previous_state is not None:
            previous: Optional[List[Tuple[Any, Document]]] = (
                previous_state.visible()
            )
        else:
            previous = self._last_visible.get(query.query_id)
        state = _SortedQueryState(query, slack)
        state.bootstrap(bootstrap, versions)
        self._states[query.query_id] = state
        # The live state owns the last-valid window from here on.
        self._last_visible.pop(query.query_id, None)
        if previous is None:
            return []
        return diff_windows(query.query_id, previous, state.visible(),
                            positional=True, timestamp=timestamp)

    def deactivate_query(self, query_id: str) -> bool:
        state = self._states.pop(query_id, None)
        if state is not None:
            # Keep the baseline the next registration's delta starts from.
            self._last_visible[query_id] = state.visible()
        return state is not None

    def active_queries(self) -> List[str]:
        return list(self._states)

    def state_of(self, query_id: str) -> Optional[_SortedQueryState]:
        return self._states.get(query_id)

    def visible_window(self, query_id: str) -> Optional[List[Document]]:
        """The query's current visible result documents, or None when
        the query is inactive (deactivated or renewing).  Read by the
        overload controller's snapshot-refresh shedding tier."""
        state = self._states.get(query_id)
        if state is None:
            return None
        return [document for _, document in state.visible()]

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------

    def handle_event(self, event: MatchEvent) -> List[QueryChange]:
        """Consume one filtering-stage event, emit visible-window changes."""
        self.events_processed += 1
        state = self._states.get(event.query_id)
        if state is None:
            return []
        comparisons_before = state.comparisons
        if event.match_type is MatchType.REMOVE:
            changes = state.apply_remove(
                event.key, event.version, event.timestamp
            )
        else:
            if event.document is None:
                return []
            changes = state.apply_upsert(
                event.key, event.document, event.version, event.timestamp
            )
        # Counted before the error path returns: the event that causes a
        # renewal probed the window too.
        probes = state.comparisons - comparisons_before
        self.window_comparisons += probes
        # Distribution shape only: sample 1-in-16 events, phase-locked
        # to the exact events_processed counter for determinism.
        sampled = (self.events_processed & 15) == 1
        if sampled:
            self._window_ops_hist.record(probes)
        if changes is None:
            # Unmaintainable — the state was NOT mutated, so its current
            # window is the last valid one; store it for renewal deltas.
            self._last_visible[event.query_id] = state.visible()
            return [self._maintenance_error(state, event)]
        if sampled:
            slack = state.current_slack()
            if slack is not None:
                self._slack_hist.record(slack)
        return changes

    def _maintenance_error(
        self, state: _SortedQueryState, event: MatchEvent
    ) -> QueryChange:
        """Deactivate the query and emit the renewal-request error."""
        self.renewals_requested += 1
        query_id = state.query.query_id
        # The last *valid* window precedes the failing operation; it is
        # already stored in _last_visible and intentionally kept there.
        del self._states[query_id]
        error = QueryMaintenanceError(query_id)
        return QueryChange(
            query_id=query_id,
            match_type=MatchType.ERROR,
            key=event.key,
            document=None,
            error=str(error),
            timestamp=event.timestamp,
        )

    @property
    def query_count(self) -> int:
        return len(self._states)

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot of this node's window maintenance."""
        return {
            "queries": self.query_count,
            "events_processed": self.events_processed,
            "renewals_requested": self.renewals_requested,
            "window_comparisons": self.window_comparisons,
            "deadline_shed": self.deadline_shed,
        }
