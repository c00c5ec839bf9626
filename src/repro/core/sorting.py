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

Two event-application paths share these semantics:

* the **incremental** path (default) keeps a key→entry map plus a
  bisect-ordered parallel sort-key list, locates an entry's old and new
  positions in O(log W) comparisons, and derives the exact
  ``add``/``remove``/``change``/``changeIndex`` stream from positional
  arithmetic on the offset/limit window boundaries — no linear scans,
  no full-window snapshots, no dict-rebuilding diff;
* the **legacy** path (``incremental=False``) diffs full before/after
  snapshots of the visible window, O(W) per event.  It is retained as
  the reference implementation for the equivalence suite and for A/B
  benchmarks; both paths produce bit-for-bit identical notification
  streams, maintenance errors and horizon transitions.

An event changes window membership by at most three entries (the
written item plus one entry crossing each window boundary), so the
incremental differ emits from those positions alone: removals ordered
by their old window index first, then additions and the written item's
transition ordered by new window index — exactly the order the
snapshot diff produces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.filtering import MatchEvent
from repro.core.notifications import QueryChange
from repro.errors import QueryMaintenanceError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.query.engine import MongoQueryEngine, PluggableQueryEngine, Query
from repro.query.normalize import normalize_node
from repro.types import Document, MatchType


@dataclass
class _Entry:
    sort_key: Tuple[Any, ...]
    key: Any
    document: Document
    version: int


class _SortedQueryState:
    """Ordered window of one sorted query."""

    def __init__(self, query: Query, slack: int, incremental: bool = True):
        if query.sort is None:
            raise ValueError("sorting stage only accepts sorted queries")
        self.query = query
        self.slack = slack
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
        self.active = True
        self.incremental = incremental
        #: Sort-key comparisons (and legacy scan steps) spent maintaining
        #: this window — the per-event work metric behind sort.window_ops.
        self.comparisons = 0
        # Incremental-mode structures: a parallel, bisect-ordered list of
        # sort keys (positions in O(log W)) and a key→entry map
        # (membership in O(1)).  Unmaintained on the legacy path.
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
        if self.incremental:
            self._sort_keys = [entry.sort_key for entry in self.entries]
            self._by_key = {entry.key: entry for entry in self.entries}
        self.active = True

    # ------------------------------------------------------------------
    # Legacy path: linear scans + full-window snapshot diffing.
    # ------------------------------------------------------------------

    def _position_of(self, key: Any) -> Optional[int]:
        for index, entry in enumerate(self.entries):
            self.comparisons += 1
            if entry.key == key:
                return index
        return None

    def _insert(self, entry: _Entry) -> None:
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            self.comparisons += 1
            if self.entries[mid].sort_key < entry.sort_key:
                lo = mid + 1
            else:
                hi = mid
        self.entries.insert(lo, entry)

    def _truncate(self) -> None:
        if self.capacity is not None and len(self.entries) > self.capacity:
            del self.entries[self.capacity :]
            self.complete = False
            self.horizon = self.entries[-1].sort_key

    def upsert(self, key: Any, document: Document, version: int) -> bool:
        """Apply an add/change event for a matching item.

        Returns False when the window became unmaintainable: an update
        that demotes a window member below the knowledge horizon acts
        like a removal and can exhaust the slack just the same.
        """
        sort = self.query.sort
        assert sort is not None
        position = self._position_of(key)
        was_member = position is not None
        if position is not None:
            if version < self.entries[position].version:
                return True
            del self.entries[position]
        entry = _Entry(sort.key(document), key, document, version)
        if not self.complete and self.horizon is not None:
            if entry.sort_key > self.horizon:
                # Below the knowledge horizon: cannot be placed correctly.
                if (
                    was_member
                    and self.limit is not None
                    and len(self.entries) < self.offset + self.limit
                ):
                    return False
                return True
        self._insert(entry)
        self._truncate()
        return True

    def remove(self, key: Any, version: int) -> bool:
        """Apply a remove event.

        Returns False when the window became unmaintainable (a query
        maintenance error the caller must surface).
        """
        position = self._position_of(key)
        if position is None:
            return True
        if version < self.entries[position].version:
            return True
        del self.entries[position]
        if self.complete:
            return True
        if self.limit is not None and len(self.entries) < self.offset + self.limit:
            return False
        return True

    # ------------------------------------------------------------------
    # Incremental path: O(log W) positioning + positional diffing.
    # ------------------------------------------------------------------

    def _bisect(self, sort_key: Tuple[Any, ...]) -> int:
        """Leftmost insertion point of *sort_key*, counting comparisons."""
        keys = self._sort_keys
        lo, hi = 0, len(keys)
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if keys[mid] < sort_key:
                lo = mid + 1
            else:
                hi = mid
        self.comparisons += steps
        return lo

    def _insert_at(self, position: int, entry: _Entry) -> None:
        self.entries.insert(position, entry)
        self._sort_keys.insert(position, entry.sort_key)
        self._by_key[entry.key] = entry

    def _delete_at(self, position: int) -> _Entry:
        entry = self.entries.pop(position)
        self._sort_keys.pop(position)
        del self._by_key[entry.key]
        return entry

    def _truncate_fast(self) -> None:
        capacity = self.capacity
        if capacity is not None and len(self.entries) > capacity:
            for entry in self.entries[capacity:]:
                del self._by_key[entry.key]
            del self.entries[capacity:]
            del self._sort_keys[capacity:]
            self.complete = False
            self.horizon = self.entries[-1].sort_key

    def _geometry(
        self, view: Optional["_WindowView"]
    ) -> Tuple[int, Optional[int], str]:
        """(offset, limit, query_id) the boundary differs are scoped to.

        ``None`` (the solo default) is this state's own query; a shared
        window core passes each attached view so one mutation can be
        diffed against every subscriber's offset/limit projection.
        """
        if view is None:
            return self.offset, self.limit, self.query.query_id
        return view.offset, view.limit, view.query.query_id

    def _change(
        self,
        match_type: MatchType,
        entry_key: Any,
        document: Document,
        timestamp: float,
        index: Optional[int] = None,
        old_index: Optional[int] = None,
        query_id: Optional[str] = None,
    ) -> QueryChange:
        return QueryChange(
            query_id=self.query.query_id if query_id is None else query_id,
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
        view: Optional["_WindowView"] = None,
    ) -> List[QueryChange]:
        """Visible-window changes of deleting the entry at *position*.

        Must be called BEFORE the deletion mutates the list.
        """
        n = len(self.entries)
        offset, limit, query_id = self._geometry(view)
        end = offset + limit if limit is not None else n
        changes: List[QueryChange] = []
        if position < offset:
            # The first visible item slides into the offset region …
            if n > offset:
                slid = self.entries[offset]
                changes.append(self._change(
                    MatchType.REMOVE, slid.key, slid.document, timestamp,
                    old_index=0, query_id=query_id,
                ))
            # … and the first item beyond the limit becomes visible.
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1, query_id=query_id,
                ))
        elif position < end:
            changes.append(self._change(
                MatchType.REMOVE, entry.key, entry.document, timestamp,
                old_index=position - offset, query_id=query_id,
            ))
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1, query_id=query_id,
                ))
        return changes

    def _insert_changes(
        self,
        position: int,
        entry: _Entry,
        timestamp: float,
        view: Optional["_WindowView"] = None,
    ) -> List[QueryChange]:
        """Visible-window changes of inserting *entry* at *position*.

        Must be called BEFORE the insertion mutates the list.
        """
        n = len(self.entries)
        offset, limit, query_id = self._geometry(view)
        end = offset + limit if limit is not None else n + 2
        changes: List[QueryChange] = []
        if position < offset:
            # The last visible item is pushed beyond the limit …
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1, query_id=query_id,
                ))
            # … and the last offset item is pushed into the window.
            if n >= offset:
                pushed_in = self.entries[offset - 1]
                changes.append(self._change(
                    MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0, query_id=query_id,
                ))
        elif position < end:
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1, query_id=query_id,
                ))
            changes.append(self._change(
                MatchType.ADD, entry.key, entry.document, timestamp,
                index=position - offset, query_id=query_id,
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
        view: Optional["_WindowView"] = None,
    ) -> List[QueryChange]:
        """Changes of relocating the written entry old→new position.

        The list length is unchanged by a move, so at most one entry
        crosses each window boundary; everything else keeps its window
        membership (and, per the diff contract, silently shifts).
        Must be called BEFORE the move mutates the list.
        """
        n = len(self.entries)
        offset, limit, query_id = self._geometry(view)
        end = offset + limit if limit is not None else n + 1
        removes: List[QueryChange] = []
        others: List[QueryChange] = []
        if old_position < new_position:
            # Entries in (old, new] shift one position down.
            if old_position < offset <= new_position:
                slid = self.entries[offset]
                removes.append(self._change(
                    MatchType.REMOVE, slid.key, slid.document, timestamp,
                    old_index=0, query_id=query_id,
                ))
            if limit is not None and old_position < end <= new_position:
                pulled = self.entries[end]
                others.append(self._change(
                    MatchType.ADD, pulled.key, pulled.document, timestamp,
                    index=limit - 1, query_id=query_id,
                ))
        elif new_position < old_position:
            # Entries in [new, old) shift one position up.
            if new_position <= offset - 1 < old_position:
                pushed_in = self.entries[offset - 1]
                others.append(self._change(
                    MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0, query_id=query_id,
                ))
            if limit is not None and new_position <= end - 1 < old_position:
                pushed = self.entries[end - 1]
                removes.append(self._change(
                    MatchType.REMOVE, pushed.key, pushed.document, timestamp,
                    old_index=limit - 1, query_id=query_id,
                ))
        was_visible = offset <= old_position < end
        is_visible = offset <= new_position < end
        if was_visible and is_visible:
            if old_position != new_position:
                others.append(self._change(
                    MatchType.CHANGE_INDEX, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset, query_id=query_id,
                ))
            elif old_document != document:
                others.append(self._change(
                    MatchType.CHANGE, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset, query_id=query_id,
                ))
        elif was_visible:
            removes.append(self._change(
                MatchType.REMOVE, key, old_document, timestamp,
                old_index=old_position - offset, query_id=query_id,
            ))
        elif is_visible:
            others.append(self._change(
                MatchType.ADD, key, document, timestamp,
                index=new_position - offset, query_id=query_id,
            ))
        removes.sort(key=lambda change: change.old_index)  # type: ignore[arg-type, return-value]
        others.sort(key=lambda change: change.index)  # type: ignore[arg-type, return-value]
        return removes + others

    def apply_upsert(
        self, key: Any, document: Document, version: int, timestamp: float
    ) -> Optional[List[QueryChange]]:
        """Incremental add/change: mutate + diff in one positional pass.

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
            self._truncate_fast()
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
        """Incremental remove; None signals a maintenance error."""
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


class _WindowView:
    """One query's offset/limit projection over a shared window core."""

    __slots__ = ("query", "offset", "limit", "slack", "active")

    def __init__(self, query: Query, slack: int):
        self.query = query
        self.offset = query.offset
        self.limit = query.limit
        self.slack = slack
        self.active = True


class _ViewError:
    """Per-view maintenance-error marker computed at mutation time.

    Carries the view's last valid visible window (captured BEFORE the
    shared core mutated), mirroring the solo path where an erroring
    state is left unmutated."""

    __slots__ = ("last_visible",)

    def __init__(self, last_visible: List[Tuple[Any, Document]]):
        self.last_visible = last_visible


_ViewResult = Union[List[QueryChange], _ViewError]


class _SharedWindowCore(_SortedQueryState):
    """One maintained sorted window serving many same-signature views.

    Sorted queries whose canonical ``(collection, filter, sort,
    capacity)`` signature coincides share ONE ordered window; each
    subscriber is a cheap :class:`_WindowView` whose notifications are
    the boundary differ run against its own offset/limit geometry.
    Capacity (= offset + limit + slack) is part of the signature, so
    truncation, the knowledge horizon and completeness transitions are
    common to every view — only the visible projection differs.

    Mutation protocol: each view still receives its own copy of every
    match event (the filtering stage fans per query).  The FIRST view
    event for a given ``(kind, key, version)`` applies the mutation
    once and computes every attached view's changes against the
    pre-mutation window; the results are buffered and later sibling
    events pop theirs.  A view whose threshold check fails gets a
    :class:`_ViewError` (its pre-mutation visible window attached)
    while surviving views keep riding the mutated core — exactly the
    per-query semantics of the solo path.  A view that attached after
    a write was applied simply finds no buffered entry and emits
    nothing, matching a solo state bootstrapped past that write.
    """

    def __init__(self, query: Query, slack: int):
        super().__init__(query, slack, incremental=True)
        self.views: Dict[str, _WindowView] = {}
        self.signature: Any = None
        #: (kind, key, version) -> {query_id: buffered result}.
        self._pending: "OrderedDict[Tuple[str, Any, int], Dict[str, _ViewResult]]" = (
            OrderedDict()
        )

    # -- view membership ------------------------------------------------

    def attach(self, view: _WindowView) -> None:
        self.views[view.query.query_id] = view

    def detach(self, query_id: str) -> None:
        self.views.pop(query_id, None)
        for token in list(self._pending):
            waiting = self._pending[token]
            waiting.pop(query_id, None)
            if not waiting:
                del self._pending[token]

    def visible_for(self, view: _WindowView) -> List[Tuple[Any, Document]]:
        window = self.entries[view.offset:]
        if view.limit is not None:
            window = window[: view.limit]
        return [(entry.key, entry.document) for entry in window]

    def matches_state(self, candidate: "_SortedQueryState") -> bool:
        """Would a fresh solo bootstrap coincide with this window?

        Attachment requires exact coincidence — entries (key, version,
        sort key, document), completeness and horizon — so a shared
        view's stream is unconditionally byte-identical to the solo
        state the subscriber would otherwise own."""
        if (
            candidate.complete != self.complete
            or candidate.horizon != self.horizon
            or len(candidate.entries) != len(self.entries)
        ):
            return False
        for mine, theirs in zip(self.entries, candidate.entries):
            if (
                mine.key != theirs.key
                or mine.version != theirs.version
                or mine.sort_key != theirs.sort_key
                or mine.document != theirs.document
            ):
                return False
        return True

    # -- shared mutation ------------------------------------------------

    def consume_upsert(
        self, query_id: str, key: Any, document: Document, version: int,
        timestamp: float,
    ) -> _ViewResult:
        return self._consume(
            ("up", key, version), query_id,
            lambda: self._shared_upsert(key, document, version, timestamp),
        )

    def consume_remove(
        self, query_id: str, key: Any, version: int, timestamp: float
    ) -> _ViewResult:
        return self._consume(
            ("rm", key, version), query_id,
            lambda: self._shared_remove(key, version, timestamp),
        )

    def _consume(self, token, query_id, compute) -> _ViewResult:
        # Per-view streams must follow the core's apply order.  When the
        # event layer interleaves cross-partition deliveries, this view
        # may be consuming a newer write while older applied writes
        # still hold buffered results for it — drain those first (the
        # OrderedDict iterates in apply order), so the concatenated
        # emission reads exactly like a solo state that applied the
        # writes in the core's order.
        prefix: List[QueryChange] = []
        for other_token in list(self._pending):
            if other_token == token:
                break
            other = self._pending[other_token]
            buffered = other.pop(query_id, None)
            if not other:
                del self._pending[other_token]
            if buffered is None:
                continue
            if isinstance(buffered, _ViewError):
                # The view erred on an older write: surface the error
                # now; the renewal delta recovers anything skipped.
                return buffered
            prefix.extend(buffered)
        waiting = self._pending.get(token)
        if waiting is None:
            waiting = compute()
            self._pending[token] = waiting
            # Bound the buffer: entries for views that never collect
            # (e.g. recomputations for late joiners) must not pile up.
            cap = 64 + 4 * len(self.views)
            while len(self._pending) > cap:
                self._pending.popitem(last=False)
        result = waiting.pop(query_id, None)
        if not waiting:
            self._pending.pop(token, None)
        if result is None:
            # This view joined after the write was applied; its solo
            # twin bootstrapped past it and would emit nothing either.
            return prefix
        if isinstance(result, _ViewError):
            return result
        if prefix:
            prefix.extend(result)
            return prefix
        return result

    def _shared_upsert(
        self, key: Any, document: Document, version: int, timestamp: float
    ) -> Dict[str, _ViewResult]:
        """One-mutation twin of :meth:`apply_upsert`, diffed per view."""
        views = list(self.views.values())
        sort = self.query.sort
        assert sort is not None
        existing = self._by_key.get(key)
        if existing is not None and version < existing.version:
            return {v.query.query_id: [] for v in views}
        new_sort_key = sort.key(document)
        below_horizon = False
        if not self.complete and self.horizon is not None:
            self.comparisons += 1
            below_horizon = new_sort_key > self.horizon
        if existing is None:
            if below_horizon:
                return {v.query.query_id: [] for v in views}
            position = self._bisect(new_sort_key)
            entry = _Entry(new_sort_key, key, document, version)
            out: Dict[str, _ViewResult] = {
                v.query.query_id:
                    self._insert_changes(position, entry, timestamp, view=v)
                for v in views
            }
            self._insert_at(position, entry)
            self._truncate_fast()
            return out
        old_position = self._bisect(existing.sort_key)
        if below_horizon:
            # Demotion below the horizon acts like a removal; each view
            # runs its own threshold check against its own geometry.
            out = {}
            for v in views:
                if (
                    v.limit is not None
                    and len(self.entries) - 1 < v.offset + v.limit
                ):
                    out[v.query.query_id] = _ViewError(self.visible_for(v))
                else:
                    out[v.query.query_id] = self._delete_changes(
                        old_position, existing, timestamp, view=v
                    )
            self._delete_at(old_position)
            return out
        insertion_point = self._bisect(new_sort_key)
        new_position = (
            insertion_point - 1 if insertion_point > old_position
            else insertion_point
        )
        out = {
            v.query.query_id: self._move_changes(
                old_position, new_position, existing.document, document,
                key, timestamp, view=v,
            )
            for v in views
        }
        self.entries.pop(old_position)
        self._sort_keys.pop(old_position)
        updated = _Entry(new_sort_key, key, document, version)
        self.entries.insert(new_position, updated)
        self._sort_keys.insert(new_position, new_sort_key)
        self._by_key[key] = updated
        return out

    def _shared_remove(
        self, key: Any, version: int, timestamp: float
    ) -> Dict[str, _ViewResult]:
        """One-mutation twin of :meth:`apply_remove`, diffed per view."""
        views = list(self.views.values())
        entry = self._by_key.get(key)
        if entry is None or version < entry.version:
            return {v.query.query_id: [] for v in views}
        out: Dict[str, _ViewResult] = {}
        survivors: List[_WindowView] = []
        for v in views:
            if (
                not self.complete
                and v.limit is not None
                and len(self.entries) - 1 < v.offset + v.limit
            ):
                out[v.query.query_id] = _ViewError(self.visible_for(v))
            else:
                survivors.append(v)
        position = self._bisect(entry.sort_key)
        for v in survivors:
            out[v.query.query_id] = self._delete_changes(
                position, entry, timestamp, view=v
            )
        self._delete_at(position)
        return out


class _SharedViewHandle:
    """Per-query facade over a shared core (``state_of`` compat)."""

    __slots__ = ("core", "view")

    def __init__(self, core: _SharedWindowCore, view: _WindowView):
        self.core = core
        self.view = view

    @property
    def query(self) -> Query:
        return self.view.query

    @property
    def active(self) -> bool:
        return self.view.active

    @active.setter
    def active(self, value: bool) -> None:
        self.view.active = value

    @property
    def slack(self) -> int:
        return self.view.slack

    @property
    def offset(self) -> int:
        return self.view.offset

    @property
    def limit(self) -> Optional[int]:
        return self.view.limit

    @property
    def entries(self) -> List[_Entry]:
        return self.core.entries

    @property
    def complete(self) -> bool:
        return self.core.complete

    @property
    def horizon(self) -> Optional[Tuple[Any, ...]]:
        return self.core.horizon

    @property
    def comparisons(self) -> int:
        return self.core.comparisons

    def visible(self) -> List[Tuple[Any, Document]]:
        return self.core.visible_for(self.view)

    def current_slack(self) -> Optional[int]:
        if self.view.limit is None:
            return None
        return max(
            0,
            len(self.core.entries) - (self.view.offset + self.view.limit),
        )


class _ChurnStats:
    """Per-query churn signals feeding the slack advisor."""

    __slots__ = ("events", "removes", "errors", "low_water")

    def __init__(self) -> None:
        self.events = 0
        self.removes = 0
        self.errors = 0
        self.low_water: Optional[int] = None


class SlackAdvisor:
    """Derive per-query slack from observed churn (paper footnote 5).

    Tracks, per query, the low-water mark of the remaining slack and
    the remove share of its event stream — the per-query decomposition
    of the ``sort.slack_remaining`` histogram — and recommends:

    * :meth:`grow` after a maintenance error: delete-heavy queries jump
      preemptively (``current * growth_factor``); a stable query that
      hit a fluke error grows by a single step instead of the blind
      renewal factor;
    * :meth:`shrink` on re-execution of a stable query: once enough
      events passed without an error, with a low remove share and the
      low-water mark comfortably above half the budget, half the
      budget is handed back.
    """

    def __init__(
        self,
        growth_factor: float = 4.0,
        min_events: int = 32,
        delete_heavy_ratio: float = 0.25,
        floor: int = 1,
    ):
        self.growth_factor = growth_factor
        self.min_events = min_events
        self.delete_heavy_ratio = delete_heavy_ratio
        self.floor = floor
        self._stats: Dict[str, _ChurnStats] = {}

    def observe(
        self,
        query_id: str,
        match_type: MatchType,
        slack_remaining: Optional[int] = None,
    ) -> None:
        stats = self._stats.get(query_id)
        if stats is None:
            stats = self._stats[query_id] = _ChurnStats()
        stats.events += 1
        if match_type is MatchType.REMOVE:
            stats.removes += 1
        if slack_remaining is not None and (
            stats.low_water is None or slack_remaining < stats.low_water
        ):
            stats.low_water = slack_remaining

    def observe_error(self, query_id: str) -> None:
        stats = self._stats.get(query_id)
        if stats is None:
            stats = self._stats[query_id] = _ChurnStats()
        stats.errors += 1

    def _delete_heavy(self, stats: Optional[_ChurnStats]) -> bool:
        if stats is None or not stats.events:
            return False
        return stats.removes / stats.events >= self.delete_heavy_ratio

    def grow(self, query_id: str, current: int) -> int:
        stats = self._stats.get(query_id)
        if self._delete_heavy(stats):
            return max(current + 1, int(current * self.growth_factor))
        return current + 1

    def shrink(self, query_id: str, current: int) -> int:
        """Recommended slack for a healthy re-execution (may keep it)."""
        stats = self._stats.get(query_id)
        if (
            stats is None
            or stats.errors
            or stats.events < self.min_events
            or self._delete_heavy(stats)
        ):
            return current
        if stats.low_water is not None and stats.low_water * 2 < current:
            return current
        return max(self.floor, (current + 1) // 2)

    def reset(self, query_id: str) -> None:
        """Forget a query's history (renewal starts a fresh budget)."""
        self._stats.pop(query_id, None)

    def forget(self, query_id: str) -> None:
        self._stats.pop(query_id, None)


class SortingNode:
    """One node of the sorting stage; owns a partition of sorted queries."""

    def __init__(self, node_index: int = 0,
                 engine: Optional[PluggableQueryEngine] = None,
                 telemetry=None,
                 incremental: bool = True,
                 shared_windows: bool = False,
                 adaptive_slack: bool = False):
        self.node_index = node_index
        self.engine = engine if engine is not None else MongoQueryEngine()
        #: Incremental window maintenance (O(log W) per event) vs the
        #: legacy snapshot-diff reference path (O(W) per event).
        self.incremental = incremental
        #: Same-signature sorted queries share one maintained window
        #: (requires the incremental path — views ride its differs).
        self.shared_windows = bool(shared_windows) and incremental
        #: canonical (collection, filter, sort, capacity) -> shared core.
        self._groups: Dict[Any, _SharedWindowCore] = {}
        #: Views attached to an existing shared core / solo fallbacks.
        self.shared_attach = 0
        self.shared_miss = 0
        #: Churn-driven slack recommendations (grow hints ride error
        #: changes as ``suggested_slack`` for the client's renewal).
        self.advisor: Optional[SlackAdvisor] = (
            SlackAdvisor() if adaptive_slack else None
        )
        self._states: Dict[str, Union[_SortedQueryState, _SharedViewHandle]] = {}
        #: Last valid visible window per query — survives deactivation so
        #: a renewal can emit the delta "from the last valid to the
        #: current result representation" (Section 5.2).  The legacy
        #: path re-materializes it after every event; the incremental
        #: path materializes lazily, only when a state is deactivated or
        #: hits a maintenance error (a live state's window IS the last
        #: valid one).
        self._last_visible: Dict[str, List[Tuple[Any, Document]]] = {}
        # -- runtime counters ------------------------------------------
        #: Filtering-stage events consumed (including events for
        #: unknown/inactive queries, which are dropped).
        self.events_processed = 0
        #: Maintenance errors emitted (each doubles as a renewal request).
        self.renewals_requested = 0
        #: Sort-key comparisons spent on window maintenance (summed over
        #: events; the per-event distribution is sort.window_ops).
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
        if previous_state is not None and previous_state.active:
            previous: Optional[List[Tuple[Any, Document]]] = (
                previous_state.visible()
            )
        else:
            previous = self._last_visible.get(query.query_id)
        if self.advisor is not None:
            # A (re-)registration starts a fresh churn budget.
            self.advisor.reset(query.query_id)
        if self.shared_windows:
            current = self._register_shared(query, bootstrap, versions, slack)
        else:
            state = _SortedQueryState(
                query, slack, incremental=self.incremental
            )
            state.bootstrap(bootstrap, versions)
            self._states[query.query_id] = state
            current = state.visible()
        if self.incremental:
            # The live state owns the last-valid window from here on.
            self._last_visible.pop(query.query_id, None)
        else:
            self._last_visible[query.query_id] = current
        if previous is None:
            return []
        return self._diff(query, previous, current, written_key=None,
                          timestamp=timestamp)

    def _register_shared(
        self,
        query: Query,
        bootstrap: List[Document],
        versions: Dict[Any, int],
        slack: int,
    ) -> List[Tuple[Any, Document]]:
        """Attach to (or found) a shared window; returns the visible set.

        Attachment to a live core happens ONLY when a fresh solo
        bootstrap would coincide exactly with the core's current window
        — otherwise (a lagging database snapshot, a version skew) the
        query runs solo and the next renewal may converge onto the
        group.  This keeps the shared stream unconditionally
        byte-identical to the per-query stream.
        """
        self._detach(query.query_id)
        signature = self._signature(query, slack)
        if signature is None:
            self.shared_miss += 1
            state = _SortedQueryState(query, slack, incremental=True)
            state.bootstrap(bootstrap, versions)
            self._states[query.query_id] = state
            return state.visible()
        core = self._groups.get(signature)
        if core is not None and core.views:
            candidate = _SortedQueryState(query, slack, incremental=True)
            candidate.bootstrap(bootstrap, versions)
            if core.matches_state(candidate):
                view = _WindowView(query, slack)
                core.attach(view)
                handle = _SharedViewHandle(core, view)
                self._states[query.query_id] = handle
                self.shared_attach += 1
                return handle.visible()
            self.shared_miss += 1
            self._states[query.query_id] = candidate
            return candidate.visible()
        shared = _SharedWindowCore(query, slack)
        shared.bootstrap(bootstrap, versions)
        shared.signature = signature
        view = _WindowView(query, slack)
        shared.attach(view)
        self._groups[signature] = shared
        handle = _SharedViewHandle(shared, view)
        self._states[query.query_id] = handle
        return handle.visible()

    @staticmethod
    def _signature(query: Query, slack: int) -> Optional[Any]:
        """Shared-window group key; None when the query can't share.

        Capacity (offset + limit + slack) is part of the key: views may
        differ in offset/limit/slack, but their maintained windows must
        truncate at the same depth to share completeness, horizon and
        entry list.  Unbounded queries (no limit) share on geometry
        alone — they never truncate.
        """
        if query.sort is None:
            return None
        try:
            canonical = normalize_node(query.node)
            capacity = (
                None if query.limit is None
                else query.offset + query.limit + slack
            )
            signature = (
                query.collection, canonical, query.sort.canonical(), capacity,
            )
            hash(signature)
        except TypeError:
            return None
        return signature

    def _detach(
        self, query_id: str
    ) -> Optional[Union[_SortedQueryState, _SharedViewHandle]]:
        """Drop a query's state; shared views also leave their core."""
        state = self._states.pop(query_id, None)
        if isinstance(state, _SharedViewHandle):
            core = state.core
            core.detach(query_id)
            if not core.views and self._groups.get(core.signature) is core:
                del self._groups[core.signature]
        return state

    def deactivate_query(self, query_id: str) -> bool:
        state = self._states.get(query_id)
        if state is not None and self.incremental and state.active:
            # Preserve the renewal baseline the legacy path keeps hot.
            self._last_visible[query_id] = state.visible()
        self._detach(query_id)
        if self.advisor is not None:
            self.advisor.forget(query_id)
        return state is not None

    def active_queries(self) -> List[str]:
        return [qid for qid, state in self._states.items() if state.active]

    def state_of(
        self, query_id: str
    ) -> Optional[Union[_SortedQueryState, _SharedViewHandle]]:
        return self._states.get(query_id)

    @property
    def shared_group_count(self) -> int:
        return len(self._groups)

    def visible_window(self, query_id: str) -> Optional[List[Document]]:
        """The query's current visible result documents, or None when
        the query is inactive (deactivated or renewing).  Read by the
        overload controller's snapshot-refresh shedding tier."""
        state = self._states.get(query_id)
        if state is None or not state.active:
            return None
        return [document for _, document in state.visible()]

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------

    def handle_event(self, event: MatchEvent) -> List[QueryChange]:
        """Consume one filtering-stage event, emit visible-window changes."""
        self.events_processed += 1
        state = self._states.get(event.query_id)
        if state is None or not state.active:
            return []
        if isinstance(state, _SharedViewHandle):
            return self._handle_event_shared(state, event)
        if not self.incremental:
            return self._handle_event_legacy(state, event)
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
        if changes is None:
            # Unmaintainable — the state was NOT mutated, so its current
            # window is the last valid one; store it for renewal deltas.
            self._last_visible[event.query_id] = state.visible()
            return [self._maintenance_error(state, event)]
        self.window_comparisons += state.comparisons - comparisons_before
        if self.advisor is not None:
            self.advisor.observe(
                event.query_id, event.match_type, state.current_slack()
            )
        # Distribution shape only: sample 1-in-16 events, phase-locked
        # to the exact events_processed counter for determinism.
        if (self.events_processed & 15) == 1:
            slack = state.current_slack()
            if slack is not None:
                self._slack_hist.record(slack)
            self._window_ops_hist.record(
                state.comparisons - comparisons_before
            )
        return changes

    def _handle_event_shared(
        self, handle: _SharedViewHandle, event: MatchEvent
    ) -> List[QueryChange]:
        """Shared-window twin of the incremental path.

        The first view event per write mutates the core and buffers
        every sibling view's changes; later siblings pop theirs, so the
        per-view streams are byte-identical to solo maintenance while
        the window work is paid once per group."""
        core = handle.core
        comparisons_before = core.comparisons
        if event.match_type is MatchType.REMOVE:
            result = core.consume_remove(
                event.query_id, event.key, event.version, event.timestamp
            )
        else:
            if event.document is None:
                return []
            result = core.consume_upsert(
                event.query_id, event.key, event.document, event.version,
                event.timestamp,
            )
        self.window_comparisons += core.comparisons - comparisons_before
        if isinstance(result, _ViewError):
            # This view hit its threshold; siblings keep riding the
            # (already mutated) core.  The marker carries the view's
            # pre-mutation window — its last valid one.
            self._last_visible[event.query_id] = result.last_visible
            return [self._maintenance_error(handle, event)]
        if self.advisor is not None:
            self.advisor.observe(
                event.query_id, event.match_type, handle.current_slack()
            )
        if (self.events_processed & 15) == 1:
            slack = handle.current_slack()
            if slack is not None:
                self._slack_hist.record(slack)
            self._window_ops_hist.record(
                core.comparisons - comparisons_before
            )
        return result

    def _handle_event_legacy(
        self, state: _SortedQueryState, event: MatchEvent
    ) -> List[QueryChange]:
        """Reference path: snapshot the window, mutate, snapshot, diff."""
        comparisons_before = state.comparisons
        before = state.visible()
        if event.match_type is MatchType.REMOVE:
            ok = state.remove(event.key, event.version)
        else:
            if event.document is None:
                return []
            ok = state.upsert(event.key, event.document, event.version)
        if not ok:
            return [self._maintenance_error(state, event)]
        self.window_comparisons += state.comparisons - comparisons_before
        if (self.events_processed & 15) == 1:
            slack = state.current_slack()
            if slack is not None:
                self._slack_hist.record(slack)
            self._window_ops_hist.record(
                state.comparisons - comparisons_before
            )
        after = state.visible()
        self._last_visible[event.query_id] = after
        return self._diff(
            state.query, before, after, written_key=event.key,
            timestamp=event.timestamp,
        )

    def _maintenance_error(
        self,
        state: Union[_SortedQueryState, _SharedViewHandle],
        event: MatchEvent,
    ) -> QueryChange:
        """Deactivate the query and emit the renewal-request error."""
        self.renewals_requested += 1
        state.active = False
        query_id = state.query.query_id
        # The last *valid* window precedes the failing operation; it is
        # already stored in _last_visible and intentionally kept there.
        self._detach(query_id)
        suggested: Optional[int] = None
        if self.advisor is not None:
            # Footnote 5: rather than the client's blind renewal factor,
            # recommend a slack sized to the observed churn.
            self.advisor.observe_error(query_id)
            suggested = self.advisor.grow(query_id, state.slack)
        error = QueryMaintenanceError(query_id)
        return QueryChange(
            query_id=query_id,
            match_type=MatchType.ERROR,
            key=event.key,
            document=None,
            error=str(error),
            timestamp=event.timestamp,
            suggested_slack=suggested,
        )

    # ------------------------------------------------------------------
    # Visible-window diffing (renewal deltas + the legacy path)
    # ------------------------------------------------------------------

    @staticmethod
    def _diff(
        query: Query,
        before: List[Tuple[Any, Document]],
        after: List[Tuple[Any, Document]],
        written_key: Any,
        timestamp: float,
    ) -> List[QueryChange]:
        before_index = {key: index for index, (key, _) in enumerate(before)}
        after_index = {key: index for index, (key, _) in enumerate(after)}
        changes: List[QueryChange] = []
        # Items that left the visible window.
        for key, document in before:
            if key not in after_index:
                changes.append(
                    QueryChange(
                        query_id=query.query_id,
                        match_type=MatchType.REMOVE,
                        key=key,
                        document=document,
                        old_index=before_index[key],
                        timestamp=timestamp,
                    )
                )
        # Items that entered, plus transitions of surviving items.
        for key, document in after:
            new_index = after_index[key]
            old_index = before_index.get(key)
            if old_index is None:
                changes.append(
                    QueryChange(
                        query_id=query.query_id,
                        match_type=MatchType.ADD,
                        key=key,
                        document=document,
                        index=new_index,
                        timestamp=timestamp,
                    )
                )
            elif written_key is None or key == written_key:
                document_changed = before[old_index][1] != document
                if old_index != new_index:
                    changes.append(
                        QueryChange(
                            query_id=query.query_id,
                            match_type=MatchType.CHANGE_INDEX,
                            key=key,
                            document=document,
                            index=new_index,
                            old_index=old_index,
                            timestamp=timestamp,
                        )
                    )
                elif document_changed:
                    changes.append(
                        QueryChange(
                            query_id=query.query_id,
                            match_type=MatchType.CHANGE,
                            key=key,
                            document=document,
                            index=new_index,
                            old_index=old_index,
                            timestamp=timestamp,
                        )
                    )
        return changes

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
            "shared_groups": self.shared_group_count,
            "shared_attach": self.shared_attach,
            "shared_miss": self.shared_miss,
            "deadline_shed": self.deadline_shed,
        }
