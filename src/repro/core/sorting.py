"""The sorting stage: ordered result maintenance (Section 5.2).

Sorted filter queries are not self-maintainable from per-record match
events alone: result membership can depend on an item's position, on
the items in the query's *offset*, and on items *beyond* the limit.
The sorting stage therefore maintains an ordered window of

    offset items | visible result (limit) | slack items beyond limit

bootstrapped from the rewritten query (``OFFSET 0``, ``LIMIT offset +
limit + slack``).

**Sort cores.**  Every page of one collection + canonical filter + sort
reads the same ordered prefix, so the stage keeps that prefix once: a
*core* (keyed by ``Query.core_id``) holds one ordered window, and each
sorted query is a *page* — an ``(offset, limit, slack)`` slice of it
with its own maintenance error, renewal and last valid window.  The
core is maintained down to ``max(offset + limit + slack)`` over its
attached pages, or unbounded if any of them has no limit.  A one-page
core is exactly the paper's per-query window.  The filtering stage
sends one event per (write, core), and the grid routes every page of a
core to one sorting task.

The core tracks a *knowledge horizon*: the sort position below which
matching items are unknown.  Invariant: the maintained entries are
exactly the true matching items ranking at or above the horizon.
Consequences:

* an incoming item ranking above the horizon is inserted at its true
  position; one ranking below is ignored (it cannot be placed
  correctly relative to unknown items);
* a removal shrinks the window; every page that then needs more
  entries than remain while knowledge is incomplete becomes
  unmaintainable — a **query maintenance error** detaches that page
  and emits an error notification doubling as a *query renewal
  request*; shallower pages carry on;
* when the window outgrows its capacity it is truncated and the
  horizon moves up, keeping memory bounded.

Each core keeps a key→entry map plus a bisect-ordered parallel list of
native sort keys (plain tuples, ``query/sortspec.py``), locates an
entry's old and new positions with ``bisect_left`` — O(log W)
comparisons, all in C — and derives each page's exact ``add``/
``remove``/``change``/``changeIndex`` stream from positional arithmetic
on that page's offset/limit boundaries.  Only the pages an event can
touch are diffed: a move from rank *i* to rank *j* the pages that
intersect [*i*, *j*], an insert or delete at rank *p* the pages ending
below *p*.

An event changes a page's membership by at most three entries (the
written item plus one entry crossing each boundary), so the differ
emits from those positions alone: removals ordered by their old window
index first, then additions and the written item's transition ordered
by new window index — the order in which a client applying them one by
one arrives at the new window.

**Attach merges, it never replaces.**  A page's bootstrap is applied to
a live core entry by entry through the same upsert path as a live event
(a version at or below the held one is dropped), so the pages already
attached receive the rows a merged entry causes.  The bootstrap also
vouches for its prefix: the core becomes complete when the bootstrap
is shorter than the page needs, else its horizon moves down to the
bootstrap's last entry.  The attaching page then receives the delta
from the window its subscriber holds — its last valid window on
renewal, else its bootstrap's slice — to its slice of the core; that
delta is empty unless a write overtook the subscribe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.filtering import MatchEvent
from repro.core.notifications import (
    QueryChange,
    Window,
    diff_windows,
    window_of,
)
from repro.errors import QueryMaintenanceError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.query.engine import Query
from repro.query.sortspec import SortSpec
from repro.types import Document, MatchType

#: What an event did to a core: the rows for its surviving pages, and
#: each page that failed with its last valid window.
_Outcome = Tuple[List[QueryChange], Sequence[Tuple["_Page", Window]]]


@dataclass
class _Entry:
    sort_key: Tuple[Any, ...]
    key: Any
    document: Document
    version: int


def _row(
    page: "_Page",
    match_type: MatchType,
    key: Any,
    document: Document,
    timestamp: float,
    index: Optional[int] = None,
    old_index: Optional[int] = None,
) -> QueryChange:
    return QueryChange(
        page.query_id, match_type, key, document, index, old_index, None,
        timestamp,
    )


class _Page:
    """One sorted query: an ``(offset, limit, slack)`` slice of its core."""

    __slots__ = ("query_id", "offset", "limit", "end", "need", "core")

    def __init__(self, query: Query, slack: int, core: "_SortCore"):
        self.query_id = query.query_id
        self.offset = query.offset
        self.limit = query.limit
        #: One past the last visible rank (None = no limit).
        self.end: Optional[int] = (
            None if query.limit is None else query.offset + query.limit
        )
        #: Entries the core must know for this page (None = all).
        self.need: Optional[int] = (
            None if self.end is None else self.end + slack
        )
        self.core = core

    def visible(self) -> Window:
        """The user-facing result window: entries[offset : offset+limit]."""
        return [(entry.key, entry.document)
                for entry in self.core.entries[self.offset:self.end]]


class _SortCore:
    """The ordered prefix every page of one filter + sort reads."""

    def __init__(self, core_id: str, sort: SortSpec):
        self.core_id = core_id
        self.sort = sort
        self.entries: List[_Entry] = []
        #: Attached pages, ordered by offset.
        self.pages: List[_Page] = []
        self.capacity: Optional[int] = 0
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

    # -- pages ----------------------------------------------------------------

    def attach(
        self,
        page: _Page,
        documents: List[Document],
        versions: Dict[Any, int],
        timestamp: float,
    ) -> List[QueryChange]:
        """Merge *page*'s bootstrap into the core, then attach the page.

        Returns the rows the merge caused on the pages already attached
        (none for a fresh core, which simply takes the bootstrap).
        """
        key_of = self.sort.key
        incoming = sorted(
            (_Entry(key_of(doc), doc["_id"], doc, versions.get(doc["_id"], 0))
             for doc in documents),
            key=lambda entry: entry.sort_key,
        )
        self.capacity = self._capacity(self.pages + [page])
        if page.need is None or len(incoming) < page.need:
            self.complete, self.horizon = True, None
        elif not self.pages or not self.complete:
            # The bootstrap vouches for its prefix down to its last entry.
            bottom = incoming[-1].sort_key if incoming else ()
            if not self.pages or bottom > self.horizon:  # type: ignore[operator]
                self.complete, self.horizon = False, bottom
        changes: List[QueryChange] = []
        if not self.pages:
            self.entries = incoming
            self._sort_keys = [entry.sort_key for entry in incoming]
            self._by_key = {entry.key: entry for entry in incoming}
        else:
            by_key = self._by_key
            for entry in incoming:
                held = by_key.get(entry.key)
                if held is None or entry.version > held.version:
                    changes.extend(self.apply_upsert(
                        entry.key, entry.document, entry.version, timestamp,
                    )[0])
        self._truncate()
        self.pages.append(page)
        self.pages.sort(key=lambda attached: attached.offset)
        return changes

    def detach(self, page: _Page) -> None:
        self.pages.remove(page)
        if self.pages:
            self._resize()

    @staticmethod
    def _capacity(pages: List[_Page]) -> Optional[int]:
        needs = [page.need for page in pages]
        return None if None in needs else max(needs)  # type: ignore[type-var]

    def _resize(self) -> None:
        """Shrink to what the attached pages still need."""
        self.capacity = self._capacity(self.pages)
        self._truncate()

    def current_slack(self) -> Optional[int]:
        """Removals the deepest page survives right now (None: the core
        is unbounded and never fails)."""
        if self.capacity is None:
            return None
        deepest = max(page.end for page in self.pages)  # type: ignore[type-var]
        return max(0, len(self.entries) - deepest)

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
            self.horizon = self.entries[-1].sort_key if self.entries else ()

    def _delete_changes(
        self,
        page: _Page,
        position: int,
        entry: _Entry,
        timestamp: float,
    ) -> List[QueryChange]:
        """*page*'s changes of deleting the entry at *position*.

        Must be called BEFORE the deletion mutates the list.
        """
        n = len(self.entries)
        offset, limit = page.offset, page.limit
        end = page.end if page.end is not None else n
        changes: List[QueryChange] = []
        if position < offset:
            # The first visible item slides into the offset region …
            if n > offset:
                slid = self.entries[offset]
                changes.append(_row(
                    page, MatchType.REMOVE, slid.key, slid.document,
                    timestamp, old_index=0,
                ))
            # … and the first item beyond the limit becomes visible.
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(_row(
                    page, MatchType.ADD, pulled.key, pulled.document,
                    timestamp, index=limit - 1,
                ))
        elif position < end:
            changes.append(_row(
                page, MatchType.REMOVE, entry.key, entry.document, timestamp,
                old_index=position - offset,
            ))
            if limit is not None and n > end:
                pulled = self.entries[end]
                changes.append(_row(
                    page, MatchType.ADD, pulled.key, pulled.document,
                    timestamp, index=limit - 1,
                ))
        return changes

    def _insert_changes(
        self,
        page: _Page,
        position: int,
        entry: _Entry,
        timestamp: float,
    ) -> List[QueryChange]:
        """*page*'s changes of inserting *entry* at *position*.

        Must be called BEFORE the insertion mutates the list.
        """
        n = len(self.entries)
        offset, limit = page.offset, page.limit
        end = page.end if page.end is not None else n + 2
        changes: List[QueryChange] = []
        if position < offset:
            # The last visible item is pushed beyond the limit …
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(_row(
                    page, MatchType.REMOVE, pushed.key, pushed.document,
                    timestamp, old_index=limit - 1,
                ))
            # … and the last offset item is pushed into the window.
            if n >= offset:
                pushed_in = self.entries[offset - 1]
                changes.append(_row(
                    page, MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0,
                ))
        elif position < end:
            if limit is not None and n >= end:
                pushed = self.entries[end - 1]
                changes.append(_row(
                    page, MatchType.REMOVE, pushed.key, pushed.document,
                    timestamp, old_index=limit - 1,
                ))
            changes.append(_row(
                page, MatchType.ADD, entry.key, entry.document, timestamp,
                index=position - offset,
            ))
        return changes

    def _move_changes(
        self,
        page: _Page,
        old_position: int,
        new_position: int,
        old_document: Document,
        document: Document,
        key: Any,
        timestamp: float,
    ) -> List[QueryChange]:
        """*page*'s changes of relocating the written entry old→new.

        The list length is unchanged by a move, so at most one entry
        crosses each window boundary; everything else keeps its window
        membership (and, per the diff contract, silently shifts).
        Must be called BEFORE the move mutates the list.
        """
        offset, limit = page.offset, page.limit
        end = page.end if page.end is not None else len(self.entries) + 1
        removes: List[QueryChange] = []
        others: List[QueryChange] = []
        if old_position < new_position:
            # Entries in (old, new] shift one position down.
            if old_position < offset <= new_position:
                slid = self.entries[offset]
                removes.append(_row(
                    page, MatchType.REMOVE, slid.key, slid.document,
                    timestamp, old_index=0,
                ))
            if limit is not None and old_position < end <= new_position:
                pulled = self.entries[end]
                others.append(_row(
                    page, MatchType.ADD, pulled.key, pulled.document,
                    timestamp, index=limit - 1,
                ))
        elif new_position < old_position:
            # Entries in [new, old) shift one position up.
            if new_position <= offset - 1 < old_position:
                pushed_in = self.entries[offset - 1]
                others.append(_row(
                    page, MatchType.ADD, pushed_in.key, pushed_in.document,
                    timestamp, index=0,
                ))
            if limit is not None and new_position <= end - 1 < old_position:
                pushed = self.entries[end - 1]
                removes.append(_row(
                    page, MatchType.REMOVE, pushed.key, pushed.document,
                    timestamp, old_index=limit - 1,
                ))
        was_visible = offset <= old_position < end
        is_visible = offset <= new_position < end
        if was_visible and is_visible:
            if old_position != new_position:
                others.append(_row(
                    page, MatchType.CHANGE_INDEX, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset,
                ))
            elif old_document != document:
                others.append(_row(
                    page, MatchType.CHANGE, key, document, timestamp,
                    index=new_position - offset,
                    old_index=old_position - offset,
                ))
        elif was_visible:
            removes.append(_row(
                page, MatchType.REMOVE, key, old_document, timestamp,
                old_index=old_position - offset,
            ))
        elif is_visible:
            others.append(_row(
                page, MatchType.ADD, key, document, timestamp,
                index=new_position - offset,
            ))
        removes.sort(key=lambda change: change.old_index)  # type: ignore[arg-type, return-value]
        others.sort(key=lambda change: change.index)  # type: ignore[arg-type, return-value]
        return removes + others

    def _remove_at(
        self, position: int, entry: _Entry, timestamp: float
    ) -> _Outcome:
        """Delete the entry at *position* and diff the pages it touches.

        First, while knowledge is incomplete, every page needing more
        entries than remain fails with its window from before the
        deletion; the capacity then shrinks to the survivors' needs.
        """
        failed: Sequence[Tuple[_Page, Window]] = ()
        if not self.complete:
            remaining = len(self.entries) - 1
            failing = [page for page in self.pages
                       if page.end is not None and remaining < page.end]
            if failing:
                failed = [(page, page.visible()) for page in failing]
                self.pages = [page for page in self.pages
                              if page not in failing]
                if not self.pages:
                    return [], failed
        changes: List[QueryChange] = []
        for page in self.pages:
            if page.end is None or position < page.end:
                changes.extend(
                    self._delete_changes(page, position, entry, timestamp)
                )
        self._delete_at(position)
        if failed:
            self._resize()
        return changes, failed

    def apply_upsert(
        self, key: Any, document: Document, version: int, timestamp: float
    ) -> _Outcome:
        """Apply an add/change event: mutate + diff in one positional pass."""
        existing = self._by_key.get(key)
        if existing is not None and version < existing.version:
            return [], ()
        new_sort_key = self.sort.key(document)
        below_horizon = False
        if not self.complete:
            self.comparisons += 1
            below_horizon = new_sort_key > self.horizon  # type: ignore[operator]
        if existing is None:
            if below_horizon:
                return [], ()
            position = self._bisect(new_sort_key)
            entry = _Entry(new_sort_key, key, document, version)
            changes: List[QueryChange] = []
            for page in self.pages:
                if page.end is None or position < page.end:
                    changes.extend(
                        self._insert_changes(page, position, entry, timestamp)
                    )
            self._insert_at(position, entry)
            self._truncate()
            return changes, ()
        old_position = self._bisect(existing.sort_key)
        if below_horizon:
            # Demotion below the horizon acts like a removal.
            return self._remove_at(old_position, existing, timestamp)
        insertion_point = self._bisect(new_sort_key)
        new_position = (
            insertion_point - 1 if insertion_point > old_position
            else insertion_point
        )
        low, high = sorted((old_position, new_position))
        changes = []
        for page in self.pages:
            if page.offset > high:
                break
            if page.end is None or low < page.end:
                changes.extend(self._move_changes(
                    page, old_position, new_position, existing.document,
                    document, key, timestamp,
                ))
        self.entries.pop(old_position)
        self._sort_keys.pop(old_position)
        updated = _Entry(new_sort_key, key, document, version)
        self.entries.insert(new_position, updated)
        self._sort_keys.insert(new_position, new_sort_key)
        self._by_key[key] = updated
        return changes, ()

    def apply_remove(self, key: Any, version: int, timestamp: float) -> _Outcome:
        """Apply a remove event."""
        entry = self._by_key.get(key)
        if entry is None or version < entry.version:
            return [], ()
        return self._remove_at(self._bisect(entry.sort_key), entry, timestamp)


class SortingNode:
    """One node of the sorting stage; owns a partition of sort cores."""

    def __init__(self, node_index: int = 0, telemetry=None):
        self.node_index = node_index
        self._cores: Dict[str, _SortCore] = {}
        #: Attached pages by query id.
        self._pages: Dict[str, _Page] = {}
        #: Last valid visible window per page — survives detachment so
        #: a renewal can emit the delta "from the last valid to the
        #: current result representation" (Section 5.2).  Recorded only
        #: when a page is detached or hits a maintenance error (a live
        #: page's window IS the last valid one).
        self._last_visible: Dict[str, Window] = {}
        # -- runtime counters ------------------------------------------
        #: Filtering-stage events consumed, one per (write, core)
        #: (including events for unknown cores, which are dropped).
        self.events_processed = 0
        #: Maintenance errors emitted (each doubles as a renewal request).
        self.renewals_requested = 0
        #: Probe depth spent on window maintenance (summed over events,
        #: see ``_SortCore.comparisons``; the per-event distribution is
        #: sort.window_ops).
        self.window_comparisons = 0
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
        """Attach (or renew) one page of a sort core.

        *bootstrap* must come from the rewritten query (offset removed,
        limit extended by offset + slack).  A page that is attached is
        detached first.  The bootstrap merges into the page's core (a
        fresh core takes it as is), and the pages already attached get
        the rows the merge causes.  The page itself gets the delta from
        its last valid window (renewal, another app server subscribing)
        or, on a first attach to a live core, from its bootstrap's
        slice; a first attach that creates the core emits nothing — the
        initial result reaches the subscriber through the app server.
        """
        if query.sort is None:
            raise ValueError("sorting stage only accepts sorted queries")
        page_id = query.query_id
        previous = self._detach(page_id)
        if previous is None:
            previous = self._last_visible.pop(page_id, None)
        core = self._cores.get(query.core_id)
        if core is None:
            core = self._cores[query.core_id] = _SortCore(
                query.core_id, query.sort
            )
        elif previous is None:
            # What the subscriber got as its initial result.
            previous = window_of(bootstrap[query.offset:][:query.limit])
        page = _Page(query, slack, core)
        changes = core.attach(page, bootstrap, versions, timestamp)
        self._pages[page_id] = page
        if previous is not None:
            changes.extend(diff_windows(page_id, previous, page.visible(),
                                        positional=True, timestamp=timestamp))
        return changes

    def deactivate_query(self, query_id: str) -> bool:
        window = self._detach(query_id)
        if window is None:
            return False
        # Keep the baseline the next registration's delta starts from.
        self._last_visible[query_id] = window
        return True

    def _detach(self, query_id: str) -> Optional[Window]:
        """Detach an attached page; its window, else None.  A core goes
        with its last page."""
        page = self._pages.pop(query_id, None)
        if page is None:
            return None
        window = page.visible()
        core = page.core
        core.detach(page)
        if not core.pages:
            del self._cores[core.core_id]
        return window

    def active_queries(self) -> List[str]:
        return list(self._pages)

    def state_of(self, query_id: str) -> Optional[_Page]:
        return self._pages.get(query_id)

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------

    def handle_event(self, event: MatchEvent) -> List[QueryChange]:
        """Consume one filtering-stage event (its ``query_id`` is a core
        id), emit the changes of every page it affects."""
        self.events_processed += 1
        core = self._cores.get(event.query_id)
        if core is None:
            return []
        comparisons_before = core.comparisons
        if event.match_type is MatchType.REMOVE:
            changes, failed = core.apply_remove(
                event.key, event.version, event.timestamp
            )
        else:
            if event.document is None:
                return []
            changes, failed = core.apply_upsert(
                event.key, event.document, event.version, event.timestamp
            )
        # Counted before the error path returns: the event that causes a
        # renewal probed the window too.
        probes = core.comparisons - comparisons_before
        self.window_comparisons += probes
        # Distribution shape only: sample 1-in-16 events, phase-locked
        # to the exact events_processed counter for determinism.
        sampled = (self.events_processed & 15) == 1
        if sampled:
            self._window_ops_hist.record(probes)
        if failed:
            if not core.pages:
                del self._cores[core.core_id]
            return [
                self._maintenance_error(page, window, event)
                for page, window in failed
            ] + changes
        if sampled:
            slack = core.current_slack()
            if slack is not None:
                self._slack_hist.record(slack)
        return changes

    def _maintenance_error(
        self, page: _Page, window: Window, event: MatchEvent
    ) -> QueryChange:
        """Detach a failed page and emit its renewal-request error."""
        self.renewals_requested += 1
        query_id = page.query_id
        del self._pages[query_id]
        # The last *valid* window precedes the failing operation.
        self._last_visible[query_id] = window
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
        return len(self._pages)

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot of this node's window maintenance."""
        return {
            "queries": self.query_count,
            "cores": len(self._cores),
            "pages": len(self._pages),
            "events_processed": self.events_processed,
            "renewals_requested": self.renewals_requested,
            "window_comparisons": self.window_comparisons,
        }
