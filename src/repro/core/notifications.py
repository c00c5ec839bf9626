"""Change-notification construction, fan-out helpers and wire forms.

The cluster works in terms of :class:`QueryChange` — a result
transition of one *query*.  Application servers fan a query change out
to every local subscription of that query, tagging each copy with the
client-generated subscription ID (footnote 2 of the paper); that tagged
form is :class:`~repro.types.ChangeNotification`.

On ``fanout-feed`` one write becomes ~18 changes, so the per-row
records are flat: :class:`QueryChange` (like the filtering stage's
:class:`~repro.core.filtering.MatchEvent`) is a ``NamedTuple``, the
envelope reader yields plain tuples, and match types cross the wire
through two module-level dicts (:data:`MATCH_TYPES`).  Only the public
``ChangeNotification`` stays a frozen dataclass.

The notification leg's two algorithms each exist once, here: the
net-transition rule per (query, key) (:func:`resolve_coalesced_type`,
applied within a batch by :func:`coalesce_events` and, while the
overload controller sheds, across batches by :class:`_NotificationStager`)
and the window differ
(:func:`diff_windows`).

The one wire form lives here: the **notification envelope**
(:class:`ChangeEnvelope` / :func:`unpack_changes`), the only form that
crosses the event layer towards application servers.  One envelope
carries every change one dispatch batch produced for one app server:
each distinct after-image document is listed once in ``documents`` and
the per-change ``rows`` point at it by slot, so a write matching N
queries is encoded, moved and decoded once instead of N times (the
"(de-)serializing and parsing after-images" overhead of Section 6.3).
The client reads rows positionally (:data:`ChangeRow`), never as a dict
per row.  Worker-hosted grid cells return their ``QueryChange`` tuples
across the process boundary as they are.
"""

from __future__ import annotations

import threading
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.core.filtering import MatchEvent
from repro.obs.tracing import trace_of
from repro.types import ChangeNotification, Document, MatchType

#: Wire value -> member, and back: two dict lookups instead of the
#: ``MatchType(value)`` call and the ``.value`` descriptor per row.
MATCH_TYPES: Dict[str, MatchType] = {member.value: member for member in MatchType}
_WIRE_VALUES: Dict[MatchType, str] = {member: member.value for member in MatchType}


class QueryChange(NamedTuple):
    """A result transition of one query, not yet bound to a subscriber.

    A ``NamedTuple`` for the same reason as
    :class:`~repro.core.filtering.MatchEvent`: one exists per change on
    the notification leg, so construction cost is per-row cost.
    """

    query_id: str
    match_type: MatchType
    key: Any = None
    document: Optional[Document] = None
    index: Optional[int] = None
    old_index: Optional[int] = None
    error: Optional[str] = None
    timestamp: float = 0.0
    #: Version of the underlying write (0 = unknown/sorted-window diff).
    version: int = 0

    @property
    def is_error(self) -> bool:
        return self.match_type is MatchType.ERROR


def change_from_match_event(event: MatchEvent) -> QueryChange:
    """Unsorted queries: a filtering-stage event IS the result change."""
    query_id, match_type, key, document, version, timestamp, _ = event
    return QueryChange(
        query_id, match_type, key, document, None, None, None, timestamp,
        version,
    )


def resolve_coalesced_type(
    first: MatchType, last: MatchType
) -> Optional[MatchType]:
    """Final match type of a coalesced (query, key) notification group.

    *first* is the match type of the FIRST suppressed event for the key
    (it encodes the client's pre-batch state: ``add`` ⇔ the key was
    absent), *last* the type of the surviving event.  Returns ``None``
    when the group nets out to nothing (``add … remove``: the client
    never saw the key).  Shared by :func:`coalesce_events` and the
    cross-batch notification stager, so every coalescing path rewrites
    types identically.
    """
    was_known = first is not MatchType.ADD
    if last is MatchType.REMOVE:
        return MatchType.REMOVE if was_known else None
    return MatchType.CHANGE if was_known else MatchType.ADD


#: One produced match event plus the context riding with it: the trace
#: fork it inherits from the originating tuple and the write's deadline.
EventEntry = Tuple[MatchEvent, Optional[Dict[str, Any]], Optional[float]]


def coalesce_events(
    entries: List[EventEntry],
) -> Tuple[List[EventEntry], int]:
    """Collapse redundant per-(query, key) events within one batch.

    The one implementation of within-batch coalescing, called by the
    matching cell (:class:`~repro.core.remote.MatchingCell`).
    Events for the same (query, key) are superseded by the last one —
    the filtering stage drops stale versions, so arrival order IS
    version order and the latest version wins (keeping its
    trace/deadline).  The survivor's match type is rewritten against
    the client's pre-batch state, which the FIRST batched event for the
    key encodes (see :func:`resolve_coalesced_type`), so client
    materialization stays idempotent and identical to replaying the
    full stream.  Sorting events pass through untouched — ordered
    windows need every transition.  Returns ``(surviving entries,
    dropped count)``.
    """
    last_index: Dict[Tuple[str, Any], int] = {}
    first_type: Dict[Tuple[str, Any], MatchType] = {}
    for index, (event, _, _) in enumerate(entries):
        if event.needs_sorting:
            continue
        group = (event.query_id, event.key)
        if group not in first_type:
            first_type[group] = event.match_type
        last_index[group] = index
    coalesced: List[EventEntry] = []
    dropped = 0
    for index, (event, trace, deadline) in enumerate(entries):
        if event.needs_sorting:
            coalesced.append((event, trace, deadline))
            continue
        group = (event.query_id, event.key)
        if last_index[group] != index:
            dropped += 1
            continue
        final = resolve_coalesced_type(first_type[group], event.match_type)
        if final is None:
            # add → … → remove: the client never saw the key.
            dropped += 1
            continue
        if final is not event.match_type:
            event = event._replace(match_type=final)
        coalesced.append((event, trace, deadline))
    return coalesced, dropped


#: A delivered change plus the sampled trace riding with it.
StagedChange = Tuple[QueryChange, Optional[Dict[str, Any]]]


class _NotificationStager:
    """Cross-batch notification coalescing (time-window staging).

    In-batch coalescing (:func:`coalesce_events`, run by the matching
    cell) cannot elide redundancy that spans dispatch batches — a hot
    key rewritten every few milliseconds still produces one
    notification per batch.  The stager holds unsorted-query changes
    for *window* seconds, collapsing per (query, key) with the same
    rewrite rule (:func:`resolve_coalesced_type`), then hands the
    survivors to *deliver* as one batch.  Sorted-query changes bypass
    staging entirely: positional transitions must reach the client
    unmerged and in order.

    Its one owner is the overload controller
    (:attr:`~repro.core.overload.OverloadController.shed_stager`): the
    cluster stages changes only while shedding, through the
    ``shed_coalescing_window``.  *call_later* is the execution model's
    timer, so under the deterministic inline model the window is
    *virtual* time — a test's ``drain()`` fires the flush, keeping
    staged delivery reproducible.  *on_coalesce* is called once per
    elided notification (the controller's ``notifications_shed``).
    """

    def __init__(
        self,
        window: float,
        call_later: Callable[[float, Callable[[], Any]], Any],
        deliver: Callable[[List[StagedChange]], Any],
        on_coalesce: Callable[[], Any],
    ):
        self.window = window
        self._call_later = call_later
        self._deliver = deliver
        self._on_coalesce = on_coalesce
        self._lock = threading.Lock()
        #: (query_id, key) -> [first_type, latest change, latest trace]
        self._staged: Dict[Tuple[str, Any], List[Any]] = {}
        self._flush_scheduled = False
        self.staged_total = 0
        self.flushes = 0

    def offer(
        self,
        change: QueryChange,
        trace: Optional[Dict[str, Any]],
    ) -> bool:
        """Stage *change* if it is coalescible; False = deliver now."""
        if (
            change.index is not None
            or change.old_index is not None
            or change.is_error
        ):
            return False
        schedule = False
        with self._lock:
            self.staged_total += 1
            group = (change.query_id, change.key)
            entry = self._staged.get(group)
            if entry is None:
                self._staged[group] = [change.match_type, change, trace]
            else:
                entry[1] = change
                entry[2] = trace
                self._on_coalesce()
            if not self._flush_scheduled:
                self._flush_scheduled = True
                schedule = True
        if schedule:
            self._call_later(self.window, self.flush)
        return True

    def flush(self) -> int:
        """Deliver every staged survivor; returns how many went out."""
        with self._lock:
            staged, self._staged = self._staged, {}
            self._flush_scheduled = False
            self.flushes += 1
        survivors: List[StagedChange] = []
        for first, change, trace in staged.values():
            final = resolve_coalesced_type(first, change.match_type)
            if final is None:
                self._on_coalesce()
                continue
            if final is not change.match_type:
                change = change._replace(match_type=final)
            survivors.append((change, trace))
        if survivors:
            self._deliver(survivors)
        return len(survivors)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "window_seconds": self.window,
                "staged_total": self.staged_total,
                "pending": len(self._staged),
                "flushes": self.flushes,
            }


#: An ordered result window: ``(key, document)`` pairs in result order.
Window = List[Tuple[Any, Document]]


def window_of(documents: List[Document]) -> Window:
    """A pull-query result (documents in result order) as a window."""
    return [(document["_id"], document) for document in documents]


def diff_windows(
    query_id: str,
    before: Window,
    after: Window,
    positional: bool,
    timestamp: float = 0.0,
) -> List[QueryChange]:
    """The delta that turns window *before* into window *after*.

    The one window differ: a client holding *before* that applies the
    returned changes in order (``RealTimeSubscription._apply``: REMOVE
    drops the key, ADD / CHANGE_INDEX = remove + insert at ``index``,
    CHANGE swaps the document in place) holds exactly *after*.  Called
    for a sorted query's renewal delta "from the last valid to the
    current result representation" (Section 5.2,
    ``SortingNode.register_query``), for the client's catch-up after an
    outage or a shed diff stream (``InvaliDBClient.resubscribe_all`` /
    ``_on_refresh``) and for the poll-and-diff baseline's polling round.

    *positional* is the query's ``is_sorted``: an unsorted result has
    no positions, so its delta is REMOVE / ADD / CHANGE without index
    fields and converges on membership and content only.
    """
    before_index = {key: index for index, (key, _) in enumerate(before)}
    after_index = {key: index for index, (key, _) in enumerate(after)}

    def change(match_type: MatchType, key: Any, document: Document,
               index: Optional[int] = None,
               old_index: Optional[int] = None) -> QueryChange:
        return QueryChange(
            query_id=query_id, match_type=match_type, key=key,
            document=document,
            index=index if positional else None,
            old_index=old_index if positional else None,
            timestamp=timestamp,
        )

    # Items that left the window.
    changes = [
        change(MatchType.REMOVE, key, document, old_index=before_index[key])
        for key, document in before if key not in after_index
    ]
    # Items that entered, plus transitions of surviving items.
    for key, document in after:
        new_index = after_index[key]
        old_index = before_index.get(key)
        if old_index is None:
            changes.append(change(MatchType.ADD, key, document,
                                  index=new_index))
        elif positional and old_index != new_index:
            changes.append(change(MatchType.CHANGE_INDEX, key, document,
                                  index=new_index, old_index=old_index))
        elif before[old_index][1] != document:
            changes.append(change(MatchType.CHANGE, key, document,
                                  index=new_index, old_index=old_index))
    if not positional:
        return changes
    # A delta spanning several writes can leave a survivor whose own
    # index did not move displaced by the moves around it.  Replay the
    # delta the way the client applies it and reposition what is still
    # out of place.
    order = [key for key, _ in before if key in after_index]
    for entry in changes:
        if entry.match_type in (MatchType.ADD, MatchType.CHANGE_INDEX):
            if entry.key in order:
                order.remove(entry.key)
            order.insert(entry.index, entry.key)
    for index, (key, document) in enumerate(after):
        if order[index] != key:
            old_index = order.index(key)
            order.insert(index, order.pop(old_index))
            changes.append(change(MatchType.CHANGE_INDEX, key, document,
                                  index=index, old_index=old_index))
    return changes


def bind_to_subscription(
    change: QueryChange, subscription_id: str
) -> ChangeNotification:
    """Tag a query change with one subscription ID for client delivery."""
    (query_id, match_type, key, document, index, old_index, error,
     timestamp, version) = change
    return ChangeNotification(
        subscription_id, query_id, match_type, key, document, index,
        old_index, error, False, timestamp, version,
    )


class ChangeEnvelope:
    """One app server's share of a dispatch batch, in wire form.

    .. code-block:: python

        {"kind": "changes",
         "documents": [doc, ...],
         "rows": [[query_id, match_type, key, slot, timestamp, version],
                  [..., {"index": 3, "old_index": 5}], ...]}

    ``slot`` indexes ``documents`` (``None`` for a change without a
    document).  Documents are slotted by *identity*: the changes one
    after-image produced share its document object, so it is listed
    once however many queries it matched.  The rare fields — ``index``,
    ``old_index``, ``error`` and a sampled ``trace`` — ride in an
    optional trailing dict whose keys are the
    :class:`~repro.types.ChangeNotification` field names.  Rows keep
    the order changes were added in, which is what per-subscription
    delivery order rests on.
    """

    __slots__ = ("documents", "rows", "_slots")

    def __init__(self) -> None:
        self.documents: List[Document] = []
        self.rows: List[List[Any]] = []
        self._slots: Dict[int, int] = {}

    def add(
        self, change: QueryChange, trace: Optional[Dict[str, Any]] = None
    ) -> None:
        (query_id, match_type, key, document, index, old_index, error,
         timestamp, version) = change
        slot = None
        if document is not None:
            # Keyed by id(): every slotted document stays referenced by
            # ``documents`` for the envelope's life, so ids are unique.
            slot = self._slots.get(id(document))
            if slot is None:
                slot = self._slots[id(document)] = len(self.documents)
                self.documents.append(document)
        row = [
            query_id, _WIRE_VALUES[match_type], key, slot, timestamp,
            version,
        ]
        if (
            index is not None or old_index is not None
            or error is not None or trace is not None
        ):
            extras = {}
            if index is not None:
                extras["index"] = index
            if old_index is not None:
                extras["old_index"] = old_index
            if error is not None:
                extras["error"] = error
            if trace is not None:
                extras["trace"] = trace
            row.append(extras)
        self.rows.append(row)

    def payload(self) -> Dict[str, Any]:
        return {
            "kind": "changes",
            "documents": self.documents,
            "rows": self.rows,
        }


#: One unpacked envelope row: the :class:`~repro.types.ChangeNotification`
#: fields in declaration order, minus ``subscription_id`` (only the
#: receiving client knows it) and ``initial``: ``(query_id, match_type,
#: key, document, index, old_index, error, timestamp, version, trace)``.
ChangeRow = Tuple[
    str, MatchType, Any, Optional[Document], Optional[int], Optional[int],
    Optional[str], float, int, Optional[Dict[str, Any]],
]


def unpack_changes(payload: Dict[str, Any]) -> Iterator[ChangeRow]:
    """Rows of a decoded envelope, in order, as flat :data:`ChangeRow`
    tuples.  ``trace`` is read through :func:`~repro.obs.tracing.trace_of`,
    so a corrupt non-dict trace reads as ``None``."""
    documents = payload["documents"]
    match_types = MATCH_TYPES
    for row in payload["rows"]:
        if len(row) == 6:
            query_id, match_type, key, slot, timestamp, version = row
            yield (
                query_id, match_types[match_type], key,
                None if slot is None else documents[slot],
                None, None, None, timestamp, version, None,
            )
            continue
        query_id, match_type, key, slot, timestamp, version, extras = row[:7]
        get = extras.get
        yield (
            query_id, match_types[match_type], key,
            None if slot is None else documents[slot],
            get("index"), get("old_index"), get("error"), timestamp,
            version, trace_of(extras),
        )
