"""The grid cell: one stage loop, hosted two ways.

A matching node is defined by its coordinates (one query partition x
one write partition, Section 5.1), not by where it runs.
:class:`MatchingCell` and :class:`SortingCell` are the only
implementation of the per-batch stage loop; the cluster's grid task
hosts one either in its own thread (inline / threaded execution) or in
a forked worker (:class:`~repro.runtime.process.ProcessExecutionModel`).

* **Specs** (:class:`MatchingCellSpec`, :class:`SortingCellSpec`) are
  small frozen, picklable descriptions of one cell, built at a single
  site (``InvaliDBCluster._cell_spec``) for both hostings.
  ``spec.cell(**injected)`` constructs the live cell; a supervised
  restart builds a fresh one — cell state is rebuilt by the renewal of
  the queries it served, never carried over.
* **Cells** speak the batch protocol: ``handle_batch(tuples)`` returns
  live objects — the match-event messages bound for the sorting grid,
  the ``(QueryChange, trace fork)`` pairs bound for the notification
  fan-out, and how many events in-batch coalescing elided.  What cannot
  cross a fork is injected by a local host (shared telemetry, the
  config clock, the cluster-wide query resolver); a worker-hosted cell
  falls back to its own registry on the fork-calibrated clock, wall
  time and a private resolver.
* **The process seam** is the only place anything is serialised:
  ``spec.build()`` returns a :class:`WorkerCell` around that same
  ``handle_batch``, whose result crosses the worker channel's pickle
  codec as it is, and the parent's :class:`LeasedCell` returns the
  decoded reply — the shape the local cell returns.  Sampled traces
  ride the wire envelopes both ways; worker spans are stamped in the
  parent's ``perf_counter`` domain, so the parent tracer sees complete
  chains.

A write is one :class:`~repro.types.AfterImage` from the store to every
matching cell: the grid routes the published image itself, and a
worker decodes each batch frame once, back into images and plain
dicts, so the documents reach the filtering node as they were
published.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.filtering import FilteringNode
from repro.core.notifications import (
    EventEntry,
    QueryChange,
    coalesce_events,
)
from repro.core.partitioning import PartitioningScheme
from repro.core.sorting import SortingNode
from repro.obs.telemetry import build_telemetry
from repro.obs.tracing import (
    FILTER,
    PUBLISH,
    SORT,
    Trace,
    begin_span,
    end_span,
    fork,
    trace_of,
)
from repro.query.engine import Query
from repro.types import AfterImage

#: What one batch produced: match-event messages for the sorting grid,
#: (change, owned trace fork) pairs for the fan-out, coalesced count.
CellResult = Tuple[
    List[Dict[str, Any]], List[Tuple[QueryChange, Optional[Trace]]], int
]


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------


def serialize_query(query: Query) -> Dict[str, Any]:
    """Wire form of a query (the 'representation of the query itself')."""
    return {
        "filter": query.filter_doc,
        "collection": query.collection,
        "sort": None if query.sort is None else [list(f) for f in query.sort.fields],
        "limit": query.limit,
        "offset": query.offset,
    }


def deserialize_query(payload: Dict[str, Any]) -> Query:
    sort = payload.get("sort")
    return Query(
        payload["filter"],
        collection=payload.get("collection", "default"),
        sort=None if sort is None else [tuple(f) for f in sort],
        limit=payload.get("limit"),
        offset=payload.get("offset", 0),
    )


class QueryResolver:
    """Subscribe wire -> parsed :class:`Query`, parsed once per query id.

    The cluster owns one and hands it to every locally hosted cell, so
    a subscribe fanned out to several cells is still parsed once per
    cluster; a worker-hosted cell owns a private one.
    """

    def __init__(self) -> None:
        self._queries: Dict[str, Query] = {}

    def __call__(self, tuple_: Dict[str, Any]) -> Query:
        query_id = tuple_["query_id"]
        query = self._queries.get(query_id)
        if query is None:
            query = self._queries[query_id] = deserialize_query(
                tuple_["query"]
            )
        return query

    def forget(self, query_id: str) -> None:
        self._queries.pop(query_id, None)


# ---------------------------------------------------------------------------
# The cells
# ---------------------------------------------------------------------------


def _bind_worker_clock(telemetry: Any) -> Any:
    """Attach the fork-calibrated worker clock to a cell's telemetry.

    Worker-side spans must land in the *parent's* ``perf_counter``
    domain so merged chains compare; the pool handshakes the offset at
    spawn (see :class:`repro.runtime.process._WorkerClock`) and the
    clock instance picks up later recalibrations because the cells hold
    the callable, not a reading.
    """
    if telemetry.enabled:
        from repro.runtime.process import worker_clock

        telemetry.bind_clock(worker_clock)
    return telemetry


class _Cell:
    """What both roles share: the spec and the host's injections."""

    def __init__(
        self,
        spec: Any,
        telemetry: Any = None,
        clock: Callable[[], float] = time.time,
        resolve_query: Optional[QueryResolver] = None,
    ):
        self.spec = spec
        if telemetry is None:
            # Worker-hosted: a registry of its own (a collector cannot
            # cross the fork) on the calibrated clock.
            telemetry = _bind_worker_clock(
                build_telemetry(spec.telemetry or None)
            )
        self.telemetry = telemetry
        self.clock = clock
        self.resolve_query = (
            resolve_query if resolve_query is not None else QueryResolver()
        )


@dataclass(frozen=True)
class MatchingCellSpec:
    """Picklable description of one filtering-stage grid cell."""

    task_index: int
    query_partitions: int
    write_partitions: int
    retention_seconds: float = 5.0
    notification_coalescing: bool = True
    telemetry: bool = False

    def cell(self, **injected: Any) -> "MatchingCell":
        return MatchingCell(self, **injected)

    def build(self) -> "WorkerCell":
        return WorkerCell(self.cell())


class MatchingCell(_Cell):
    """One :class:`FilteringNode` behind the batch protocol."""

    def __init__(self, spec: MatchingCellSpec, **injected: Any):
        super().__init__(spec, **injected)
        self.scheme = PartitioningScheme(
            spec.query_partitions, spec.write_partitions
        )
        self.node = FilteringNode(
            self.scheme.coordinates(spec.task_index),
            retention_seconds=spec.retention_seconds,
            telemetry=self.telemetry,
        )

    def handle_batch(self, tuples: List[Any]) -> CellResult:
        """Match a chunk of writes and requests in arrival order: a
        write is the published :class:`~repro.types.AfterImage` itself,
        a request (subscribe, cancel) a dict.

        Each tuple's riding trace is forked (grid tuples are shared
        across edges), its ``publish`` span closed and a ``filter`` span
        wrapped around the matching work; every produced event inherits
        a fork of that trace.  Events are coalesced per (query, key)
        only when some group can hold two of them, and routed in one
        pass per chunk: sorted queries' events become messages for the
        sorting grid (their ``sort`` span opens here), the rest become
        changes, each built once, here.
        """
        node = self.node
        tel = self.telemetry
        now = self.clock()
        entries: List[EventEntry] = []
        producers = 0  # tuples that produced at least one event
        written: Set[Any] = set()  # keys of the writes that did
        regroup = False  # some (query, key) group may hold two events
        merged = False  # a subscribe re-registered a live entry
        for tuple_ in tuples:
            is_write = tuple_.__class__ is AfterImage
            trace = None
            if tel.enabled and (tuple_.trace is not None if is_write
                                else "trace" in tuple_):
                trace = fork(trace_of(tuple_))
            if trace is not None:
                tnow = tel.now()
                end_span(trace, PUBLISH, tnow)
                begin_span(trace, FILTER, tnow)
            if is_write:
                events = node.process_write(tuple_, now)
                if events:
                    key = tuple_.key
                    if key in written:
                        regroup = True
                    written.add(key)
            elif tuple_["kind"] == "subscribe":
                query = self.resolve_query(tuple_)
                merged = merged or node.holds(query)
                # Each cell keeps only its write-partition slice of the
                # bootstrap result.
                wp = node.coordinates.write_partition
                partition_of = self.scheme.write_partition_of
                events = node.register_query(
                    query,
                    [
                        doc for doc in tuple_["bootstrap"]
                        if partition_of(doc["_id"]) == wp
                    ],
                    dict(tuple_["versions"]),
                    now,
                    dict(tuple_.get("watermark", ())),
                )
                if events:
                    regroup = True
            else:
                if tuple_["kind"] == "cancel":
                    node.deactivate_query(tuple_["query_id"])
                    self.resolve_query.forget(tuple_["query_id"])
                events = []
            if trace is not None:
                end_span(trace, FILTER, tel.now())
            if events:
                producers += 1
                entries.extend((event, trace) for event in events)
        coalesced = 0
        # One tuple yields at most one event per (query, key) — one per
        # candidate query, and retention replays only the latest image
        # per key — and a write's events all carry its key.  So a group
        # can hold two events only when two producing writes share a
        # key or a subscribe's events meet another tuple's; otherwise
        # ``coalesce_events`` would return its input unchanged.  A
        # re-registration's new handle starts from its bootstrap, not
        # from the state a group's first event encodes: such a batch
        # goes as is.
        if (self.spec.notification_coalescing and producers > 1
                and regroup and not merged):
            entries, coalesced = coalesce_events(entries)
        messages: List[Dict[str, Any]] = []
        changes: List[Tuple[QueryChange, Optional[Trace]]] = []
        for event, trace in entries:
            query_id, match_type, key, document, version, timestamp, sorts = (
                event
            )
            if not sorts:
                # An unsorted query's event IS its result change.
                changes.append((
                    QueryChange(query_id, match_type, key, document, None,
                                None, None, timestamp, version),
                    None if trace is None else fork(trace),
                ))
                continue
            message: Dict[str, Any] = {
                "kind": "match-event",
                "query_id": query_id,
                "event": event,
            }
            if trace is not None:
                branch = fork(trace)
                begin_span(branch, SORT, tel.now())
                message["trace"] = branch
            messages.append(message)
        return messages, changes, coalesced

    def snapshot(self) -> Dict[str, Any]:
        row = self.node.stats()
        coordinates = self.node.coordinates
        row["coordinates"] = str(coordinates)
        row["query_partition"] = coordinates.query_partition
        row["write_partition"] = coordinates.write_partition
        return row


@dataclass(frozen=True)
class SortingCellSpec:
    """Picklable description of one sorting-stage task."""

    task_index: int
    default_slack: int = 5
    telemetry: bool = False

    def cell(self, **injected: Any) -> "SortingCell":
        return SortingCell(self, **injected)

    def build(self) -> "WorkerCell":
        return WorkerCell(self.cell())


class SortingCell(_Cell):
    """One :class:`SortingNode` behind the batch protocol."""

    def __init__(self, spec: SortingCellSpec, **injected: Any):
        super().__init__(spec, **injected)
        self.node = SortingNode(spec.task_index, telemetry=self.telemetry)

    def handle_batch(self, tuples: List[Dict[str, Any]]) -> CellResult:
        """Maintain the sorted windows for a chunk of match events /
        requests; the batch's changes go out together, in production
        order (per-query notification order is the event order)."""
        node = self.node
        tel = self.telemetry
        produced: List[Tuple[QueryChange, Optional[Trace]]] = []
        for tuple_ in tuples:
            kind = tuple_["kind"]
            trace = (fork(trace_of(tuple_))
                     if tel.enabled and "trace" in tuple_ else None)
            if kind == "match-event":
                # The ``sort`` span was opened by the matching cell when
                # it routed the event here; close it around the
                # window maintenance.
                changes = node.handle_event(tuple_["event"])
                if trace is not None:
                    end_span(trace, SORT, tel.now())
            elif kind == "subscribe":
                query = self.resolve_query(tuple_)
                if not query.needs_sorting_stage:
                    continue
                if trace is not None:
                    tnow = tel.now()
                    end_span(trace, PUBLISH, tnow)
                    begin_span(trace, SORT, tnow)
                changes = node.register_query(
                    query,
                    tuple_["bootstrap"],
                    dict(tuple_["versions"]),
                    slack=tuple_.get("slack", self.spec.default_slack),
                    timestamp=self.clock(),
                )
                if trace is not None:
                    end_span(trace, SORT, tel.now())
            else:
                if kind == "cancel":
                    node.deactivate_query(tuple_["query_id"])
                    self.resolve_query.forget(tuple_["query_id"])
                continue
            produced.extend((change, fork(trace)) for change in changes)
        return [], produced, 0

    def snapshot(self) -> Dict[str, Any]:
        row = self.node.stats()
        row["query_partition"] = self.spec.task_index
        return row


# ---------------------------------------------------------------------------
# The process seam
# ---------------------------------------------------------------------------


class WorkerCell:
    """Worker side of the seam: the cell's own ``handle_batch`` result
    goes back as it is — ``MatchEvent`` and ``QueryChange`` are
    NamedTuples the worker channel's pickle codec carries, with the
    plain documents the batch decoded into."""

    def __init__(self, cell: Any):
        self.cell = cell

    def handle_batch(self, tuples: List[Any]) -> CellResult:
        return self.cell.handle_batch(tuples)

    def snapshot(self) -> Dict[str, Any]:
        row = self.cell.snapshot()
        telemetry = self.cell.telemetry
        if telemetry.enabled:
            row["telemetry"] = telemetry.snapshot()
        return row


class LeasedCell:
    """Parent side of the seam: a worker-hosted cell behind the same
    ``handle_batch`` / ``snapshot`` contract as a local one."""

    #: The node lives in the worker; nothing to reach from here.
    node = None

    def __init__(self, handle: Any):
        self.handle = handle

    @property
    def pid(self) -> int:
        return self.handle.pid

    def handle_batch(self, tuples: List[Any]) -> CellResult:
        return self.handle.request_batch(tuples)

    def snapshot(self) -> Dict[str, Any]:
        """The worker-side row plus the hosting worker's ``pid`` and
        ``wire`` counters."""
        reply = self.handle.snapshot()
        row = reply.get("cell") or {}
        row["pid"] = reply.get("pid")
        row["wire"] = reply.get("wire", {})
        return row
