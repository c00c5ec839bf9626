"""Worker-hosted grid cells for the process execution model.

Under :class:`~repro.runtime.process.ProcessExecutionModel` the grid's
matching and sorting cells do not run inside the bolt threads — each
bolt is a thin proxy that round-trips its tuple batches to a cell
hosted in a forked worker process.  This module is both sides of that
seam:

* **Specs** (:class:`MatchingCellSpec`, :class:`SortingCellSpec`) are
  small picklable descriptions of one cell.  The parent ships a spec
  over the control channel; the worker calls ``build()`` exactly once
  to construct the live cell.  A supervised restart ships a fresh spec
  — cell state is reconstructed by re-registration and retained-write
  replay, never carried across processes.
* **Remote cells** (:class:`RemoteMatchingCell`,
  :class:`RemoteSortingCell`) wrap the ordinary
  :class:`~repro.core.filtering.FilteringNode` / processing stage and
  speak the batch protocol: ``handle_batch(tuples)`` consumes decoded
  wire envelopes and returns a reply envelope ``{"emits": [...],
  "coalesced": n}``.  Emits are fully serialized (match events and
  query changes as plain dicts, documents materialized) so the reply
  survives any wire codec and can feed straight into the JSON event
  layer on the parent side.

Documents inside write envelopes may arrive as
:class:`~repro.event.wire.LazyDocument` blobs; they flow untouched into
the filtering node, which materializes them only when matching actually
needs the fields (see ``FilteringNode._materialize``) — stale writes
and index-pruned writes never pay the after-image decode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.notifications import (
    EventEntry,
    change_from_match_event,
    coalesce_events,
    serialize_change,
)
from repro.core.partitioning import PartitioningScheme
from repro.core.stages import build_stage
from repro.event.wire import materialize
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
from repro.types import MatchType


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


# ---------------------------------------------------------------------------
# Match-event wire form
# ---------------------------------------------------------------------------


def serialize_match_event(event: MatchEvent) -> Dict[str, Any]:
    """Plain-dict wire form of a match event (codec-agnostic)."""
    return {
        "query_id": event.query_id,
        "match_type": event.match_type.value,
        "key": event.key,
        "document": materialize(event.document),
        "version": event.version,
        "timestamp": event.timestamp,
        "needs_sorting": event.needs_sorting,
    }


def deserialize_match_event(payload: Dict[str, Any]) -> MatchEvent:
    return MatchEvent(
        query_id=payload["query_id"],
        match_type=MatchType(payload["match_type"]),
        key=payload.get("key"),
        document=payload.get("document"),
        version=payload.get("version", 0),
        timestamp=payload.get("timestamp", 0.0),
        needs_sorting=payload.get("needs_sorting", False),
    )


# ---------------------------------------------------------------------------
# Matching cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingCellSpec:
    """Picklable description of one filtering-stage grid cell."""

    task_index: int
    query_partitions: int
    write_partitions: int
    retention_seconds: float = 5.0
    query_index: bool = True
    spatial_index: bool = True
    text_index: bool = True
    spatial_grid_cells: int = 64
    notification_coalescing: bool = True
    telemetry: bool = False

    def build(self) -> "RemoteMatchingCell":
        return RemoteMatchingCell(self)


class RemoteMatchingCell:
    """One worker-hosted :class:`FilteringNode` behind the batch seam."""

    def __init__(self, spec: MatchingCellSpec):
        self.spec = spec
        self.scheme = PartitioningScheme(
            spec.query_partitions, spec.write_partitions
        )
        self.telemetry = _bind_worker_clock(
            build_telemetry(spec.telemetry or None)
        )
        self.node = FilteringNode(
            self.scheme.coordinates(spec.task_index),
            retention_seconds=spec.retention_seconds,
            use_index=spec.query_index,
            spatial_index=spec.spatial_index,
            text_index=spec.text_index,
            spatial_grid_cells=spec.spatial_grid_cells,
            telemetry=self.telemetry,
        )
        self._queries: Dict[str, Query] = {}

    def _query(self, tuple_: Dict[str, Any]) -> Query:
        query_id = tuple_["query_id"]
        cached = self._queries.get(query_id)
        if cached is not None:
            return cached
        # Deferred import: repro.core.cluster imports this module.
        from repro.core.cluster import deserialize_query

        query = deserialize_query(tuple_["query"])
        self._queries[query_id] = query
        return query

    def handle_batch(self, tuples: List[Dict[str, Any]]) -> Dict[str, Any]:
        from repro.core.cluster import deserialize_after_image

        node = self.node
        tel = self.telemetry
        now = time.time()
        entries: List[EventEntry] = []
        for tuple_ in tuples:
            kind = tuple_.get("kind")
            # Mirror of _MatchingBolt tracing: traces ride the wire
            # envelopes in, spans are stamped here with the calibrated
            # worker clock (parent perf_counter domain), and the forks
            # ride the reply emits back out.
            trace = fork(trace_of(tuple_)) if tel.enabled else None
            if trace is not None:
                tnow = tel.now()
                end_span(trace, PUBLISH, tnow)
                begin_span(trace, FILTER, tnow)
            deadline = tuple_.get("deadline") if kind == "write" else None
            if kind == "write":
                if deadline is not None and now > deadline:
                    # Workers compare against wall clock: the process
                    # model never runs deterministically, and custom
                    # clocks do not cross the fork.
                    node.deadline_shed += 1
                    if trace is not None:
                        end_span(trace, FILTER, tel.now())
                    continue
                after = deserialize_after_image(tuple_)
                produced = node.process_write(after, now)
            elif kind == "subscribe":
                query = self._query(tuple_)
                wp = node.coordinates.write_partition
                partition_of = self.scheme.write_partition_of
                bootstrap = [
                    doc
                    for doc in tuple_["bootstrap"]
                    if partition_of(doc["_id"]) == wp
                ]
                versions = {
                    key: version for key, version in tuple_["versions"]
                }
                produced = node.register_query(
                    query, bootstrap, versions, now
                )
            elif kind == "cancel":
                node.deactivate_query(tuple_["query_id"])
                self._queries.pop(tuple_["query_id"], None)
                produced = []
            else:
                produced = []
            if trace is not None:
                end_span(trace, FILTER, tel.now())
            entries.extend(
                (event, trace, deadline) for event in produced
            )
        dropped = 0
        if self.spec.notification_coalescing and len(entries) > 1:
            entries, dropped = coalesce_events(entries)
        emits: List[Dict[str, Any]] = []
        for event, trace, deadline in entries:
            if event.needs_sorting:
                emit = {
                    "kind": "match-event",
                    "query_id": event.query_id,
                    "event": serialize_match_event(event),
                }
                if deadline is not None:
                    emit["deadline"] = deadline
                branch = fork(trace)
                if branch is not None:
                    begin_span(branch, SORT, tel.now())
                    emit["trace"] = branch
                emits.append(emit)
            else:
                emit = {
                    "kind": "change",
                    "change": serialize_change(
                        change_from_match_event(event)
                    ),
                }
                branch = fork(trace)
                if branch is not None:
                    emit["trace"] = branch
                emits.append(emit)
        return {"emits": emits, "coalesced": dropped}

    def snapshot(self) -> Dict[str, Any]:
        """The same stats row an in-process filtering node reports."""
        row = self.node.stats()
        coordinates = self.node.coordinates
        row["coordinates"] = str(coordinates)
        row["query_partition"] = coordinates.query_partition
        row["write_partition"] = coordinates.write_partition
        if self.telemetry.enabled:
            row["telemetry"] = self.telemetry.snapshot()
        return row


# ---------------------------------------------------------------------------
# Sorting (processing-stage) cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SortingCellSpec:
    """Picklable description of one sorting-stage task."""

    task_index: int
    shared_windows: bool = False
    adaptive_slack: bool = False
    default_slack: int = 5
    stage: str = "sorting"
    telemetry: bool = False

    def build(self) -> "RemoteSortingCell":
        return RemoteSortingCell(self)


class RemoteSortingCell:
    """One worker-hosted processing stage behind the batch seam."""

    def __init__(self, spec: SortingCellSpec):
        self.spec = spec
        self.telemetry = _bind_worker_clock(
            build_telemetry(spec.telemetry or None)
        )
        self.node = build_stage(
            spec.stage,
            spec.task_index,
            telemetry=self.telemetry,
            shared_windows=spec.shared_windows,
            adaptive_slack=spec.adaptive_slack,
        )
        self._queries: Dict[str, Query] = {}

    def _query(self, tuple_: Dict[str, Any]) -> Query:
        query_id = tuple_["query_id"]
        cached = self._queries.get(query_id)
        if cached is not None:
            return cached
        from repro.core.cluster import deserialize_query

        query = deserialize_query(tuple_["query"])
        self._queries[query_id] = query
        return query

    def handle_batch(self, tuples: List[Dict[str, Any]]) -> Dict[str, Any]:
        node = self.node
        tel = self.telemetry
        now = time.time()
        #: (change, trace fork) pairs, in production order.
        produced: List[Tuple[Any, Optional[Trace]]] = []
        for tuple_ in tuples:
            kind = tuple_.get("kind")
            trace = fork(trace_of(tuple_)) if tel.enabled else None
            if kind == "match-event":
                deadline = tuple_.get("deadline")
                if deadline is not None and now > deadline:
                    # Defensive getattr: build_stage may host stages
                    # without the counter (future aggregation stage).
                    node.deadline_shed = getattr(
                        node, "deadline_shed", 0
                    ) + 1
                    continue
                # The ``sort`` span was opened by the matching cell
                # when it routed the event here; close it around the
                # window maintenance.
                event = deserialize_match_event(tuple_["event"])
                changes = node.handle_event(event)
                if trace is not None:
                    end_span(trace, SORT, tel.now())
            elif kind == "subscribe":
                query = self._query(tuple_)
                if not query.needs_sorting_stage:
                    continue
                if trace is not None:
                    tnow = tel.now()
                    end_span(trace, PUBLISH, tnow)
                    begin_span(trace, SORT, tnow)
                versions = {
                    key: version for key, version in tuple_["versions"]
                }
                changes = node.register_query(
                    query,
                    tuple_["bootstrap"],
                    versions,
                    slack=tuple_.get("slack", self.spec.default_slack),
                    timestamp=now,
                )
                if trace is not None:
                    end_span(trace, SORT, tel.now())
            elif kind == "cancel":
                node.deactivate_query(tuple_["query_id"])
                self._queries.pop(tuple_["query_id"], None)
                continue
            else:
                continue
            produced.extend((change, fork(trace)) for change in changes)
        emits: List[Dict[str, Any]] = []
        for change, branch in produced:
            emit: Dict[str, Any] = {
                "kind": "change",
                "change": serialize_change(change),
            }
            if branch is not None:
                emit["trace"] = branch
            emits.append(emit)
        return {"emits": emits, "coalesced": 0}

    def snapshot(self) -> Dict[str, Any]:
        node = self.node
        row = {
            "queries": node.query_count,
            "events_processed": node.events_processed,
            "renewals_requested": node.renewals_requested,
            "window_comparisons": node.window_comparisons,
            "shared_groups": getattr(node, "shared_group_count", 0),
            "shared_attach": getattr(node, "shared_attach", 0),
            "shared_miss": getattr(node, "shared_miss", 0),
            "deadline_shed": getattr(node, "deadline_shed", 0),
        }
        if self.telemetry.enabled:
            row["telemetry"] = self.telemetry.snapshot()
        return row
