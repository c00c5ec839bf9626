"""The InvaliDB cluster: ingestion nodes + the 2D matching grid.

Wires the filtering and sorting stages onto the Storm-like substrate
(:mod:`repro.stream`) and connects them to the event layer
(:mod:`repro.event`), reproducing Figure 2 of the paper:

* **query ingestion** (stateless): receives subscription / cancellation
  / TTL-extension requests from the event layer, resolves the query
  partition from the canonical query hash, and broadcasts the request
  to every matching node of that partition (each node keeps only its
  write-partition slice of the bootstrap result);
* **write ingestion** (stateless): receives after-images, resolves the
  write partition from the primary key, and delivers the after-image to
  every matching node of that write partition;
* **matching** (filtering stage): one :class:`FilteringNode` per grid
  cell; unsorted-query changes go straight to the event layer, sorted
  queries forward their match events to the sorting stage;
* **sorting**: sorted queries partitioned by query ID across
  :class:`SortingNode` tasks.

The cluster is multi-tenant: it tracks which application servers
subscribed to which query and fans change notifications out to each of
their notification channels.  Heartbeats are published periodically so
application servers can detect cluster failure (Section 5).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.notifications import (
    ChangeEnvelope,
    EventEntry,
    QueryChange,
    change_from_match_event,
    coalesce_events,
    deserialize_change,
    resolve_coalesced_type,
)
from repro.core.overload import (
    SEVERITY as HEALTH_SEVERITY,
    OverloadController,
    serialize_refresh,
)
from repro.core.partitioning import PartitioningScheme
from repro.core.retention import RetentionBuffer
from repro.core.sorting import SortingNode
from repro.core.subscriptions import QueryRegistration
from repro.core.supervisor import NodeSupervisor
from repro.errors import WorkerDiedError
from repro.event.broker import Broker
from repro.event.channels import notification_channel, query_channel, write_channel
from repro.event.wire import WireStats
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOAccountant
from repro.obs.telemetry import build_telemetry
from repro.obs.tracing import (
    DELIVER,
    FILTER,
    PUBLISH,
    SORT,
    begin_span,
    end_span,
    fork,
    trace_of,
)
from repro.query.engine import MongoQueryEngine, Query
from repro.query.shared import share_ratio
from repro.runtime.execution import ExecutionModel, build_execution_model
from repro.runtime.process import ProcessExecutionModel
from repro.stream.topology import Bolt, CustomGrouping, FieldsGrouping, TopologyBuilder
from repro.stream.runtime import LocalRuntime
from repro.types import AfterImage, WriteKind


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


def serialize_after_image(after: AfterImage) -> Dict[str, Any]:
    return {
        "kind": "write",
        "key": after.key,
        "version": after.version,
        "op": after.kind.value,
        "document": after.document,
        "collection": after.collection,
        "timestamp": after.timestamp,
    }


def deserialize_after_image(payload: Dict[str, Any]) -> AfterImage:
    return AfterImage(
        key=payload["key"],
        version=payload["version"],
        kind=WriteKind(payload["op"]),
        document=payload.get("document"),
        collection=payload.get("collection", "default"),
        timestamp=payload.get("timestamp", 0.0),
    )


class _QueryIngestionBolt(Bolt):
    """Stateless: resolve partitions, stamp routing fields, forward."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster

    def clone(self) -> "_QueryIngestionBolt":
        return _QueryIngestionBolt(self.cluster)

    def process(self, tuple_: Dict[str, Any]) -> None:
        query_hash = tuple_["query_hash"]
        qp = self.cluster.scheme.query_partition_of(query_hash)
        kind = tuple_["kind"]
        if kind == "subscribe":
            self.cluster._register(tuple_)
        elif kind == "cancel":
            if not tuple_.get("force") and not self.cluster._cancel(tuple_):
                return  # other app servers still subscribed: keep active
        elif kind == "ttl":
            self.cluster._extend_ttl(tuple_)
            return  # pure bookkeeping, nothing flows to the grid
        forwarded = dict(tuple_)
        forwarded["query_partition"] = qp
        self.emit(forwarded)


class _WriteIngestionBolt(Bolt):
    """Stateless: resolve the write partition from the primary key."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster

    def clone(self) -> "_WriteIngestionBolt":
        return _WriteIngestionBolt(self.cluster)

    def process(self, tuple_: Dict[str, Any]) -> None:
        overload = self.cluster.overload
        if (
            overload is not None
            and tuple_.get("kind") == "write"
            and not overload.admit(tuple_)
        ):
            # Rejected at the edge: NOT retained (retention replay must
            # never resurrect a write the governor pushed back).
            return
        wp = self.cluster.scheme.write_partition_of(tuple_["key"])
        self.cluster._retain_write(wp, tuple_)
        forwarded = dict(tuple_)
        forwarded["write_partition"] = wp
        self.emit(forwarded)


class _MatchingBolt(Bolt):
    """Filtering-stage task: owns one :class:`FilteringNode`."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster
        self.node: Optional[FilteringNode] = None

    def clone(self) -> "_MatchingBolt":
        return _MatchingBolt(self.cluster)

    def prepare(self, task_index: int, parallelism: int, emit: Any) -> None:
        super().prepare(task_index, parallelism, emit)
        coordinates = self.cluster.scheme.coordinates(task_index)
        self.node = FilteringNode(
            coordinates,
            retention_seconds=self.cluster.config.retention_seconds,
            engine=self.cluster.engine,
            use_index=self.cluster.config.query_index,
            spatial_index=self.cluster.config.spatial_index,
            text_index=self.cluster.config.text_index,
            spatial_grid_cells=self.cluster.config.spatial_grid_cells,
            telemetry=self.cluster.telemetry,
        )
        self.cluster._filtering_nodes[task_index] = self.node

    def process(self, tuple_: Dict[str, Any]) -> None:
        self.process_batch([tuple_])

    def _register(self, tuple_: Dict[str, Any], now: float) -> List[MatchEvent]:
        assert self.node is not None
        query = self.cluster._query_from_wire(tuple_)
        wp = self.node.coordinates.write_partition
        scheme = self.cluster.scheme
        bootstrap = [
            doc
            for doc in tuple_["bootstrap"]
            if scheme.write_partition_of(doc["_id"]) == wp
        ]
        versions = {key: version for key, version in tuple_["versions"]}
        return self.node.register_query(query, bootstrap, versions, now)

    def process_batch(self, tuples: List[Dict[str, Any]]) -> None:
        """Process a chunk of after-images / requests in arrival order,
        accumulating match events so the downstream emission (sorting
        stage + notification fan-out) happens in one pass per chunk
        instead of one broker/queue round-trip per tuple.

        Tracing: each tuple's riding trace is forked (grid tuples are
        shared across edges), its ``publish`` span closed and a
        ``filter`` span wrapped around the matching work; every
        resulting match event inherits a fork of that trace.
        """
        assert self.node is not None
        tel = self.cluster.telemetry
        pairs: List[EventEntry] = []
        now = self.cluster.config.clock()
        for tuple_ in tuples:
            kind = tuple_["kind"]
            trace = fork(trace_of(tuple_)) if tel.enabled else None
            if trace is not None:
                tnow = tel.now()
                end_span(trace, PUBLISH, tnow)
                begin_span(trace, FILTER, tnow)
            deadline = tuple_.get("deadline") if kind == "write" else None
            if kind == "write":
                if (
                    deadline is not None
                    and self.cluster._deadline_now() > deadline
                ):
                    # Budget already spent: computing matches no client
                    # can receive in time is pure wasted work.
                    self.node.deadline_shed += 1
                    if trace is not None:
                        end_span(trace, FILTER, tel.now())
                    continue
                after = deserialize_after_image(tuple_)
                events = self.node.process_write(after, now)
            elif kind == "subscribe":
                events = self._register(tuple_, now)
            elif kind == "cancel":
                self.node.deactivate_query(tuple_["query_id"])
                events = []
            else:
                events = []
            if trace is not None:
                end_span(trace, FILTER, tel.now())
            pairs.extend((event, trace, deadline) for event in events)
        self._dispatch(pairs)

    def _dispatch(self, pairs: List[EventEntry]) -> None:
        tel = self.cluster.telemetry
        if self.cluster.config.notification_coalescing and len(pairs) > 1:
            pairs, dropped = coalesce_events(pairs)
            self.cluster.notifications_coalesced += dropped
        changes: List[Tuple[QueryChange, Optional[Dict[str, Any]]]] = []
        for event, trace, deadline in pairs:
            if event.needs_sorting:
                message: Dict[str, Any] = {
                    "kind": "match-event",
                    "query_id": event.query_id,
                    "event": event,
                }
                if deadline is not None:
                    message["deadline"] = deadline
                branch = fork(trace)
                if branch is not None:
                    begin_span(branch, SORT, tel.now())
                    message["trace"] = branch
                self.emit(message)
            else:
                changes.append((change_from_match_event(event), fork(trace)))
        if changes:
            self.cluster._publish_changes(changes)


class _SortingBolt(Bolt):
    """Sorting-stage task: owns one :class:`SortingNode`."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster
        self.node: Optional[SortingNode] = None

    def clone(self) -> "_SortingBolt":
        return _SortingBolt(self.cluster)

    def prepare(self, task_index: int, parallelism: int, emit: Any) -> None:
        super().prepare(task_index, parallelism, emit)
        self.node = SortingNode(
            task_index,
            engine=self.cluster.engine,
            telemetry=self.cluster.telemetry,
            shared_windows=self.cluster.config.shared_sorted_windows,
            adaptive_slack=self.cluster.config.adaptive_slack,
        )
        self.cluster._sorting_nodes[task_index] = self.node

    def process(self, tuple_: Dict[str, Any]) -> None:
        assert self.node is not None
        kind = tuple_["kind"]
        tel = self.cluster.telemetry
        trace = fork(trace_of(tuple_)) if tel.enabled else None
        if kind == "match-event":
            deadline = tuple_.get("deadline")
            if (
                deadline is not None
                and self.cluster._deadline_now() > deadline
            ):
                # The write's latency budget expired in flight: skipping
                # window maintenance here is safe because the sorting
                # stage resolves any resulting staleness through its
                # renewal path (exactly as it does for dropped events).
                self.node.deadline_shed += 1
                return
            # The ``sort`` span was opened by the matching bolt when it
            # routed the event here; close it around the maintenance.
            changes = self.node.handle_event(tuple_["event"])
            if trace is not None:
                end_span(trace, SORT, tel.now())
            overload = self.cluster.overload
            if (
                changes
                and overload is not None
                and overload.shedding_active()
                and overload.defer_sorted(self.node, changes)
            ):
                # Diffs swallowed; a periodic snapshot refresh of the
                # dirty window replaces them (convergence-safe).
                return
        elif kind == "subscribe":
            query = self.cluster._query_from_wire(tuple_)
            if not query.needs_sorting_stage:
                return
            if trace is not None:
                tnow = tel.now()
                end_span(trace, PUBLISH, tnow)
                begin_span(trace, SORT, tnow)
            versions = {key: version for key, version in tuple_["versions"]}
            changes = self.node.register_query(
                query,
                tuple_["bootstrap"],
                versions,
                slack=tuple_.get("slack", self.cluster.config.default_slack),
                timestamp=self.cluster.config.clock(),
            )
            if trace is not None:
                end_span(trace, SORT, tel.now())
        elif kind == "cancel":
            self.node.deactivate_query(tuple_["query_id"])
            return
        else:
            return
        if changes:
            self.cluster._publish_changes(
                [(change, fork(trace)) for change in changes]
            )


class _ProcessGridBolt(Bolt):
    """Grid-task proxy under the process execution model.

    Owns no matching/sorting state of its own: ``prepare`` leases a
    worker-hosted cell from the pool (the lease ships a picklable spec
    over the control channel), and each batch becomes one framed
    round-trip.  The reply envelope's serialized emits are routed
    exactly like the in-process bolts route theirs: match events flow
    to the sorting grid, changes to the notification fan-out.

    Crash semantics: a request failing with
    :class:`~repro.errors.WorkerDiedError` (and, independently, the
    pool's death listener) reports THIS task crashed, so the
    :class:`NodeSupervisor` restarts it exactly like an in-process
    crash — a fresh ``prepare`` re-leases the cell into a respawned
    worker, and re-registration + retained-write replay rebuild it.

    Tracing: sampled traces RIDE the wire envelopes (only the routing-
    internal ``__task__`` key is stripped).  The worker stamps its
    filter/sort spans with a clock calibrated into the parent's
    ``perf_counter`` domain at fork, and the extended trace forks ride
    back piggybacked on the same REPLY emits — no extra round-trip —
    where this proxy routes them into the notification fan-out so the
    parent tracer sees the complete chain.
    """

    def __init__(self, cluster: "InvaliDBCluster", role: str):
        self.cluster = cluster
        self.role = role
        self.cell: Optional[Any] = None

    def clone(self) -> "_ProcessGridBolt":
        return _ProcessGridBolt(self.cluster, self.role)

    def prepare(self, task_index: int, parallelism: int, emit: Any) -> None:
        super().prepare(task_index, parallelism, emit)
        cluster = self.cluster
        pool = cluster._execution.worker_pool
        spec, slot = cluster._cell_spec(self.role, task_index)
        self.cell = pool.lease(f"{self.role}-{task_index}", spec, slot=slot)
        cluster._remote_cells[(self.role, task_index)] = self.cell

    def process(self, tuple_: Dict[str, Any]) -> None:
        self.process_batch([tuple_])

    def process_batch(self, tuples: List[Dict[str, Any]]) -> None:
        cell = self.cell
        if cell is None:
            return
        outbound = [
            {
                key: value for key, value in tuple_.items()
                if key != "__task__"
            }
            if "__task__" in tuple_ else tuple_
            for tuple_ in tuples
        ]
        try:
            reply = cell.request_batch(outbound)
        except WorkerDiedError as exc:
            # The pool's death listener fires too; crash_task is
            # idempotent, so double reporting is harmless.
            self.cluster._runtime.crash_task(
                self.role, self.task_index, str(exc)
            )
            return
        coalesced = reply.get("coalesced", 0)
        if coalesced:
            self.cluster.notifications_coalesced += coalesced
        changes: List[Tuple[QueryChange, Optional[Dict[str, Any]]]] = []
        for emit in reply["emits"]:
            if emit["kind"] == "match-event":
                # The worker already opened the sort span; the emit
                # (trace included) flows to the sorting grid as-is.
                self.emit(emit)
            else:
                changes.append(
                    (deserialize_change(emit["change"]), trace_of(emit))
                )
        if changes:
            self.cluster._publish_changes(changes)


class _NotificationStager:
    """Cross-batch notification coalescing (time-window staging).

    In-batch coalescing (:meth:`_MatchingBolt._coalesce`) cannot elide
    redundancy that spans dispatch batches — a hot key rewritten every
    few milliseconds still produces one notification per batch.  The
    stager holds unsorted-query changes for a configurable window
    (``coalescing_window_seconds``), collapsing per (query, key) with
    the same rewrite rules, then fans out the survivors.  Sorted-query
    changes bypass staging entirely: positional transitions must reach
    the client unmerged and in order.

    The flush timer runs on the cluster's execution model, so under the
    deterministic inline model the window is *virtual* time — a test's
    ``drain()`` fires the flush, keeping staged delivery reproducible.
    """

    def __init__(
        self,
        cluster: "InvaliDBCluster",
        window: float,
        on_coalesce: Optional[Any] = None,
    ):
        self.cluster = cluster
        self.window = window
        #: Where elisions are counted: the cluster-wide coalescing
        #: counter by default, or a caller-supplied callback (the
        #: overload controller's shed stager keeps its own books so
        #: clean-run coalescing and pressure shedding stay separable).
        self._on_coalesce = on_coalesce
        self._lock = threading.Lock()
        #: (query_id, key) -> [first_type, latest change, latest trace]
        self._staged: Dict[Tuple[str, Any], List[Any]] = {}
        self._flush_scheduled = False
        self.staged_total = 0
        self.flushes = 0

    def _note(self) -> None:
        if self._on_coalesce is not None:
            self._on_coalesce()
        else:
            self.cluster.notifications_coalesced += 1

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
                self._note()
            if not self._flush_scheduled:
                self._flush_scheduled = True
                schedule = True
        if schedule:
            self.cluster._execution.call_later(self.window, self.flush)
        return True

    def flush(self) -> int:
        """Deliver every staged survivor; returns how many went out."""
        with self._lock:
            staged, self._staged = self._staged, {}
            self._flush_scheduled = False
            self.flushes += 1
        survivors: List[Tuple[QueryChange, Optional[Dict[str, Any]]]] = []
        for first, change, trace in staged.values():
            final = resolve_coalesced_type(first, change.match_type)
            if final is None:
                self._note()
                continue
            if final is not change.match_type:
                change = replace(change, match_type=final)
            survivors.append((change, trace))
        if survivors:
            self.cluster._deliver_changes(survivors)
        return len(survivors)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "window_seconds": self.window,
                "staged_total": self.staged_total,
                "pending": len(self._staged),
                "flushes": self.flushes,
            }


class InvaliDBCluster:
    """The real-time component, isolated behind the event layer."""

    def __init__(
        self,
        broker: Broker,
        config: Optional[InvaliDBConfig] = None,
        tenant: str = "default",
        execution: Optional[ExecutionModel] = None,
    ):
        self.broker = broker
        self.config = config if config is not None else InvaliDBConfig()
        self.tenant = tenant
        # Execution substrate for the matching grid.  Precedence:
        # explicit argument > the config's > the broker's own model.
        # The default (sharing the broker's model) puts event layer and
        # grid on ONE substrate, so a single drain() spans the whole
        # broker -> ingestion -> matching -> broker pipeline.
        self._owns_execution = False
        configured = self.config.execution_config()
        if execution is not None:
            self._execution = execution
        elif configured is not None:
            self._execution = build_execution_model(configured)
            self._owns_execution = True
        else:
            self._execution = broker.execution
        # Observability.  A configured spec is built and attached to the
        # grid's execution model AND the broker's (they may differ), so
        # mailboxes, the fault injector and subscribed clients all feed
        # one registry; with no spec the cluster inherits whatever is
        # already attached to the model (usually the no-op handle).
        if self.config.telemetry is not None:
            self.telemetry = build_telemetry(self.config.telemetry)
            self._execution.set_telemetry(self.telemetry)
            if broker.execution is not self._execution:
                broker.execution.set_telemetry(self.telemetry)
        else:
            self.telemetry = self._execution.telemetry
        if self.telemetry.enabled:
            self.telemetry.registry.register_collector(self._collect_metrics)
        self.engine = MongoQueryEngine()
        self.scheme = PartitioningScheme(
            self.config.query_partitions, self.config.write_partitions
        )
        #: Per-query SLO accounting rides on telemetry: None when
        #: telemetry is off so the delivery hot path pays one attribute
        #: load, exactly like the other observability gates.
        self.slo: Optional[SLOAccountant] = None
        if self.telemetry.enabled:
            self.slo = SLOAccountant(
                self.telemetry,
                self.scheme,
                latency_target=self.config.slo_latency_target,
                objective=self.config.slo_objective,
                clock=self.config.clock,
            )
        #: Flight recorder: always recording (ring appends are cheap);
        #: dumps only when a directory is configured.  Context
        #: providers are parent-local by contract — dump triggers can
        #: fire from threads holding worker channel locks, so no
        #: provider may round-trip to a worker.
        self.flight = FlightRecorder(
            node=tenant,
            capacity=self.config.flight_recorder_capacity,
            directory=self.config.flight_recorder_dir,
            clock=self.config.clock,
        )
        self._dumped_worker_pids: set = set()
        self._filtering_nodes: Dict[int, FilteringNode] = {}
        self._sorting_nodes: Dict[int, SortingNode] = {}
        #: Process model: (role, task_index) -> RemoteCell handle.
        self._remote_cells: Dict[Tuple[str, int], Any] = {}
        self._process_mode = isinstance(self._execution, ProcessExecutionModel)
        #: Cross-batch notification staging (None = disabled).
        self.stager: Optional[_NotificationStager] = None
        if self.config.coalescing_window_seconds > 0:
            self.stager = _NotificationStager(
                self, self.config.coalescing_window_seconds
            )
        #: Overload control seam (None = gate off: zero-cost, the hot
        #: paths skip every check on one attribute load).
        self.overload: Optional[OverloadController] = None
        if self.config.overload_control:
            self.overload = OverloadController(self)
        self._registrations: Dict[str, QueryRegistration] = {}
        self._registration_lock = threading.Lock()
        self._query_cache: Dict[str, Query] = {}
        self._subscriptions: List[Any] = []
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self.notifications_sent = 0
        #: Notifications coalesced away within dispatch batches (the
        #: fan-out the client never had to see).  Monitoring-grade, like
        #: notifications_sent: incremented from bolt threads.
        self.notifications_coalesced = 0
        self.queries_renewed = 0
        #: Recovery state, cluster level (survives any one node's
        #: death): the latest subscribe wire payload per query, and one
        #: retained write stream per write partition.
        self._wires: Dict[str, Dict[str, Any]] = {}
        self._retention_lock = threading.Lock()
        self._write_retention: Dict[int, RetentionBuffer] = {
            wp: RetentionBuffer(self.config.retention_seconds)
            for wp in range(self.scheme.write_partitions)
        }
        self._runtime = self._build_runtime()
        if self._process_mode:
            # A dying worker orphans every cell it hosted; report each
            # as a crashed grid task so supervised recovery rebuilds
            # them in a respawned worker.
            self._execution.worker_pool.add_death_listener(
                self._on_worker_death
            )
        self.supervisor: Optional[NodeSupervisor] = None
        if self.config.supervision:
            self.supervisor = NodeSupervisor(self).attach()
        self._install_flight_context()

    def _install_flight_context(self) -> None:
        """Dump-time context sections: cheap, parent-local reads only."""
        flight = self.flight
        flight.add_context("grid", lambda: {
            "query_partitions": self.scheme.query_partitions,
            "write_partitions": self.scheme.write_partitions,
            "sorting_nodes": self.config.sorting_nodes,
            "execution_model": (
                "process" if self._process_mode
                else ("inline" if self._execution.deterministic
                      else "threaded")
            ),
        })
        flight.add_context("supervisor", lambda: (
            self.supervisor.stats() if self.supervisor is not None else {}
        ))
        flight.add_context("faults", lambda: (
            self._execution.fault_injector.stats()
            if self._execution.fault_injector is not None else {}
        ))
        if self.overload is not None:
            flight.add_context("health", self.overload.snapshot)
        if self.telemetry.enabled:
            tracer = self.telemetry.tracer
            flight.add_context(
                "recent_traces", lambda: list(tracer.transcripts)[-32:]
            )
            flight.add_context(
                "slow_events", lambda: list(tracer.slow_events)[-32:]
            )
            flight.add_context("trace_stats", tracer.stats)
        if self.slo is not None:
            flight.add_context("slo", self.slo.summary)

    # ------------------------------------------------------------------
    # Topology wiring
    # ------------------------------------------------------------------

    def _cell_spec(self, role: str, task_index: int) -> Tuple[Any, Optional[int]]:
        """Picklable cell description + worker-slot pin for one grid
        task (process model)."""
        from repro.core.remote import MatchingCellSpec, SortingCellSpec

        config = self.config
        telemetry = bool(self.telemetry.enabled)
        if role == "matching":
            spec = MatchingCellSpec(
                task_index=task_index,
                query_partitions=self.scheme.query_partitions,
                write_partitions=self.scheme.write_partitions,
                retention_seconds=config.retention_seconds,
                query_index=config.query_index,
                spatial_index=config.spatial_index,
                text_index=config.text_index,
                spatial_grid_cells=config.spatial_grid_cells,
                notification_coalescing=config.notification_coalescing,
                telemetry=telemetry,
            )
            workers = self._execution.worker_pool.worker_processes
            slot = (
                self.scheme.worker_slot(task_index, workers)
                if workers else None
            )
            return spec, slot
        spec = SortingCellSpec(
            task_index=task_index,
            shared_windows=config.shared_sorted_windows,
            adaptive_slack=config.adaptive_slack,
            default_slack=config.default_slack,
            telemetry=telemetry,
        )
        return spec, None

    def _on_worker_death(self, cell_name: str, pid: int, reason: str) -> None:
        """Pool death listener: a worker process died — report every
        grid cell it hosted as crashed (``kill -9`` looks exactly like
        an in-process node failure to the supervisor)."""
        self.flight.record(
            "worker-death", cell=cell_name, pid=pid, reason=reason
        )
        role, _, index = cell_name.rpartition("-")
        try:
            task_index = int(index)
        except ValueError:  # pragma: no cover - foreign cell name
            return
        if role in ("matching", "sorting"):
            self._runtime.crash_task(
                role, task_index, f"worker pid {pid} died: {reason}"
            )
        # One dump per dead worker, not per orphaned cell (a worker may
        # host several cells; the listener fires once for each).
        if pid not in self._dumped_worker_pids:
            self._dumped_worker_pids.add(pid)
            self.flight.dump("worker-death")

    def _build_runtime(self) -> LocalRuntime:
        scheme = self.scheme

        def route_query(tuple_: Dict[str, Any], parallelism: int) -> List[int]:
            qp = tuple_["query_partition"]
            return [
                qp * scheme.write_partitions + wp
                for wp in range(scheme.write_partitions)
            ]

        def route_write(tuple_: Dict[str, Any], parallelism: int) -> List[int]:
            wp = tuple_["write_partition"]
            return [
                qp * scheme.write_partitions + wp
                for qp in range(scheme.query_partitions)
            ]

        builder = TopologyBuilder()
        builder.add_bolt(
            "query-ingestion",
            _QueryIngestionBolt(self),
            parallelism=self.config.query_ingestion_nodes,
        )
        builder.add_bolt(
            "write-ingestion",
            _WriteIngestionBolt(self),
            parallelism=self.config.write_ingestion_nodes,
        )
        if self._process_mode:
            matching_bolt: Bolt = _ProcessGridBolt(self, "matching")
            sorting_bolt: Bolt = _ProcessGridBolt(self, "sorting")
        else:
            matching_bolt = _MatchingBolt(self)
            sorting_bolt = _SortingBolt(self)
        builder.add_bolt(
            "matching", matching_bolt, parallelism=scheme.node_count
        )
        builder.add_bolt(
            "sorting", sorting_bolt, parallelism=self.config.sorting_nodes
        )
        builder.connect("query-ingestion", "matching", CustomGrouping(route_query))
        builder.connect("query-ingestion", "sorting", FieldsGrouping("query_id"))
        builder.connect("write-ingestion", "matching", CustomGrouping(route_write))
        builder.connect("matching", "sorting", FieldsGrouping("query_id"))
        return LocalRuntime(
            builder.build(),
            execution=self._execution,
            error_threshold=self.config.crash_error_threshold or None,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "InvaliDBCluster":
        self._runtime.start()
        self._subscriptions.append(
            self.broker.subscribe(write_channel(self.tenant), self._on_write_message)
        )
        self._subscriptions.append(
            self.broker.subscribe(query_channel(self.tenant), self._on_query_message)
        )
        if not self._execution.deterministic:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="invalidb-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()
        # Deterministic (inline) mode: no background threads — tests
        # pump heartbeats explicitly via publish_heartbeat().
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self.overload is not None:
            # Deferred sorted refreshes and shed-staged notifications
            # go out while the broker is still open — shutdown must
            # never strand degraded-mode deliveries.
            self.overload.flush_refresh()
            if self.overload.shed_stager is not None:
                self.overload.shed_stager.flush()
        if self.stager is not None:
            # Deliver anything still staged while the broker is open.
            self.stager.flush()
        for subscription in self._subscriptions:
            subscription.close()
        self._subscriptions.clear()
        self._runtime.stop()
        if self._owns_execution:
            self._execution.shutdown()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)

    def __enter__(self) -> "InvaliDBCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until broker and topology queues are empty (for tests).

        When the cluster shares the broker's execution model (the
        default) both calls drain the same substrate, so one round
        reaches quiescence across the whole pipeline — no alternating
        sleep-polling.  With SEPARATE substrates (e.g. an inline broker
        feeding a process-model grid) quiescence on one side can enqueue
        onto the other — notifications published by grid tasks land
        back in broker mailboxes — so the two are drained alternately
        until a full round stays quiet."""
        if self.broker.execution is self._execution:
            ok = self.broker.drain(timeout)
            return self._runtime.drain(timeout) and ok
        ok = True
        for _ in range(4):
            ok = self.broker.drain(timeout)
            ok = self._runtime.drain(timeout) and ok
        return ok

    # ------------------------------------------------------------------
    # Event-layer intake
    # ------------------------------------------------------------------

    def _on_write_message(self, channel: str, payload: Dict[str, Any]) -> None:
        self._runtime.inject("write-ingestion", payload)

    def _on_query_message(self, channel: str, payload: Dict[str, Any]) -> None:
        self._runtime.inject("query-ingestion", payload)

    # ------------------------------------------------------------------
    # Registration bookkeeping (thread-safe, called from ingestion bolts)
    # ------------------------------------------------------------------

    def _query_from_wire(self, tuple_: Dict[str, Any]) -> Query:
        query_id = tuple_["query_id"]
        cached = self._query_cache.get(query_id)
        if cached is not None:
            return cached
        query = deserialize_query(tuple_["query"])
        self._query_cache[query_id] = query
        return query

    def _register(self, tuple_: Dict[str, Any]) -> None:
        now = self.config.clock()
        query = self._query_from_wire(tuple_)
        with self._registration_lock:
            registration = self._registrations.get(query.query_id)
            if registration is None:
                registration = QueryRegistration(
                    query, now, ttl=self.config.subscription_ttl
                )
                self._registrations[query.query_id] = registration
            registration.subscribe(tuple_["app_server"], now)
            # The latest subscribe wire IS the query's recovery record:
            # a restarted matching node re-registers from it.  The
            # riding trace (if any) is dropped — recovery re-injection
            # must not extend a long-completed trace.
            self._wires[query.query_id] = {
                key: value for key, value in tuple_.items()
                if key not in ("__task__", "trace")
            }
            if tuple_.get("renewal"):
                self.queries_renewed += 1

    def _cancel(self, tuple_: Dict[str, Any]) -> bool:
        """Unsubscribe one app server; True when the query is now unused."""
        with self._registration_lock:
            registration = self._registrations.get(tuple_["query_id"])
            if registration is None:
                return False
            registration.cancel(tuple_["app_server"])
            if registration.active:
                return False
            del self._registrations[tuple_["query_id"]]
            self._query_cache.pop(tuple_["query_id"], None)
            self._wires.pop(tuple_["query_id"], None)
            return True

    def _extend_ttl(self, tuple_: Dict[str, Any]) -> None:
        # The extension must happen under the registry lock: releasing
        # it between the lookup and extend() races sweep_expired, which
        # could expire-and-cancel the registration in the gap and then
        # have the late extend() resurrect a query the grid already
        # deactivated.
        with self._registration_lock:
            registration = self._registrations.get(tuple_["query_id"])
            if registration is not None:
                registration.extend(tuple_["app_server"], self.config.clock())

    def sweep_expired(self) -> List[str]:
        """Deactivate queries whose every subscriber's TTL lapsed.

        Returns the deactivated query IDs.  Called periodically by the
        heartbeat loop, and directly by tests with a fake clock.
        """
        now = self.config.clock()
        deactivated: List[Tuple[str, int]] = []
        with self._registration_lock:
            for query_id, registration in list(self._registrations.items()):
                registration.expire(now)
                if not registration.active:
                    del self._registrations[query_id]
                    self._query_cache.pop(query_id, None)
                    self._wires.pop(query_id, None)
                    deactivated.append((query_id, registration.query.hash))
        for query_id, query_hash in deactivated:
            self._runtime.inject(
                "query-ingestion",
                {"kind": "cancel", "query_id": query_id,
                 "query_hash": query_hash, "app_server": "__reaper__",
                 "force": True},
            )
        return [query_id for query_id, _ in deactivated]

    # ------------------------------------------------------------------
    # Recovery state (read by the NodeSupervisor)
    # ------------------------------------------------------------------

    def _retain_write(self, wp: int, tuple_: Dict[str, Any]) -> None:
        """Record an after-image in the write partition's retained
        stream (cluster level, so it survives any matching node)."""
        after = deserialize_after_image(tuple_)
        with self._retention_lock:
            self._write_retention[wp].observe(after, self.config.clock())

    def _retained_writes(self, wp: int) -> List[Dict[str, Any]]:
        """Wire payloads of the write partition's retention window."""
        with self._retention_lock:
            images = self._write_retention[wp].replay(self.config.clock())
        return [serialize_after_image(after) for after in images]

    def _subscribe_wires(self) -> List[Dict[str, Any]]:
        """The stored subscribe request of every active query."""
        with self._registration_lock:
            return list(self._wires.values())

    # ------------------------------------------------------------------
    # Notification fan-out
    # ------------------------------------------------------------------

    def _publish_changes(
        self,
        entries: List[Tuple[QueryChange, Optional[Dict[str, Any]]]],
    ) -> None:
        """Fan one dispatch batch's ``(change, owned trace fork)`` list
        out: stage what the shed / coalescing stagers take, deliver the
        rest in one envelope per app server."""
        stagers = []
        overload = self.overload
        if (
            overload is not None
            and overload.shed_stager is not None
            and overload.shedding_active()
        ):
            # Degraded mode: per-event delivery collapses to coalesced
            # latest-value through the pressure-widened window.
            stagers.append(overload.shed_stager)
        if self.stager is not None:
            stagers.append(self.stager)
        if stagers:
            entries = [
                entry for entry in entries
                if not any(stager.offer(*entry) for stager in stagers)
            ]
        if entries:
            self._deliver_changes(entries)

    def _deliver_changes(
        self,
        entries: List[Tuple[QueryChange, Optional[Dict[str, Any]]]],
    ) -> None:
        """Publish *entries* as one :class:`ChangeEnvelope` per
        subscribed app server, rows in entry order."""
        slo = self.slo
        if slo is not None:
            for change, _ in entries:
                slo.observe(change)
        tel = self.telemetry
        envelopes: Dict[str, ChangeEnvelope] = {}
        with self._registration_lock:
            registrations = self._registrations
            for change, trace in entries:
                registration = registrations.get(change.query_id)
                if registration is None:
                    continue
                if trace is not None:
                    begin_span(trace, DELIVER, tel.now())
                branch = trace
                for position, app_server in enumerate(
                    registration.app_servers
                ):
                    if position and trace is not None:
                        # One branch per subscriber: each delivery is
                        # its own span (and its own completed trace at
                        # the client).  Callers pass an owned fork, so
                        # the first subscriber reuses it.
                        branch = fork(trace)
                    envelope = envelopes.get(app_server)
                    if envelope is None:
                        envelope = envelopes[app_server] = ChangeEnvelope()
                    envelope.add(change, branch)
        for app_server, envelope in envelopes.items():
            self.broker.publish(
                notification_channel(app_server), envelope.payload()
            )
            # Counts notifications (rows per subscriber), not envelopes.
            self.notifications_sent += len(envelope.rows)

    def _deliver_refresh(self, query_id: str, documents: List[Any]) -> None:
        """Fan one wholesale sorted-window snapshot out to the query's
        subscribers (the shed replacement for a burst of diffs)."""
        with self._registration_lock:
            registration = self._registrations.get(query_id)
            app_servers = (
                [] if registration is None else registration.app_servers
            )
        if not app_servers:
            return
        payload = serialize_refresh(query_id, documents, self.config.clock())
        for app_server in app_servers:
            try:
                self.broker.publish(
                    notification_channel(app_server), payload
                )
            except Exception:  # noqa: BLE001 - broker may be closing
                return

    def _deadline_now(self) -> float:
        """The clock deadlines are compared against: virtual time under
        the inline model (deterministic shedding), config clock else."""
        if self._execution.deterministic:
            return self._execution.virtual_now
        return self.config.clock()

    def _deadline_shed_total(self) -> int:
        """Writes/events shed across the grid because their latency
        budget expired before the stage reached them."""
        total = sum(
            node.deadline_shed for node in self._filtering_nodes.values()
        )
        total += sum(
            node.deadline_shed for node in self._sorting_nodes.values()
        )
        return total

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def publish_heartbeat(self) -> int:
        """Sweep expired queries and heartbeat every subscribed app
        server once.  Called periodically by the threaded heartbeat
        loop; called explicitly by tests running the deterministic
        inline model (which has no background threads)."""
        self.sweep_expired()
        with self._registration_lock:
            app_servers = {
                server
                for registration in self._registrations.values()
                for server in registration.app_servers
            }
        payload = {"kind": "heartbeat", "timestamp": self.config.clock()}
        if self.overload is not None:
            # Heartbeats double as the health-evaluation tick and carry
            # the state so clients can signal degraded mode.  Gate off,
            # the payload is byte-identical to previous releases.
            self.overload.evaluate()
            payload["health"] = self.overload.state
        sent = 0
        for app_server in app_servers:
            self.broker.publish(notification_channel(app_server), payload)
            sent += 1
        return sent

    def _heartbeat_loop(self) -> None:
        while not self._stopping.wait(self.config.heartbeat_interval):
            try:
                self.publish_heartbeat()
            except Exception:  # noqa: BLE001 - broker may be closing
                return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def active_query_ids(self) -> List[str]:
        with self._registration_lock:
            return list(self._registrations)

    def _collect_metrics(self) -> Dict[str, Any]:
        """Registry collector bridging the cluster's plain hot-path
        counters into telemetry snapshots.  Must stay cheap and must
        NOT call :meth:`snapshot` (the registry invokes this from
        inside its own snapshot)."""
        with self._registration_lock:
            active = len(self._registrations)
        # Under the process model the cells live in workers and these
        # sums stay 0 here; per-cell counters come back through the
        # control channel in :meth:`snapshot` instead (a registry
        # collector must not block on worker round-trips).
        nodes = list(self._filtering_nodes.values())
        overload_keys: Dict[str, Any] = {}
        if self.overload is not None:
            ov = self.overload
            overload_keys = {
                "cluster.health_state": float(HEALTH_SEVERITY[ov.state]),
                "cluster.writes_rejected": ov.writes_rejected,
                "cluster.writes_dropped": ov.writes_dropped,
                "cluster.notifications_shed": ov.notifications_shed,
                "cluster.sorted_changes_shed": ov.sorted_changes_shed,
                "cluster.refreshes_sent": ov.refreshes_sent,
                "cluster.deadline_shed": self._deadline_shed_total(),
                "cluster.admission_rate": ov.governor.rate,
            }
        return {
            **overload_keys,
            "cluster.active_queries": active,
            "cluster.notifications_sent": self.notifications_sent,
            "cluster.notifications_coalesced": self.notifications_coalesced,
            "cluster.queries_renewed": self.queries_renewed,
            "cluster.writes_processed": sum(
                node.writes_processed for node in nodes
            ),
            "cluster.matched_operations": sum(
                node.matched_operations for node in nodes
            ),
            "cluster.dag_nodes_evaluated": sum(
                node.dag.nodes_evaluated for node in nodes
            ),
            "cluster.dag_node_hits": sum(
                node.dag.node_hits for node in nodes
            ),
            "cluster.dag_queries_served": sum(
                node.dag.queries_served for node in nodes
            ),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The unified observability view: one pass over the grid.

        Registration state is captured under a single lock
        acquisition; each filtering node's counters are read exactly
        once and totals are derived from those same rows (the old
        ``stats()`` walked every node five times).  The shape is the
        contract of :func:`repro.obs.inspector.render` and the
        exporters; :meth:`stats` remains as a compatibility shim over
        this view.

        Thread-safety: node counters are plain attributes written by
        their owning grid task; reading them here without a lock can
        lag by an in-flight increment but can never tear (ints swap
        atomically under the GIL), which is fine for monitoring.
        """
        with self._registration_lock:
            active = len(self._registrations)
            app_servers = sorted({
                server
                for registration in self._registrations.values()
                for server in registration.app_servers
            })
        matching_rows: List[Dict[str, Any]] = []
        sorting_rows: List[Dict[str, Any]] = []
        workers: Optional[Dict[str, Any]] = None
        if self._process_mode:
            matching_rows, sorting_rows, workers = self._remote_rows()
        else:
            for index in sorted(self._filtering_nodes):
                node = self._filtering_nodes[index]
                row = node.stats()
                row["node"] = f"matching[{index}]"
                row["coordinates"] = str(node.coordinates)
                row["query_partition"] = node.coordinates.query_partition
                row["write_partition"] = node.coordinates.write_partition
                matching_rows.append(row)
        # Inline and process rows have the same shape; an
        # ``unreachable`` process row carries no counters.
        considered = pruned = matched = 0
        dag_nodes_evaluated = dag_node_hits = dag_queries_served = 0
        for row in matching_rows:
            considered += row.get("candidates_considered", 0)
            pruned += row.get("candidates_pruned", 0)
            matched += row.get("matched_operations", 0)
            dag = row.get("dag", {})
            dag_nodes_evaluated += dag.get("nodes_evaluated", 0)
            dag_node_hits += dag.get("node_hits", 0)
            dag_queries_served += dag.get("queries_served", 0)
        access_paths: Dict[str, Any] = {
            "queries": 0,
            "residual_queries": 0,
            "eq_entries": 0,
            "range_entries": 0,
            "interval_entries": 0,
            "spatial_entries": 0,
            "spatial_cells": 0,
            "text_entries": 0,
            "text_tokens": 0,
            "hits": {
                "residual": 0,
                "equality": 0,
                "range": 0,
                "interval": 0,
                "spatial": 0,
                "text": 0,
            },
        }
        for row in matching_rows:
            index_stats = row.get("index")
            if not index_stats:
                continue
            for key in access_paths:
                if key == "hits":
                    continue
                access_paths[key] += index_stats.get(key, 0)
            for family, count in index_stats.get("hits", {}).items():
                if family in access_paths["hits"]:
                    access_paths["hits"][family] += count
        matching_totals = {
            "matched_operations": matched,
            "access_paths": access_paths,
            "candidates_considered": considered,
            "candidates_pruned": pruned,
            "pruning_ratio": round(
                pruned / (considered + pruned), 4
            ) if considered + pruned else 0.0,
            "dag_nodes_evaluated": dag_nodes_evaluated,
            "dag_node_hits": dag_node_hits,
            "dag_queries_served": dag_queries_served,
            "dag_share_ratio": round(
                share_ratio(dag_node_hits, dag_nodes_evaluated), 4
            ),
        }
        if not self._process_mode:
            sorting_rows = [
                {
                    "node": f"sorting[{index}]",
                    "query_partition": index,
                    "queries": self._sorting_nodes[index].query_count,
                    "events_processed":
                        self._sorting_nodes[index].events_processed,
                    "renewals_requested":
                        self._sorting_nodes[index].renewals_requested,
                    "window_comparisons":
                        self._sorting_nodes[index].window_comparisons,
                    "shared_groups":
                        self._sorting_nodes[index].shared_group_count,
                    "shared_attach":
                        self._sorting_nodes[index].shared_attach,
                    "shared_miss":
                        self._sorting_nodes[index].shared_miss,
                    "deadline_shed":
                        self._sorting_nodes[index].deadline_shed,
                }
                for index in sorted(self._sorting_nodes)
            ]
        execution_stats = self._execution.stats()
        mailboxes = [
            {
                "name": name,
                "depth": box.get("depth", 0),
                "enqueued": box.get("enqueued", 0),
                "processed": box.get("handled", box.get("dequeued", 0)),
                "dropped": box.get("dropped", 0),
            }
            for name, box in sorted(
                execution_stats.get("mailboxes", {}).items()
            )
        ]
        injector = self._execution.fault_injector
        faults = (
            injector.stats() if injector is not None
            else {
                "armed": False, "injected": 0, "dropped": 0,
                "duplicated": 0, "delayed": 0, "reordered": 0,
                "corrupted": 0, "crashes": 0, "errors": 0, "rules": [],
            }
        )
        supervisor = (
            self.supervisor.stats() if self.supervisor is not None
            else {
                "crashes_seen": 0, "restarts": 0, "replayed_writes": 0,
                "reregistered_queries": 0, "gave_up": 0, "pending": 0,
            }
        )
        snap: Dict[str, Any] = {
            "config": {
                "query_partitions": self.scheme.query_partitions,
                "write_partitions": self.scheme.write_partitions,
                "sorting_nodes": self.config.sorting_nodes,
                "execution_mode": execution_stats.get("mode"),
                "telemetry_enabled": self.telemetry.enabled,
            },
            "active_queries": active,
            "app_servers": app_servers,
            "notifications_sent": self.notifications_sent,
            "notifications_coalesced": self.notifications_coalesced,
            "queries_renewed": self.queries_renewed,
            "matching": matching_rows,
            "matching_totals": matching_totals,
            "sorting": sorting_rows,
            "mailboxes": mailboxes,
            "telemetry": self.telemetry.snapshot(),
            "faults": faults,
            "supervisor": supervisor,
            "runtime": self._runtime.stats(),
        }
        snap["flight"] = self.flight.snapshot()
        if self.slo is not None:
            snap["slo"] = self.slo.summary()
        if workers is not None:
            snap["workers"] = workers
        if self.stager is not None:
            snap["coalescing"] = self.stager.stats()
        if self.overload is not None:
            snap["health"] = self.overload.snapshot()
        return snap

    def _remote_rows(
        self,
    ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], Dict[str, Any]]:
        """Process-mode grid rows: one control-channel snapshot per cell.

        Each reply carries the worker's pid, the cell's stats row (the
        same shape the in-process nodes report) and that worker's wire
        counters; wire counters are deduplicated by pid (several cells
        share one worker) and merged with the parent side's encode
        counters into a single ``wire`` aggregate.  A cell whose worker
        died between crash and supervised restart is reported as an
        ``unreachable`` row instead of failing the whole snapshot.
        """
        pool = self._execution.worker_pool
        matching_rows: List[Dict[str, Any]] = []
        sorting_rows: List[Dict[str, Any]] = []
        wire = WireStats()
        wire.merge(pool.stats.snapshot())
        seen_pids: set = set()
        for role, index in sorted(self._remote_cells):
            cell = self._remote_cells[(role, index)]
            try:
                reply = cell.snapshot()
            except Exception as exc:  # noqa: BLE001 - worker may be dead
                row = {
                    "node": f"{role}[{index}]",
                    "unreachable": str(exc),
                }
                (matching_rows if role == "matching"
                 else sorting_rows).append(row)
                continue
            row = reply.get("cell") or {}
            row["node"] = f"{role}[{index}]"
            row["pid"] = reply.get("pid")
            if role == "matching":
                matching_rows.append(row)
            else:
                row.setdefault("query_partition", index)
                sorting_rows.append(row)
            pid = reply.get("pid")
            if pid is not None and pid not in seen_pids:
                seen_pids.add(pid)
                wire.merge(reply.get("wire", {}))
        workers = {
            "pool": pool.snapshot(),
            "wire": wire.snapshot(),
        }
        return matching_rows, sorting_rows, workers

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot: grid shape, load, notification volume.

        Compatibility shim over :meth:`snapshot` preserving the legacy
        key layout (``matching`` = grid totals, ``matching_nodes`` =
        per-coordinates dicts)."""
        snap = self.snapshot()
        return {
            "grid": f"{self.scheme.query_partitions}x"
                    f"{self.scheme.write_partitions}",
            "active_queries": snap["active_queries"],
            "app_servers": snap["app_servers"],
            "notifications_sent": snap["notifications_sent"],
            "notifications_coalesced": snap["notifications_coalesced"],
            "queries_renewed": snap["queries_renewed"],
            "matching": snap["matching_totals"],
            "matching_nodes": {
                row.get("coordinates", row["node"]): row
                for row in snap["matching"]
            },
            "faults": snap["faults"],
            "supervisor": snap["supervisor"],
            "runtime": snap["runtime"],
        }

    def filtering_node(self, qp: int, wp: int) -> Optional[FilteringNode]:
        index = qp * self.scheme.write_partitions + wp
        return self._filtering_nodes.get(index)

    @property
    def matching_node_count(self) -> int:
        return self.scheme.node_count
