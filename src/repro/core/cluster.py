"""The InvaliDB cluster: the event-layer intake + the 2D matching grid.

Connects the grid (:mod:`repro.core.grid`) to the event layer
(:mod:`repro.event`), reproducing Figure 2 of the paper:

* **intake** (stateless, on the broker's delivery callback, in place of
  the paper's ingestion nodes): a subscription / cancellation /
  TTL-extension request goes to every matching node of its query
  partition (each keeps only its write-partition slice of the bootstrap
  result); an after-image goes to every matching node of its write
  partition, in publish order;
* **matching** (filtering stage): one
  :class:`~repro.core.remote.MatchingCell` per grid cell; unsorted-query
  changes go straight to the event layer, sorted queries forward their
  match events to the sorting stage;
* **sorting**: sorted queries partitioned by query ID across
  :class:`~repro.core.remote.SortingCell` tasks.

The stage loop lives in the cell; the cluster builds each cell here
(:meth:`InvaliDBCluster._host_cell`) or leases it from the worker pool
under the process execution model, and the grid task hosting it routes
what it produces.

The cluster is multi-tenant: it tracks which application servers
subscribed to which query and fans change notifications out to each of
their notification channels.  Heartbeats are published periodically so
application servers can detect cluster failure (Section 5).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode
from repro.core.grid import Grid
from repro.core.notifications import ChangeEnvelope, QueryChange
from repro.core.partitioning import PartitioningScheme
from repro.core.remote import (  # wire forms re-exported for callers
    LeasedCell,
    MatchingCellSpec,
    QueryResolver,
    SortingCellSpec,
    deserialize_query,  # noqa: F401
    serialize_query,  # noqa: F401
)
from repro.core.subscriptions import QueryRegistration
from repro.core.supervisor import NodeSupervisor
from repro.errors import BrokerClosedError
from repro.event.broker import Broker
from repro.event.channels import notification_channel, query_channel, write_channel
from repro.event.wire import WireStats
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOAccountant
from repro.obs.telemetry import build_telemetry
from repro.obs.tracing import DELIVER, begin_span, fork
from repro.query.shared import share_ratio
from repro.runtime.execution import TimerHandle, build_execution_model
from repro.runtime.process import ProcessExecutionModel


#: Fraction of notifications that must arrive within the SLO latency
#: target (:data:`repro.obs.slo.LATENCY_TARGET`); the error budget burn
#: rates divide by is
#: ``1 - _SLO_OBJECTIVE``.
_SLO_OBJECTIVE = 0.99


class InvaliDBCluster:
    """The real-time component, isolated behind the event layer."""

    def __init__(
        self,
        broker: Broker,
        config: Optional[InvaliDBConfig] = None,
        tenant: str = "default",
    ):
        self.broker = broker
        self.config = config if config is not None else InvaliDBConfig()
        self.tenant = tenant
        # Execution substrate for the matching grid: the config's, else
        # the broker's own model.  The default (sharing the broker's
        # model) puts event layer and grid on ONE substrate, so a
        # single drain() spans the whole broker -> matching -> broker
        # pipeline.
        configured = self.config.execution_config()
        self._owns_execution = configured is not None
        if configured is not None:
            self._execution = build_execution_model(configured)
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
                objective=_SLO_OBJECTIVE,
                clock=self.config.clock,
            )
        #: Flight recorder: always recording (ring appends are cheap);
        #: dumps only when a directory is configured.  Context
        #: providers are parent-local by contract — dump triggers can
        #: fire on a worker channel's reader thread, so no provider
        #: may round-trip to a worker.
        self.flight = FlightRecorder(
            node=tenant,
            directory=self.config.flight_recorder_dir,
            clock=self.config.clock,
        )
        self._dumped_worker_pids: set = set()
        #: (role, task_index) -> the grid task's cell: a local
        #: MatchingCell / SortingCell, or a LeasedCell when the cells
        #: live in worker processes.
        self._cells: Dict[Tuple[str, int], Any] = {}
        self._process_mode = isinstance(self._execution, ProcessExecutionModel)
        self._registrations: Dict[str, QueryRegistration] = {}
        self._registration_lock = threading.Lock()
        #: One parse per subscribed query, shared by the intake and every
        #: locally hosted cell.
        self._query_from_wire = QueryResolver()
        self._subscriptions: List[Any] = []
        self._heartbeat_timer: Optional[TimerHandle] = None
        self.notifications_sent = 0
        #: Notifications (rows per subscriber) the broker refused to
        #: publish; the other app servers' envelopes of the same batch
        #: still went out.
        self.notifications_failed = 0
        #: Notifications coalesced away within dispatch batches (the
        #: fan-out the client never had to see).  Monitoring-grade, like
        #: notifications_sent: incremented from grid task threads.
        self.notifications_coalesced = 0
        #: Heartbeats (one per app server per round) the broker refused,
        #: plus heartbeat rounds that raised before publishing.
        self.heartbeats_failed = 0
        self.queries_renewed = 0
        self.grid = Grid(self)
        if self._process_mode:
            # A dying worker orphans every cell it hosted; report each
            # as a crashed grid task so supervised recovery rebuilds
            # them in a respawned worker.
            self._execution.worker_pool.add_death_listener(
                self._on_worker_death
            )
        #: Supervised recovery: restarts crashed matching/sorting tasks
        #: and has the app servers renew the queries they held
        #: (Section 5's isolated failure domains).
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
        flight.add_context("supervisor", self.supervisor.stats)
        flight.add_context("faults", lambda: (
            self._execution.fault_injector.stats()
            if self._execution.fault_injector is not None else {}
        ))
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
    # Grid cells
    # ------------------------------------------------------------------

    def _cell_spec(self, role: str, task_index: int) -> Tuple[Any, Optional[int]]:
        """The frozen description of one grid task's cell — the single
        construction site for both hostings — plus its worker-slot pin
        (process model only)."""
        config = self.config
        telemetry = bool(self.telemetry.enabled)
        if role == "matching":
            spec = MatchingCellSpec(
                task_index=task_index,
                query_partitions=self.scheme.query_partitions,
                write_partitions=self.scheme.write_partitions,
                retention_seconds=config.retention_seconds,
                notification_coalescing=config.notification_coalescing,
                telemetry=telemetry,
            )
            workers = (
                self._execution.worker_pool.worker_processes
                if self._process_mode else None
            )
            slot = (
                self.scheme.worker_slot(task_index, workers)
                if workers else None
            )
            return spec, slot
        spec = SortingCellSpec(
            task_index=task_index,
            default_slack=config.default_slack,
            telemetry=telemetry,
        )
        return spec, None

    def _host_cell(self, role: str, task_index: int) -> Any:
        """Build one grid task's cell here, or lease it from the worker
        pool.  A local cell is handed what cannot cross a fork."""
        spec, slot = self._cell_spec(role, task_index)
        if self._process_mode:
            cell: Any = LeasedCell(self._execution.worker_pool.lease(
                f"{role}-{task_index}", spec, slot=slot
            ))
        else:
            cell = spec.cell(
                telemetry=self.telemetry,
                clock=self.config.clock,
                resolve_query=self._query_from_wire,
            )
        self._cells[(role, task_index)] = cell
        return cell

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
            self.grid.crash(
                role, task_index, f"worker pid {pid} died: {reason}"
            )
        # One dump per dead worker, not per orphaned cell (a worker may
        # host several cells; the listener fires once for each).
        if pid not in self._dumped_worker_pids:
            self._dumped_worker_pids.add(pid)
            self.flight.dump("worker-death")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "InvaliDBCluster":
        self.grid.start()
        # The grid's intake routes per message, puts per dispatch batch.
        grid = self.grid
        self.broker.add_batch_end(grid.flush_intake)
        for channel, intake in ((write_channel(self.tenant), grid.intake_write),
                                (query_channel(self.tenant), grid.intake_query)):
            self._subscriptions.append(self.broker.subscribe(channel, intake))
        # On the model's timer heap: wall-clock under threads, virtual
        # time under the inline model (fired by advance()).
        self._heartbeat_timer = self._execution.every(
            self.config.heartbeat_interval, self._heartbeat_tick
        )
        return self

    def stop(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        for subscription in self._subscriptions:
            subscription.close()
        self._subscriptions.clear()
        self.broker.remove_batch_end(self.grid.flush_intake)
        self.grid.stop()
        if self._owns_execution:
            self._execution.shutdown()

    def __enter__(self) -> "InvaliDBCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until broker and grid queues are empty (for tests).

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
            return self._execution.drain(timeout) and ok
        ok = True
        for _ in range(4):
            ok = self.broker.drain(timeout)
            ok = self._execution.drain(timeout) and ok
        return ok

    # ------------------------------------------------------------------
    # Registration bookkeeping (thread-safe, called from the intake)
    # ------------------------------------------------------------------

    def _query_request(self, tuple_: Dict[str, Any]) -> bool:
        """Apply one query request to the registry; True when it flows on
        to the grid (a subscribe, a cancel that deactivates the query)."""
        kind = tuple_["kind"]
        if kind == "subscribe":
            self._register(tuple_)
        elif kind == "cancel":
            # Other app servers still subscribed: the query stays active.
            return bool(tuple_.get("force")) or self._cancel(tuple_)
        elif kind == "ttl":
            self._extend_ttl(tuple_)
            return False  # pure bookkeeping
        return True

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
            self._query_from_wire.forget(tuple_["query_id"])
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

        Returns the deactivated query IDs.  Called by every heartbeat
        round, and directly by tests with a fake clock.
        """
        now = self.config.clock()
        deactivated: List[Tuple[str, int]] = []
        with self._registration_lock:
            for query_id, registration in list(self._registrations.items()):
                registration.expire(now)
                if not registration.active:
                    del self._registrations[query_id]
                    self._query_from_wire.forget(query_id)
                    deactivated.append(
                        (query_id, registration.query.partition_hash)
                    )
        for query_id, query_hash in deactivated:
            self.grid.reap({"kind": "cancel", "query_id": query_id,
                            "query_hash": query_hash,
                            "app_server": "__reaper__", "force": True})
        return [query_id for query_id, _ in deactivated]

    def registrations(self) -> List[QueryRegistration]:
        """Every active query's registration (the query and its app
        servers), read by the supervisor's resync."""
        with self._registration_lock:
            return list(self._registrations.values())

    # ------------------------------------------------------------------
    # Notification fan-out
    # ------------------------------------------------------------------

    def _deliver_changes(
        self,
        entries: List[Tuple[QueryChange, Optional[Dict[str, Any]]]],
    ) -> None:
        """Publish *entries* as one :class:`ChangeEnvelope` per
        subscribed app server, rows in entry order.

        Envelopes are isolated per app server (:meth:`_publish_each`);
        the first failure is re-raised once every envelope went out, so
        the grid still counts the task failure."""
        slo = self.slo
        if slo is not None:
            slo.observe_batch(entries, slo.clock())
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
                # ``servers`` is an immutable snapshot: no per-change
                # lock or copy.
                for position, app_server in enumerate(registration.servers):
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
        # Counts notifications (rows per subscriber), not envelopes.
        sent, failed, failure = self._publish_each(
            (app_server, envelope.payload(), len(envelope.rows))
            for app_server, envelope in envelopes.items()
        )
        self.notifications_sent += sent
        self.notifications_failed += failed
        if failure is not None:
            raise failure

    def _publish_each(
        self, publications: Iterable[Tuple[str, Dict[str, Any], int]]
    ) -> Tuple[int, int, Optional[Exception]]:
        """Publish each ``(app_server, payload, rows)`` on its own.

        One app server's failing notify channel costs only its own
        *rows*; the others still go out.  Returns the rows published,
        the rows that failed and the first failure."""
        sent = failed = 0
        failure: Optional[Exception] = None
        for app_server, payload, rows in publications:
            try:
                self.broker.publish(notification_channel(app_server), payload)
            except Exception as exc:  # noqa: BLE001 - the caller decides
                failed += rows
                if failure is None:
                    failure = exc
                continue
            sent += rows
        return sent, failed, failure

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def publish_heartbeat(self) -> int:
        """Sweep expired queries and heartbeat every subscribed app
        server once.  Runs every ``heartbeat_interval`` on the execution
        model's timer heap (under the inline model when ``advance()``
        crosses a period boundary); tests may also call it directly."""
        self.sweep_expired()
        with self._registration_lock:
            app_servers = {
                server
                for registration in self._registrations.values()
                for server in registration.app_servers
            }
        payload = {"kind": "heartbeat", "timestamp": self.config.clock()}
        # Isolated per app server: one failing notify channel must not
        # starve the others' heartbeats (they would tear down healthy
        # subscriptions on timeout).
        sent, failed, failure = self._publish_each(
            (app_server, payload, 1) for app_server in app_servers
        )
        self.heartbeats_failed += failed
        if isinstance(failure, BrokerClosedError):
            raise failure
        return sent

    def _heartbeat_tick(self) -> None:
        try:
            self.publish_heartbeat()
        except BrokerClosedError:
            self._heartbeat_timer.cancel()
        except Exception:  # noqa: BLE001 - the next round retries
            self.heartbeats_failed += 1

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
        metrics: Dict[str, Any] = {
            "cluster.active_queries": active,
            "cluster.notifications_sent": self.notifications_sent,
            "cluster.notifications_failed": self.notifications_failed,
            "cluster.notifications_coalesced": self.notifications_coalesced,
            "cluster.queries_renewed": self.queries_renewed,
        }
        if self._process_mode:
            # The grid counters live in the workers and a collector must
            # not block on a worker round-trip: the sums are absent
            # here (not a wrong 0); :meth:`snapshot` reports them.
            return metrics
        cells = list(self._cells.items())
        nodes = [cell.node for (role, _), cell in cells if role == "matching"]
        metrics.update({
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
        })
        return metrics

    def snapshot(self) -> Dict[str, Any]:
        """The unified observability view: one pass over the grid.

        Registration state is captured under a single lock
        acquisition; each filtering node's counters are read exactly
        once and totals are derived from those same rows.  The shape
        is the contract of :func:`repro.obs.inspector.render` and the
        exporters.

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
        matching_rows, sorting_rows, workers = self._grid_rows()
        # Local and worker-hosted rows have the same shape; an
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
        execution_stats = self._execution.stats()
        mailboxes = [
            {
                "name": name,
                "depth": box.get("depth", 0),
                "enqueued": box.get("enqueued", 0),
                "processed": box.get("handled", box.get("dequeued", 0)),
                "dropped": box.get("dropped", 0),
                "high_water": box.get("high_water", 0),
                "batches": box.get("batches", 0),
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
            "notifications_failed": self.notifications_failed,
            "notifications_coalesced": self.notifications_coalesced,
            "heartbeats_failed": self.heartbeats_failed,
            "queries_renewed": self.queries_renewed,
            "matching": matching_rows,
            "matching_totals": matching_totals,
            "sorting": sorting_rows,
            "mailboxes": mailboxes,
            "telemetry": self.telemetry.snapshot(),
            "faults": faults,
            "supervisor": self.supervisor.stats(),
            "runtime": self.grid.stats(),
        }
        snap["flight"] = self.flight.snapshot()
        if self.slo is not None:
            snap["slo"] = self.slo.summary()
        if workers is not None:
            snap["workers"] = workers
        return snap

    def _grid_rows(
        self,
    ) -> Tuple[
        List[Dict[str, Any]], List[Dict[str, Any]], Optional[Dict[str, Any]]
    ]:
        """One ``cell.snapshot()`` row per grid task, plus the process
        model's ``workers`` section.

        A leased cell's row comes back through the control channel with
        its worker's pid and wire counters; those are deduplicated by
        pid (several cells share one worker) and merged with the parent
        side's encode counters into a single ``wire`` aggregate.  A cell
        whose worker died between crash and supervised restart is
        reported as an ``unreachable`` row instead of failing the whole
        snapshot.
        """
        rows: Dict[str, List[Dict[str, Any]]] = {"matching": [], "sorting": []}
        worker_wire: Dict[int, Dict[str, Any]] = {}
        for (role, index), cell in sorted(self._cells.items()):
            try:
                row = cell.snapshot()
            except Exception as exc:  # noqa: BLE001 - worker may be dead
                row = {"unreachable": str(exc)}
            if "wire" in row:
                worker_wire.setdefault(row["pid"], row.pop("wire"))
            row["node"] = f"{role}[{index}]"
            rows[role].append(row)
        workers: Optional[Dict[str, Any]] = None
        if self._process_mode:
            pool = self._execution.worker_pool
            wire = WireStats()
            wire.merge(pool.stats.snapshot())
            for counters in worker_wire.values():
                wire.merge(counters)
            workers = {"pool": pool.snapshot(), "wire": wire.snapshot()}
        return rows["matching"], rows["sorting"], workers

    def filtering_node(self, qp: int, wp: int) -> Optional[FilteringNode]:
        index = qp * self.scheme.write_partitions + wp
        cell = self._cells.get(("matching", index))
        return None if cell is None else cell.node

    @property
    def matching_node_count(self) -> int:
        return self.scheme.node_count
