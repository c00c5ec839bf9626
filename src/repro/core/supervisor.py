"""Supervised recovery of crashed grid tasks (Section 5, availability).

The paper's failure-domain argument: a dying matching node loses only
its grid cell — the queries of its query partition crossed with the
writes of its write partition — and a dying sorting node only the
windows of the sort cores it owns.  What they held is rebuilt the way
the paper repairs any state it cannot maintain: query renewal, a fresh
pull query whose read watermark says which writes it already reflects.

The :class:`NodeSupervisor` listens for task crashes (injected chaos,
poisoned handlers, killed workers), restarts the task with exponential
backoff — a fresh, empty cell — and then sends each app server that
holds an affected query one ``{"kind": "resync", "query_ids": [...]}``
on its notification channel: for a matching task every query of the
dead cell's query partition, for a sorting task every page whose sort
core it owns.  The client renews each of those queries (same slack,
under the renewal rate limit) and delivers every handle the delta from
what it holds to the fresh result.  The fresh cell takes the bootstrap;
healthy cells merge it by version and emit nothing when they are
current; writes that raced the read replay from each cell's own
retention.  Recovery traffic rides the ordinary channels, so a lost
resync is repaired only by the heartbeat path.

Backoff timers run on the cluster's execution model, so under the
deterministic inline model recovery is driven by virtual time: a
test's ``drain()`` fires the restart, making crash/recover sequences
reproducible straight-line code.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.core.partitioning import sorting_task_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import InvaliDBCluster

#: Restart backoff: ``supervisor_backoff_base * _BACKOFF_FACTOR**n``
#: seconds before attempt *n*, capped at ``_BACKOFF_MAX``; one task is
#: given up on after ``_MAX_RESTARTS`` attempts without a recovery.
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0
_MAX_RESTARTS = 8


class NodeSupervisor:
    """Detect and restart crashed grid tasks; have their queries renewed."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster
        self._lock = threading.Lock()
        #: Restart attempts per (component, task_index), reset on a
        #: successful recovery so a long-lived task gets fresh budget.
        self._attempts: Dict[Tuple[str, int], int] = {}
        self._pending: Dict[Tuple[str, int], Any] = {}
        #: Crash timestamp per pending restart (telemetry clock), so
        #: the crash-to-recovered gap lands in a histogram.
        self._crash_times: Dict[Tuple[str, int], float] = {}
        # -- counters ---------------------------------------------------
        self.crashes_seen = 0
        self.restarts = 0
        #: Queries a published resync request named (once per app
        #: server holding it).
        self.resynced_queries = 0
        self.gave_up = 0

    def attach(self) -> "NodeSupervisor":
        self.cluster.grid.crash_listener = self.on_crash
        return self

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def on_crash(self, component: str, task_index: int, reason: str) -> None:
        """Crash listener: schedule a backed-off restart."""
        key = (component, task_index)
        self.cluster.flight.record(
            "crash", component=component, task=task_index, reason=reason
        )
        with self._lock:
            self.crashes_seen += 1
            if key in self._pending:
                return
            attempt = self._attempts.get(key, 0)
            if attempt >= _MAX_RESTARTS:
                self.gave_up += 1
                return
            self._attempts[key] = attempt + 1
            telemetry = self.cluster.telemetry
            if telemetry.enabled:
                self._crash_times.setdefault(key, telemetry.now())
            delay = min(
                self.cluster.config.supervisor_backoff_base
                * _BACKOFF_FACTOR ** attempt,
                _BACKOFF_MAX,
            )
            self._pending[key] = self.cluster._execution.call_later(
                delay, lambda: self._restart(component, task_index)
            )

    def _restart(self, component: str, task_index: int) -> None:
        key = (component, task_index)
        with self._lock:
            self._pending.pop(key, None)
        self.cluster.grid.restart(component, task_index)
        with self._lock:
            self.restarts += 1
        self._resync(component, task_index)
        # A recovered task earns its restart budget back: only crash
        # loops (re-crashing before recovery completes) exhaust it.
        with self._lock:
            self._attempts[key] = 0
            crashed_at = self._crash_times.pop(key, None)
        telemetry = self.cluster.telemetry
        if telemetry.enabled and crashed_at is not None:
            telemetry.histogram("supervisor.restart_seconds").record(
                max(0.0, telemetry.now() - crashed_at)
            )
        # The restart is the incident boundary: the ring now holds the
        # crash, the recovery and everything that led up to both.
        self.cluster.flight.record(
            "restart", component=component, task=task_index
        )
        self.cluster.flight.dump("supervisor-restart")

    # ------------------------------------------------------------------
    # State reconstruction
    # ------------------------------------------------------------------

    def _resync(self, component: str, task_index: int) -> None:
        """Ask every app server holding a query the restarted task
        served to renew it: one resync request per app server."""
        cluster = self.cluster
        scheme = cluster.scheme
        by_server: Dict[str, List[str]] = {}
        for registration in cluster.registrations():
            query = registration.query
            if component == "matching":
                lost = scheme.query_partition_of(query.partition_hash) == \
                    scheme.coordinates(task_index).query_partition
            else:
                lost = query.is_sorted and sorting_task_of(
                    query.core_id, cluster.config.sorting_nodes) == task_index
            if lost:
                for app_server in registration.servers:
                    by_server.setdefault(app_server, []).append(
                        query.query_id)
        sent, failed, _ = cluster._publish_each(
            (app_server, {"kind": "resync", "query_ids": query_ids},
             len(query_ids))
            for app_server, query_ids in by_server.items()
        )
        if failed:
            # Only the heartbeat path repairs these handles now.
            cluster.flight.record("resync-failed", component=component,
                                  task=task_index, queries=failed)
        with self._lock:
            self.resynced_queries += sent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "crashes_seen": self.crashes_seen,
                "restarts": self.restarts,
                "resynced_queries": self.resynced_queries,
                "gave_up": self.gave_up,
                "pending": len(self._pending),
            }
