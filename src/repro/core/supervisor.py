"""Supervised recovery of crashed grid tasks (Section 5, availability).

The paper's failure-domain argument: a dying matching node loses only
its grid cell — the queries of its query partition crossed with the
writes of its write partition — and that state is *reconstructible*
from what the rest of the system already keeps:

* the subscribe requests (query + bootstrap result + versions) the
  cluster retains per active query, and
* the retained write stream of the node's write partition (the same
  few-seconds window that closes the write-subscription race).

The :class:`NodeSupervisor` implements exactly that protocol: it
listens for task crashes (injected chaos, poisoned handlers, or
explicit kills), restarts the task with exponential backoff, and
re-feeds it — re-registration first, then the retained after-images,
both over the *direct* (unfaulted) delivery path so recovery traffic
is never subject to the chaos that caused the crash.  Versioned writes
make the replay idempotent end to end: the filtering stage drops
after-images at or below a known version, the sorting stage turns
re-deliveries into empty diffs, and the client dedupes by key.

Backoff timers run on the cluster's execution model, so under the
deterministic inline model recovery is driven by virtual time: a
test's ``drain()`` fires the restart, making crash/recover sequences
reproducible straight-line code.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.core.partitioning import sorting_task_of
from repro.obs.tracing import PUBLISH, begin_span
from repro.query.engine import core_id_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import InvaliDBCluster

#: Restart backoff: ``supervisor_backoff_base * _BACKOFF_FACTOR**n``
#: seconds before attempt *n*, capped at ``_BACKOFF_MAX``; one task is
#: given up on after ``_MAX_RESTARTS`` attempts without a recovery.
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0
_MAX_RESTARTS = 8


class NodeSupervisor:
    """Detect, restart and re-hydrate crashed grid tasks."""

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
        self.replayed_writes = 0
        self.reregistered_queries = 0
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
        if component == "matching":
            self._recover_matching(task_index)
        else:
            self._recover_sorting(task_index)
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

    def _recover_matching(self, task_index: int) -> None:
        """Re-register the cell's queries, then replay retained writes.

        Order matters: registrations first, so every replayed
        after-image is matched against the full query set (the same
        ordering the write-subscription race fix relies on).
        """
        cluster = self.cluster
        coordinates = cluster.scheme.coordinates(task_index)
        qp = coordinates.query_partition
        wp = coordinates.write_partition
        for wire in cluster._subscribe_wires():
            if cluster.scheme.query_partition_of(wire["query_hash"]) != qp:
                continue
            payload = dict(wire)
            payload["query_partition"] = qp
            cluster.grid.inject("matching", payload, task=task_index,
                                direct=True)
            with self._lock:
                self.reregistered_queries += 1
        # Retained writes are re-serialized from after-images, so the
        # original write's trace is gone — recovery starts a fresh
        # replay-flagged trace per re-injected image instead, keeping
        # recovery traffic visible (and attributable) in transcripts.
        tracer = cluster.telemetry.tracer if cluster.telemetry.enabled else None
        for payload in cluster._retained_writes(wp):
            replayed = dict(payload)
            replayed["write_partition"] = wp
            if tracer is not None:
                now = cluster.telemetry.now()
                trace = tracer.start("write", payload.get("key"), now,
                                     replay=True)
                if trace is not None:
                    begin_span(trace, PUBLISH, now)
                    replayed["trace"] = trace
            cluster.grid.inject("matching", replayed, task=task_index,
                                direct=True)
            with self._lock:
                self.replayed_writes += 1

    def _recover_sorting(self, task_index: int) -> None:
        """Re-register the sorted pages whose core this sorting task owns.

        The sorting stage has no write-stream retention of its own —
        its input is match events, which the (healthy) matching row
        keeps producing.  Re-registration restores the sorted view from
        the stored bootstrap; anything newer arrives as match events,
        and a gap beyond repair surfaces as a maintenance error that
        triggers client-side query renewal (footnote 5).
        """
        cluster = self.cluster
        sorting_nodes = cluster.config.sorting_nodes
        for wire in cluster._subscribe_wires():
            if wire.get("query", {}).get("sort") is None:
                continue
            owner = sorting_task_of(core_id_of(wire["query_hash"]), sorting_nodes)
            if owner != task_index:
                continue
            cluster.grid.inject("sorting", dict(wire), task=task_index,
                                direct=True)
            with self._lock:
                self.reregistered_queries += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "crashes_seen": self.crashes_seen,
                "restarts": self.restarts,
                "replayed_writes": self.replayed_writes,
                "reregistered_queries": self.reregistered_queries,
                "gave_up": self.gave_up,
                "pending": len(self._pending),
            }
