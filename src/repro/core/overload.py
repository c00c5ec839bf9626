"""Overload control: admission governor, health states, load shedding.

The paper's architecture isolates failure domains — app servers, the
event layer and the matching cluster "cannot overload one another"
(Section 3).  Past the saturation knee, the runtime's only defenses
used to be the per-queue backpressure policies: ``block`` trades
overload for head-of-line tail latency, ``drop_oldest`` for silent,
unattributed loss.  This module makes overload an explicitly managed
state instead:

* :class:`AdmissionGovernor` — an AIMD write-budget token bucket at
  the cluster's write intake.  While the cluster is overloaded, writes
  beyond the budget are pushed back to their origin app server as
  ``overload-rejected`` envelopes carrying a retry-after hint the
  client's existing retry/backoff path honors.  The rate additively
  recovers while the cluster measures healthy and multiplicatively
  backs off while it measures overloaded.
* :class:`HealthMonitor` — per-partition ``healthy`` / ``degraded`` /
  ``overloaded`` states derived from the telemetry the mailboxes
  already export (queue depth, dwell-time p99, drop deltas), with
  hysteresis: severity steps up immediately and steps down one level
  only after ``health_recovery_ticks`` consecutive clean evaluations.
* :class:`OverloadController` — the cluster-side seam wiring both to
  the grid: admission checks at the write intake, semantic shedding on
  the notification path (pressure-widened coalescing for unsorted
  queries, periodic snapshot refresh replacing sorted diff streams),
  and the health export through ``cluster.snapshot()`` / heartbeats.

Everything here is gated behind ``InvaliDBConfig.overload_control``
and is counter-silent on clean runs: a healthy cluster admits every
write without consuming budget, sheds nothing, and reproduces the
ungated notification transcripts byte-identically.

Determinism: under the inline execution model all timing reads virtual
time (``execution.now``) and the refresh/retry timers ride
``call_later`` — so every admission, shedding and deadline decision is
replayable.  ``InvaliDBConfig.force_health`` pins the cluster state for
deterministic tests, where a synchronous pump never builds real queue
depth.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from repro.core.notifications import _NotificationStager
from repro.event.channels import notification_channel
from repro.types import Document

HEALTHY = "healthy"
DEGRADED = "degraded"
OVERLOADED = "overloaded"

#: Severity order of the health states (used for max() aggregation and
#: the one-level-at-a-time hysteresis step-down).
SEVERITY = {HEALTHY: 0, DEGRADED: 1, OVERLOADED: 2}

#: One-level recovery transitions (overloaded never jumps straight to
#: healthy — it must hold degraded for another recovery window first).
_STEP_DOWN = {OVERLOADED: DEGRADED, DEGRADED: HEALTHY, HEALTHY: HEALTHY}


class AdmissionGovernor:
    """AIMD write-budget token bucket (additive increase on measured
    health, multiplicative decrease on measured overload).

    The bucket refills continuously at ``rate`` tokens/second up to
    ``burst``; one admitted write costs one token.  The governor is
    only *consulted* while the cluster is overloaded — a healthy
    cluster keeps the bucket topped up but never spends from it, so
    the first moment of overload starts from a full burst and the
    admitted/rejected counters stay exactly zero on clean runs.
    """

    def __init__(
        self,
        initial_rate: float,
        min_rate: float,
        max_rate: float,
        increase: float,
        decrease: float,
        burst: int,
        now: float,
    ):
        self.rate = float(initial_rate)
        self.min_rate = float(min_rate)
        self.max_rate = float(max_rate)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.burst = int(burst)
        self.tokens = float(burst)
        self._last_refill = now
        self.admitted = 0
        self.rejected = 0
        self.pressure_events = 0
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self.tokens = min(
                float(self.burst), self.tokens + self.rate * elapsed
            )
            self._last_refill = now

    def refill(self, now: float) -> None:
        """Top the bucket up without spending (the healthy-state path)."""
        with self._lock:
            self._refill_locked(now)

    def try_admit(self, now: float) -> bool:
        with self._lock:
            self._refill_locked(now)
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                self.admitted += 1
                return True
            self.rejected += 1
            return False

    def retry_after(self) -> float:
        """Seconds until one token is available at the current rate."""
        with self._lock:
            deficit = max(1.0 - self.tokens, 0.0)
            return max(deficit / max(self.rate, 1e-9), 0.001)

    def on_pressure(self) -> None:
        """Multiplicative decrease (the cluster measured overloaded)."""
        with self._lock:
            self.rate = max(self.min_rate, self.rate * self.decrease)
            self.pressure_events += 1

    def on_clear(self) -> None:
        """Additive increase (the cluster measured healthy)."""
        with self._lock:
            self.rate = min(self.max_rate, self.rate + self.increase)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rate": round(self.rate, 3),
                "tokens": round(self.tokens, 3),
                "burst": self.burst,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "pressure_events": self.pressure_events,
            }


class HealthMonitor:
    """Per-partition health with hysteresis.

    ``observe`` classifies one partition (mailbox) from three signals a
    telemetry-enabled cluster already produces — queue depth, dwell-time
    p99 and the drop-counter delta since the previous evaluation — and
    applies asymmetric hysteresis: severity escalates immediately, but
    de-escalates one level at a time only after ``recovery_ticks``
    consecutive evaluations at a lower target (a draining queue must
    *stay* drained before admission pressure is released).
    """

    def __init__(
        self,
        depth_threshold: int,
        dwell_threshold: float,
        degraded_fraction: float,
        recovery_ticks: int,
    ):
        self.depth_threshold = depth_threshold
        self.dwell_threshold = dwell_threshold
        self.degraded_fraction = degraded_fraction
        self.recovery_ticks = recovery_ticks
        self._states: Dict[str, str] = {}
        self._streaks: Dict[str, int] = {}
        #: Pre-hysteresis classification of the latest observation per
        #: partition.  The hysteresis state gates shedding/admission
        #: (slow to relax); the AIMD governor needs this *instant* view
        #: or it would keep multiplying the rate down for the whole
        #: recovery window after a queue has already drained.
        self._targets: Dict[str, str] = {}

    def _classify(self, depth: int, dwell_p99: float,
                  drops_delta: int) -> str:
        if (
            depth >= self.depth_threshold
            or dwell_p99 >= self.dwell_threshold
            or drops_delta > 0
        ):
            return OVERLOADED
        if (
            depth >= self.depth_threshold * self.degraded_fraction
            or dwell_p99 >= self.dwell_threshold * self.degraded_fraction
        ):
            return DEGRADED
        return HEALTHY

    def observe(self, partition: str, depth: int, dwell_p99: float,
                drops_delta: int) -> str:
        target = self._classify(depth, dwell_p99, drops_delta)
        self._targets[partition] = target
        current = self._states.get(partition, HEALTHY)
        if SEVERITY[target] >= SEVERITY[current]:
            self._states[partition] = target
            self._streaks[partition] = 0
            return target
        streak = self._streaks.get(partition, 0) + 1
        if streak >= self.recovery_ticks:
            stepped = _STEP_DOWN[current]
            if SEVERITY[stepped] < SEVERITY[target]:
                stepped = target
            self._states[partition] = stepped
            self._streaks[partition] = 0
        else:
            self._streaks[partition] = streak
        return self._states[partition]

    def states(self) -> Dict[str, str]:
        return dict(self._states)

    @property
    def cluster_state(self) -> str:
        if not self._states:
            return HEALTHY
        return max(self._states.values(), key=lambda state: SEVERITY[state])

    @property
    def measured_state(self) -> str:
        """Worst pre-hysteresis classification across partitions — what
        the last evaluation actually saw, with no recovery damping."""
        if not self._targets:
            return HEALTHY
        return max(self._targets.values(),
                   key=lambda state: SEVERITY[state])


class OverloadController:
    """The cluster's overload-control seam (one per cluster, gated).

    Owned by :class:`~repro.core.cluster.InvaliDBCluster` when
    ``overload_control`` is on.  Hot-path entry points:

    * :meth:`admit` — called by the write intake per write;
      enforces the admission budget only while the cluster state is
      ``overloaded`` and pushes rejected envelopes back to their
      origin's notification channel with a retry-after hint.
    * :meth:`shedding_active` / ``shed_stager`` — consulted by the
      notification fan-out: while degraded or worse, unsorted changes
      are staged through a pressure-window
      :class:`~repro.core.notifications._NotificationStager` (the
      cluster's only cross-batch stager, counting into
      ``notifications_shed``) whose flush
      hands the survivors to the cluster as one batch, i.e. one
      notification envelope per app server.
    * :meth:`defer_sorted` — the per-event hook of locally hosted
      sorting cells: while shedding, per-event sorted diffs are
      swallowed and the query is marked dirty; :meth:`flush_refresh`
      later publishes one wholesale ``refresh`` snapshot of each dirty window instead.  Convergence
      is preserved — the final materialized client state is
      byte-identical to the unshedded run (the property suite proves
      it across seeds).
    """

    def __init__(self, cluster: Any):
        self.cluster = cluster
        config = cluster.config
        self.governor = AdmissionGovernor(
            initial_rate=config.admission_initial_rate,
            min_rate=config.admission_min_rate,
            max_rate=config.admission_max_rate,
            increase=config.admission_increase,
            decrease=config.admission_decrease,
            burst=config.admission_burst,
            now=cluster._execution.now(config.clock),
        )
        self.monitor = HealthMonitor(
            depth_threshold=config.overload_queue_depth,
            dwell_threshold=config.overload_dwell_p99,
            degraded_fraction=config.degraded_fraction,
            recovery_ticks=config.health_recovery_ticks,
        )
        self._lock = threading.Lock()
        self._last_eval = float("-inf")
        self._last_decrease = float("-inf")
        self._last_drops: Dict[str, int] = {}
        #: Last reported cluster state, for flight-recorder transition
        #: events (and the dump-on-escalation trigger).
        self._previous_state = HEALTHY
        #: SLO lag-histogram baseline for the synthetic health feed
        #: (interval p99, same windowing as the mailbox dwell signal).
        self._slo_baseline: Optional[Any] = None
        #: Per-mailbox dwell-histogram baselines: each evaluation reads
        #: the dwell p99 of the *interval* since the previous one, not
        #: the all-time distribution (which never forgets a transient).
        self._dwell_baselines: Dict[str, Any] = {}
        #: Sorted queries with swallowed diffs awaiting a snapshot
        #: refresh: query_id -> owning SortingNode.
        self._dirty: Dict[str, Any] = {}
        self._refresh_scheduled = False
        # -- counters (all exactly zero on clean runs) ------------------
        self.writes_rejected = 0
        #: Rejected writes that could not be pushed back (no origin on
        #: the envelope, or the origin's channel was gone) — true loss.
        self.writes_dropped = 0
        self.notifications_shed = 0
        self.sorted_changes_shed = 0
        self.refreshes_sent = 0
        self.evaluations = 0
        #: Pressure-window stager for unsorted changes (None when the
        #: shedding sub-gate is off).
        self.shed_stager: Optional[_NotificationStager] = None
        if config.shedding:
            self.shed_stager = _NotificationStager(
                config.shed_coalescing_window,
                cluster._execution.call_later,
                cluster._deliver_changes,
                self._note_shed,
            )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        forced = self.cluster.config.force_health
        if forced is not None:
            return forced
        return self.monitor.cluster_state

    def shedding_active(self) -> bool:
        if not self.cluster.config.shedding:
            return False
        return SEVERITY[self.state] >= SEVERITY[DEGRADED]

    def _note_shed(self) -> None:
        self.notifications_shed += 1

    # ------------------------------------------------------------------
    # Health evaluation
    # ------------------------------------------------------------------

    def _maybe_evaluate(self, now: float) -> None:
        if now - self._last_eval < self.cluster.config.health_eval_interval:
            return
        self.evaluate(now)

    def evaluate(self, now: Optional[float] = None) -> str:
        """One health evaluation pass over the grid's mailboxes.

        Driven from the admission hot path (rate-limited by
        ``health_eval_interval``) and from every heartbeat.  Feeds the
        AIMD governor from the *measured instantaneous* state — not
        the hysteresis state, whose recovery damping would keep
        multiplying the rate down long after the queues drained — and
        rate-limits multiplicative decreases to one per
        ``admission_decrease_cooldown`` (one decrease per congestion
        event, not per tick, or a brief backlog slams the budget to
        the floor before additive recovery can balance it).  A
        ``force_health`` pin gates shedding/admission but deliberately
        does not move the rate, so tests get a predictable budget.
        """
        if now is None:
            now = self.cluster._execution.now(self.cluster.config.clock)
        with self._lock:
            self._last_eval = now
        self.evaluations += 1
        cluster = self.cluster
        mailboxes = cluster._execution.stats().get("mailboxes", {})
        tel = cluster.telemetry
        # The grid's mailboxes, plus the broker's dispatch mailbox when
        # the grid shares its model: the intake's backlog queues there.
        for name in sorted(mailboxes):
            box = mailboxes[name]
            dropped = box.get("dropped", 0)
            delta = dropped - self._last_drops.get(name, 0)
            self._last_drops[name] = dropped
            dwell = 0.0
            if tel.enabled:
                histogram = tel.histogram(
                    "mailbox.dwell_seconds", mailbox=name
                )
                baseline = self._dwell_baselines.get(name)
                if baseline is not None:
                    windowed = histogram.percentile_since(baseline, 0.99)
                    if windowed == windowed:  # not NaN: interval idle
                        dwell = windowed
                self._dwell_baselines[name] = histogram.counts()
            self.monitor.observe(name, box.get("depth", 0), dwell, delta)
        self._observe_slo_feed()
        measured = self.monitor.measured_state
        if measured == OVERLOADED:
            cooldown = self.cluster.config.admission_decrease_cooldown
            if now - self._last_decrease >= cooldown:
                self._last_decrease = now
                self.governor.on_pressure()
        elif measured == HEALTHY:
            self.governor.on_clear()
        state = self.state
        previous = self._previous_state
        if state != previous:
            self._previous_state = state
            flight = getattr(cluster, "flight", None)
            if flight is not None:
                flight.record(
                    "health-transition", previous=previous, state=state,
                    measured=measured,
                )
                if state == OVERLOADED:
                    # Escalation into the top severity is an incident:
                    # capture the ring before shedding/admission kick
                    # in and overwrite the lead-up.
                    flight.dump("overload-escalation")
        return state

    def _observe_slo_feed(self) -> None:
        """Feed delivered-notification lag into the health monitor as a
        synthetic ``slo`` partition (gated by ``slo_health_feed``).

        The SLO accountant's aggregate lag histogram is windowed with
        the same baseline/``percentile_since`` idiom as mailbox dwell,
        then rescaled from the SLO latency target into the monitor's
        dwell-threshold domain so one state machine (and its
        hysteresis) serves both signals: interval lag p99 at the SLO
        target classifies exactly like dwell p99 at the dwell
        threshold.
        """
        cluster = self.cluster
        slo = getattr(cluster, "slo", None)
        if slo is None or not cluster.config.slo_health_feed:
            return
        baseline = self._slo_baseline
        self._slo_baseline = slo.lag.counts()
        lag = 0.0
        if baseline is not None:
            windowed = slo.lag.percentile_since(baseline, 0.99)
            if windowed == windowed:  # not NaN: interval had traffic
                lag = windowed
        scaled = (
            lag / max(slo.latency_target, 1e-9)
        ) * self.monitor.dwell_threshold
        self.monitor.observe("slo", 0, scaled, 0)

    # ------------------------------------------------------------------
    # Admission (write-intake hot path)
    # ------------------------------------------------------------------

    def admit(self, tuple_: Dict[str, Any]) -> bool:
        """Admission-check one write envelope; False = rejected."""
        now = self.cluster._execution.now(self.cluster.config.clock)
        self._maybe_evaluate(now)
        if SEVERITY[self.state] < SEVERITY[OVERLOADED]:
            # Healthy/degraded: every write flows, the bucket stays
            # topped up so overload starts from a full burst.
            self.governor.refill(now)
            return True
        if self.governor.try_admit(now):
            return True
        self.writes_rejected += 1
        self._reject(tuple_)
        return False

    def _reject(self, tuple_: Dict[str, Any]) -> None:
        """Push a rejected write back to its origin with a retry hint."""
        origin = tuple_.get("origin")
        if origin is None:
            self.writes_dropped += 1
            return
        envelope = {key: value for key, value in tuple_.items() if key != "trace"}
        payload = {
            "kind": "overload-rejected",
            "health": self.state,
            "retry_after": round(self.governor.retry_after(), 6),
            "write": envelope,
        }
        try:
            self.cluster.broker.publish(
                notification_channel(origin), payload
            )
        except Exception:  # noqa: BLE001 - origin unreachable: count it
            self.writes_dropped += 1

    # ------------------------------------------------------------------
    # Sorted-query snapshot refresh (shedding tier 2)
    # ------------------------------------------------------------------

    def defer_sorted(self, node: Any, changes: List[Any]) -> bool:
        """While shedding, swallow a sorted query's per-event diffs for
        a later snapshot refresh.  Returns False when the changes must
        go out live — not shedding, or maintenance errors, which carry
        renewal semantics the client must see immediately."""
        if not self.shedding_active() or any(
            change.is_error for change in changes
        ):
            return False
        schedule = False
        with self._lock:
            for change in changes:
                self._dirty[change.query_id] = node
            self.sorted_changes_shed += len(changes)
            if not self._refresh_scheduled:
                self._refresh_scheduled = True
                schedule = True
        if schedule:
            self.cluster._execution.call_later(
                self.cluster.config.refresh_interval_seconds,
                self.flush_refresh,
            )
        return True

    def flush_refresh(self) -> int:
        """Publish one wholesale window snapshot per dirty sorted query.

        The window is read *now* (not when the diffs were swallowed),
        so every event processed since is already folded in — that is
        what makes the refresh convergence-safe.  Returns the number of
        refreshes published.
        """
        with self._lock:
            dirty, self._dirty = self._dirty, {}
            self._refresh_scheduled = False
        sent = 0
        for query_id, node in dirty.items():
            window = node.visible_window(query_id)
            if window is None:
                # Deactivated/renewing: the renewal path re-baselines.
                continue
            self.refreshes_sent += 1
            sent += 1
            self.cluster._deliver_refresh(query_id, window)
        return sent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            pending_refresh = len(self._dirty)
        snap: Dict[str, Any] = {
            "state": self.state,
            "measured": self.monitor.measured_state,
            "forced": self.cluster.config.force_health,
            "partitions": self.monitor.states(),
            "admission": self.governor.snapshot(),
            "writes_rejected": self.writes_rejected,
            "writes_dropped": self.writes_dropped,
            "notifications_shed": self.notifications_shed,
            "sorted_changes_shed": self.sorted_changes_shed,
            "refreshes_sent": self.refreshes_sent,
            "pending_refresh": pending_refresh,
            "evaluations": self.evaluations,
        }
        if self.shed_stager is not None:
            snap["shed_coalescing"] = self.shed_stager.stats()
        return snap


def serialize_refresh(query_id: str, documents: List[Document],
                      timestamp: float) -> Dict[str, Any]:
    """Wire form of a snapshot-refresh notification."""
    return {
        "kind": "refresh",
        "query_id": query_id,
        "documents": documents,
        "timestamp": timestamp,
    }
