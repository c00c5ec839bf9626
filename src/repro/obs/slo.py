"""Per-query SLO accounting: notification-lag targets and burn rates.

InvaliDB's product promise is *fresh* query results: every delivered
notification implicitly answers "how stale was the client's view when
this change arrived?".  The :class:`SLOAccountant` turns that into
first-class accounting at the single choke point every notification
passes through (``InvaliDBCluster._deliver_changes``):

* **lag** — delivery time minus the originating write's client-edge
  timestamp (both read from ``config.clock``, so inline-model runs
  measure deterministic virtual lag);
* per-(query, partition) **lag histograms** plus a per-query last-lag
  **gauge** in the shared metrics registry (so the series flow through
  snapshot/Prometheus/inspector like every other metric);
* **breach counters** against a latency target (:data:`LATENCY_TARGET`
  seconds), and a **burn rate** — observed breach fraction divided by
  the error budget ``1 - objective`` — per query and cluster-wide.
  Burn rate > 1.0 means the query is consuming its error budget faster
  than the SLO allows.

The accountant also maintains one *unlabeled* aggregate lag histogram,
the cluster-wide lag distribution.

Hot-path discipline: ``observe_batch`` runs once per delivered batch,
with one clock read, and only queues the batch; every
:data:`FOLD_BATCHES` batches are folded in one pass that finds the
metric objects in cache (half the cost of folding each on arrival).
Every read (``summary``, any registry read) folds first.  Per change, metric
handles are resolved through a plain dict cache and the key's write
partition comes from the scheme's cache of recently routed keys (the
intake routed the write moments earlier) instead of re-hashing.
Counters (and the aggregate histogram) are exact; the *labeled*
per-(query, partition) histogram and last-lag gauge record every breach
but sample in-target lags 1-in-4 (phase-locked, mirroring the tracer's
per-stage sampling) — tails stay exact while the healthy common case
pays half the metric ops.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from repro.types import MatchType

_ERROR = MatchType.ERROR

#: Upper bound on distinct (query, partition) label pairs the
#: accountant will create series for; beyond it, lag is still recorded
#: in the aggregate histogram but new per-query series are not minted
#: (protects the registry from unbounded-cardinality workloads).
MAX_TRACKED_SERIES = 1024

#: Delivered batches queued before they are folded into the metrics.
FOLD_BATCHES = 32

#: Seconds of lag beyond which a delivered notification is a breach.
LATENCY_TARGET = 0.25


class SLOAccountant:
    """Folds delivered-notification lag into SLO metrics."""

    def __init__(
        self,
        telemetry: Any,
        scheme: Any,
        objective: float,
        clock: Any,
    ):
        self.telemetry = telemetry
        self.scheme = scheme
        self.latency_target = LATENCY_TARGET
        self.objective = objective
        #: Error budget: the tolerated breach fraction.
        self.budget = max(1e-9, 1.0 - objective)
        self.clock = clock
        registry = telemetry.registry
        registry.describe(
            "slo.lag_seconds",
            "Aggregate delivered-notification lag: delivery time minus "
            "the originating write's client-edge timestamp.",
        )
        registry.describe(
            "slo.notification_lag_seconds",
            "Delivered-notification lag per (query, partition).",
        )
        registry.describe(
            "slo.notification_lag_last_seconds",
            "Most recent notification lag observed per query.",
        )
        registry.describe(
            "slo.notifications_total",
            "Notifications with a measurable lag, per query.",
        )
        registry.describe(
            "slo.breaches",
            "Notifications whose lag exceeded the SLO latency target "
            "(aggregate).",
        )
        registry.describe(
            "slo.breaches_total",
            "Notifications whose lag exceeded the SLO latency target, "
            "per query.",
        )
        #: Aggregate lag histogram (unlabeled).  The aggregate
        #: notification count IS ``self.lag.count`` — a separate
        #: counter would be a redundant hot-path bump.
        self.lag = registry.histogram("slo.lag_seconds")
        self.total_breaches = registry.counter("slo.breaches")
        #: (query_id, partition) -> (histogram, gauge, notif, breach).
        self._series: Dict[Tuple[str, int], Tuple[Any, Any, Any, Any]] = {}
        #: query_id -> (notifications counter, breaches counter), for
        #: the per-query summary without walking the registry.
        self._queries: Dict[str, Tuple[Any, Any]] = {}
        self.skipped = 0
        self._observed = 0
        #: Delivered ``(entries, now)`` batches not yet folded in.
        self._pending: Deque[Tuple[Iterable[Tuple[Any, Any]], float]] = deque()
        self._fold_lock = threading.Lock()
        registry.register_flush(self.fold)

    def _handles(
        self, query_id: str, partition: int
    ) -> Optional[Tuple[Any, Any, Any, Any]]:
        key = (query_id, partition)
        handles = self._series.get(key)
        if handles is None:
            if len(self._series) >= MAX_TRACKED_SERIES:
                return None
            registry = self.telemetry.registry
            handles = (
                registry.histogram(
                    "slo.notification_lag_seconds",
                    query=query_id, partition=str(partition),
                ),
                registry.gauge(
                    "slo.notification_lag_last_seconds", query=query_id
                ),
                registry.counter(
                    "slo.notifications_total", query=query_id
                ),
                registry.counter("slo.breaches_total", query=query_id),
            )
            self._series[key] = handles
            self._queries.setdefault(query_id, (handles[2], handles[3]))
        return handles

    def observe(self, change: Any) -> None:
        """Account one change delivered now."""
        self.observe_batch(((change, None),), self.clock())

    def observe_batch(self, entries: Iterable[Tuple[Any, Any]],
                      now: float) -> None:
        """Account one delivered batch of ``(change, trace)`` entries,
        all delivered at *now*: called once per batch, before the
        per-subscriber fan-out, so the clock is read once per batch.
        The batch is queued (*entries* must not change afterwards) and
        folded in with the next ones."""
        self._pending.append((entries, now))
        if len(self._pending) >= FOLD_BATCHES:
            self.fold()

    def fold(self) -> None:
        """Fold every queued batch into the metrics, in arrival order."""
        with self._fold_lock:
            target = self.latency_target
            record_lag = self.lag.record
            partition_of = self.scheme.write_partition_of
            series = self._series
            observed = self._observed
            pending = self._pending
            while pending:
                entries, now = pending.popleft()
                for (query_id, match_type, key, _, _, _, _, timestamp, _), _ in entries:
                    if match_type is _ERROR or key is None or not timestamp:
                        # Error/renewal changes carry no originating write;
                        # keys can be None on malformed writes.  Neither
                        # has a meaningful lag.
                        self.skipped += 1
                        continue
                    lag = now - timestamp
                    if lag < 0.0:
                        lag = 0.0
                    breach = lag > target
                    record_lag(lag)
                    if breach:
                        self.total_breaches.inc()
                    partition = partition_of(key)
                    handles = series.get((query_id, partition))
                    if handles is None:
                        handles = self._handles(query_id, partition)
                        if handles is None:
                            continue
                    histogram, gauge, notifications, breaches = handles
                    notifications.inc()
                    if breach:
                        breaches.inc()
                    # Labeled series: every breach is recorded (tail
                    # percentiles stay exact), in-target lags are sampled
                    # 1-in-4 phase-locked.
                    if breach or (observed & 3) == 0:
                        histogram.record(lag)
                        gauge.set(lag)
                    observed += 1
            self._observed = observed

    def burn_rate(self, breaches: int, notifications: int) -> float:
        """Observed breach fraction scaled by the error budget."""
        if not notifications:
            return 0.0
        return (breaches / notifications) / self.budget

    def summary(self, limit: int = 32) -> Dict[str, Any]:
        """Snapshot-ready view: targets, totals, worst queries first."""
        self.fold()
        total = self.lag.count
        breached = self.total_breaches.value
        queries = []
        for query_id, (notifications, breaches) in self._queries.items():
            seen = notifications.value
            bad = breaches.value
            queries.append({
                "query_id": query_id,
                "notifications": seen,
                "breaches": bad,
                "burn_rate": round(self.burn_rate(bad, seen), 4),
                "p99_seconds": None,
            })
        queries.sort(
            key=lambda row: (-row["burn_rate"], -row["notifications"])
        )
        queries = queries[:limit]
        aggregate = self.lag.snapshot()
        for row in queries:
            row["p99_seconds"] = self._query_p99(row["query_id"])
        return {
            "latency_target_seconds": self.latency_target,
            "objective": self.objective,
            "notifications": total,
            "breaches": breached,
            "burn_rate": round(self.burn_rate(breached, total), 4),
            "lag_p50_seconds": aggregate.get("p50"),
            "lag_p99_seconds": aggregate.get("p99"),
            "lag_max_seconds": aggregate.get("max"),
            "skipped": self.skipped,
            "queries": queries,
        }

    def _query_p99(self, query_id: str) -> Optional[float]:
        """p99 lag across the query's partition histograms."""
        best: Optional[float] = None
        for (qid, _), handles in self._series.items():
            if qid != query_id:
                continue
            p99 = handles[0].percentile(0.99)
            if best is None or p99 > best:
                best = p99
        return best
