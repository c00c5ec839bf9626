"""Configuration for an InvaliDB deployment.

Defaults mirror the paper's production/evaluation setup where one is
documented: a retention time of "few seconds", a configurable heartbeat
interval bounding data freshness, and a slack that can be adapted on
re-execution (Section 5.2, footnote 5).

A field exists where some caller, benchmark or example sets it; values
nothing ever set (restart backoff growth, retry jitter, the SLO
objective, the flight ring size) are constants next to their reader,
and supervised recovery, client retry and the predicate index with its
spatial and text access paths are not switchable (the index only
prunes, so turning it off never changed a result; the spatial grid
resolution is a :class:`~repro.core.filtering.FilteringNode` argument).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ClusterConfigError, ExecutionConfigError
from repro.obs.telemetry import NullTelemetry, Telemetry, TelemetryConfig
from repro.runtime.execution import ExecutionConfig

Clock = Callable[[], float]


@dataclass
class InvaliDBConfig:
    """Tunables of the cluster and the client protocol."""

    #: Number of query partitions (the read-scalability dimension).
    query_partitions: int = 1
    #: Number of write partitions (the write-scalability dimension).
    write_partitions: int = 1
    #: Parallelism of the sorting stage (partitioned by query).
    sorting_nodes: int = 1
    #: Write stream retention window in seconds ("few seconds" at
    #: Baqend): each matching cell keeps the after-images that arrived
    #: within it, on the cluster's clock.
    retention_seconds: float = 5.0
    #: Items maintained beyond a sorted query's limit (Section 5.2).
    default_slack: int = 5
    #: Multiply slack by this factor on every query renewal (footnote 5:
    #: "a higher slack value to increase robustness against deletes").
    renewal_slack_factor: float = 2.0
    #: Heartbeat cadence of the cluster and the client's patience.
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    #: Subscription time-to-live and the extension cadence.
    subscription_ttl: float = 60.0
    ttl_extension_interval: float = 20.0
    #: Poll frequency rate limit: minimum seconds between query renewals
    #: (makes database load "predictable and configurable").
    renewal_min_interval: float = 1.0
    #: Coalesce redundant per-(query, key) notifications within one
    #: dispatch batch of the matching stage (latest version wins, match
    #: types rewritten so client materialization stays correct).  Only
    #: affects batched execution models; the inline model dispatches
    #: per-tuple and is unaffected.  Cross-batch coalescing happens only
    #: while shedding (``shed_coalescing_window``).
    notification_coalescing: bool = True
    #: Execution substrate for the matching grid.  ``None`` (default)
    #: shares the broker's execution model, putting the event layer and
    #: the grid on one substrate; set an :class:`ExecutionConfig` to
    #: give the cluster its own (e.g. bounded queues with a different
    #: backpressure policy, or a dedicated inline model).
    execution: Optional[ExecutionConfig] = None
    #: Shorthand execution gates: ``execution_model`` (``"threaded"``,
    #: ``"inline"`` or ``"process"``) synthesizes an
    #: :class:`ExecutionConfig` (see :meth:`execution_config`) when
    #: ``execution`` is unset.  Under the
    #: process model, grid cells live in ``process_workers`` forked
    #: worker processes (``None`` = one per cell) and tuple batches
    #: cross the process boundary in the binary wire format.
    execution_model: Optional[str] = None
    process_workers: Optional[int] = None
    #: Supervised recovery (restart crashed matching/sorting tasks and
    #: have the app servers renew the queries they served) backs off
    #: exponentially: the first restart comes after this many seconds
    #: (virtual seconds under the inline model); growth, cap and
    #: attempt budget are constants of :mod:`repro.core.supervisor`.
    supervisor_backoff_base: float = 0.05
    #: Consecutive handler errors after which a task counts as poisoned
    #: and is crashed (0 disables — errors are recorded and skipped).
    crash_error_threshold: int = 0
    #: Client-side resilience: failed publishes are retried with
    #: exponential backoff + jitter behind a circuit breaker.  Retries
    #: after the first failed attempt (0 = fail fast).
    publish_max_retries: int = 4
    #: Backoff curve: ``base * 2**attempt`` seconds, capped at ``max``,
    #: plus seeded random jitter.
    publish_backoff_base: float = 0.05
    publish_backoff_max: float = 1.0
    #: Per-operation budget: a publish (including retries) exceeding
    #: this raises OperationTimeoutError (0 disables).
    publish_timeout: float = 0.0
    #: Circuit breaker: open after this many consecutive failures …
    circuit_breaker_threshold: int = 5
    #: … and probe again (half-open) after this many seconds.
    circuit_breaker_reset: float = 2.0
    #: Seed for client-side retry jitter (None = nondeterministic).
    client_rng_seed: Optional[int] = None
    #: Observability: ``None``/``False`` = disabled (no-op handles,
    #: near-zero cost), ``True`` = enabled with defaults, a
    #: :class:`~repro.obs.telemetry.TelemetryConfig` for knobs, or an
    #: existing :class:`~repro.obs.telemetry.Telemetry` to share one
    #: registry across clusters.  The cluster attaches the handle to
    #: its execution model (and the broker's), so the event layer, the
    #: grid stages and subscribed clients all report into one registry.
    telemetry: object = None
    #: Overload control master gate: admission governor at the write
    #: edge, deadline budgets, health states and semantic shedding.
    #: Off (default) the cluster behaves exactly as before — clean runs
    #: keep every new counter at zero and reproduce ungated transcripts
    #: byte-identically.
    overload_control: bool = False
    #: AIMD write-admission budget (writes/second): start here, add
    #: ``admission_increase`` per healthy evaluation, multiply by
    #: ``admission_decrease`` per overloaded one, clamped to
    #: [``admission_min_rate``, ``admission_max_rate``].  The budget is
    #: only enforced while the cluster measures ``overloaded``.
    admission_initial_rate: float = 1000.0
    admission_min_rate: float = 50.0
    admission_max_rate: float = 10000.0
    admission_increase: float = 100.0
    admission_decrease: float = 0.5
    #: Token-bucket burst: writes admitted instantly at overload onset.
    admission_burst: int = 256
    #: Minimum seconds between multiplicative decreases — one decrease
    #: per congestion *event*, not per evaluation tick (evaluations can
    #: run every few milliseconds under load; halving on each would
    #: slam the budget to ``admission_min_rate`` before the additive
    #: recovery could ever balance it).
    admission_decrease_cooldown: float = 0.25
    #: Client-side cap on honoring retry-after hints for one write
    #: before abandoning it (counted in ``writes_abandoned``).
    admission_max_resubmits: int = 8
    #: Per-write latency budget in seconds, stamped into write
    #: envelopes at the client edge; filtering/sorting shed writes
    #: whose budget already expired (0 disables deadline stamping).
    #: Virtual seconds under the inline model — deterministic shedding.
    deadline_budget_seconds: float = 0.0
    #: Semantic-shedding sub-gate: while degraded/overloaded, coalesce
    #: unsorted changes through a pressure window and replace sorted
    #: diff streams with periodic snapshot refreshes.  Convergence-safe:
    #: final client state matches the unshedded run.
    shedding: bool = True
    #: Pressure-widened coalescing window (seconds) for shed unsorted
    #: notifications.
    shed_coalescing_window: float = 0.05
    #: Cadence of wholesale sorted-window snapshot refreshes while
    #: sorted diff streams are shed.
    refresh_interval_seconds: float = 0.1
    #: Health thresholds: a partition is ``overloaded`` at this mailbox
    #: depth / dwell-time p99 (seconds) / any drop delta, ``degraded``
    #: at ``degraded_fraction`` of either threshold.
    overload_queue_depth: int = 256
    overload_dwell_p99: float = 0.2
    degraded_fraction: float = 0.5
    #: Minimum seconds between health evaluations on the hot path.
    health_eval_interval: float = 0.25
    #: Consecutive clean evaluations before health steps DOWN one level
    #: (escalation is immediate).
    health_recovery_ticks: int = 3
    #: Pin the cluster health state (``"healthy"``/``"degraded"``/
    #: ``"overloaded"``) for deterministic tests; None = measure it.
    force_health: Optional[str] = None
    #: Per-query SLO accounting (active whenever telemetry is enabled):
    #: a delivered notification whose lag — delivery time minus the
    #: originating write's client-edge timestamp — exceeds
    #: ``slo_latency_target`` seconds counts as a breach against the
    #: objective of :mod:`repro.obs.slo` (99% in target); burn rate is
    #: the observed breach fraction divided by the error budget
    #: (1 - objective), so > 1.0 means the budget is being consumed
    #: faster than allowed.
    slo_latency_target: float = 0.25
    #: Feed the SLO lag signal into the overload HealthMonitor: the
    #: interval p99 of notification lag is observed as a synthetic
    #: ``slo`` partition against ``overload_dwell_p99``.  Requires
    #: ``overload_control`` (and telemetry to have any effect).
    slo_health_feed: bool = False
    #: Flight recorder: bounded ring of recent operational events
    #: (health transitions, crashes, restarts, worker deaths), always
    #: recorded; dumped as a JSON artifact on worker death, supervisor
    #: restart or overload escalation when ``flight_recorder_dir`` is
    #: set (defaults to the ``REPRO_FLIGHT_DIR`` environment variable,
    #: so CI can collect dumps without config plumbing).
    flight_recorder_dir: Optional[str] = field(
        default_factory=lambda: os.environ.get("REPRO_FLIGHT_DIR")
    )
    #: Time source (injectable for deterministic tests).
    clock: Clock = field(default=time.time, repr=False)

    def __post_init__(self) -> None:
        if self.execution is not None and not isinstance(
            self.execution, ExecutionConfig
        ):
            raise ClusterConfigError(
                "execution must be an ExecutionConfig or None"
            )
        if self.execution_model is not None:
            if self.execution is not None:
                raise ClusterConfigError(
                    "set either execution or execution_model, not both"
                )
            self.execution_config()  # reject a bad shorthand eagerly
        elif self.process_workers is not None:
            raise ClusterConfigError(
                "process_workers requires execution_model='process'"
            )
        if self.query_partitions < 1:
            raise ClusterConfigError("query_partitions must be >= 1")
        if self.write_partitions < 1:
            raise ClusterConfigError("write_partitions must be >= 1")
        if self.sorting_nodes < 1:
            raise ClusterConfigError("sorting_nodes must be >= 1")
        if self.retention_seconds < 0:
            raise ClusterConfigError("retention_seconds must be >= 0")
        if self.default_slack < 1:
            raise ClusterConfigError("default_slack must be >= 1")
        if self.renewal_slack_factor < 1.0:
            raise ClusterConfigError("renewal_slack_factor must be >= 1.0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ClusterConfigError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.subscription_ttl <= 0:
            raise ClusterConfigError("subscription_ttl must be positive")
        if self.ttl_extension_interval <= 0:
            raise ClusterConfigError(
                "ttl_extension_interval must be positive"
            )
        if self.renewal_min_interval < 0:
            raise ClusterConfigError("renewal_min_interval must be >= 0")
        if self.supervisor_backoff_base <= 0:
            raise ClusterConfigError("supervisor_backoff_base must be > 0")
        if self.crash_error_threshold < 0:
            raise ClusterConfigError("crash_error_threshold must be >= 0")
        if self.publish_max_retries < 0:
            raise ClusterConfigError("publish_max_retries must be >= 0")
        if self.publish_backoff_base <= 0 or self.publish_backoff_max <= 0:
            raise ClusterConfigError("publish backoff bounds must be > 0")
        if self.publish_timeout < 0:
            raise ClusterConfigError("publish_timeout must be >= 0")
        if self.circuit_breaker_threshold < 1:
            raise ClusterConfigError("circuit_breaker_threshold must be >= 1")
        if self.circuit_breaker_reset <= 0:
            raise ClusterConfigError("circuit_breaker_reset must be > 0")
        if self.force_health not in (None, "healthy", "degraded",
                                     "overloaded"):
            raise ClusterConfigError(
                "force_health must be None, 'healthy', 'degraded' or "
                "'overloaded'"
            )
        if self.force_health is not None and not self.overload_control:
            raise ClusterConfigError(
                "force_health requires overload_control"
            )
        if (self.admission_initial_rate <= 0 or self.admission_min_rate <= 0
                or self.admission_max_rate <= 0):
            raise ClusterConfigError("admission rates must be > 0")
        if not (self.admission_min_rate <= self.admission_initial_rate
                <= self.admission_max_rate):
            raise ClusterConfigError(
                "admission_initial_rate must lie within "
                "[admission_min_rate, admission_max_rate]"
            )
        if self.admission_increase <= 0:
            raise ClusterConfigError("admission_increase must be > 0")
        if not 0.0 < self.admission_decrease < 1.0:
            raise ClusterConfigError(
                "admission_decrease must be in (0, 1)"
            )
        if self.admission_burst < 1:
            raise ClusterConfigError("admission_burst must be >= 1")
        if self.admission_decrease_cooldown < 0:
            raise ClusterConfigError(
                "admission_decrease_cooldown must be >= 0"
            )
        if self.admission_max_resubmits < 0:
            raise ClusterConfigError("admission_max_resubmits must be >= 0")
        if self.deadline_budget_seconds < 0:
            raise ClusterConfigError("deadline_budget_seconds must be >= 0")
        if self.shed_coalescing_window < 0:
            raise ClusterConfigError("shed_coalescing_window must be >= 0")
        if self.refresh_interval_seconds <= 0:
            raise ClusterConfigError("refresh_interval_seconds must be > 0")
        if self.overload_queue_depth < 1:
            raise ClusterConfigError("overload_queue_depth must be >= 1")
        if self.overload_dwell_p99 <= 0:
            raise ClusterConfigError("overload_dwell_p99 must be > 0")
        if not 0.0 < self.degraded_fraction <= 1.0:
            raise ClusterConfigError(
                "degraded_fraction must be in (0, 1]"
            )
        if self.health_eval_interval < 0:
            raise ClusterConfigError("health_eval_interval must be >= 0")
        if self.health_recovery_ticks < 1:
            raise ClusterConfigError("health_recovery_ticks must be >= 1")
        if self.slo_latency_target <= 0:
            raise ClusterConfigError("slo_latency_target must be > 0")
        if self.slo_health_feed and not self.overload_control:
            raise ClusterConfigError(
                "slo_health_feed requires overload_control"
            )
        if self.flight_recorder_dir is not None and not isinstance(
            self.flight_recorder_dir, str
        ):
            raise ClusterConfigError(
                "flight_recorder_dir must be a string path or None"
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, (bool, TelemetryConfig, Telemetry, NullTelemetry)
        ):
            raise ClusterConfigError(
                "telemetry must be None, a bool, a TelemetryConfig or a "
                "Telemetry instance"
            )

    def execution_config(self) -> Optional[ExecutionConfig]:
        """``execution``, or what the shorthand gates synthesize.

        Synthesized on demand instead of being written back into
        ``execution``, so ``dataclasses.replace`` on a config built
        with ``execution_model=`` does not trip the either/or check.
        """
        if self.execution_model is None:
            return self.execution
        try:
            return ExecutionConfig(
                mode=self.execution_model,
                worker_processes=self.process_workers,
            )
        except ExecutionConfigError as exc:
            raise ClusterConfigError(str(exc)) from exc

    @property
    def matching_node_count(self) -> int:
        return self.query_partitions * self.write_partitions
