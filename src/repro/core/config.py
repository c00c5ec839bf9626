"""Configuration for an InvaliDB deployment.

Defaults mirror the paper's production/evaluation setup where one is
documented: a retention time of "few seconds", a configurable heartbeat
interval bounding data freshness, and a slack that can be adapted on
re-execution (Section 5.2, footnote 5).

A field exists where some caller, benchmark or example sets it; values
nothing ever set (restart backoff growth, the SLO objective, the flight
ring size) are constants next to their reader, and supervised recovery
and the predicate index with its spatial and text access paths are not
switchable (the index only prunes, so turning it off never changed a
result; the spatial grid resolution is a
:class:`~repro.core.filtering.FilteringNode` argument).  The client has
no failure knobs: a refused publish raises and is repaired by a resync.
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
    #: Heartbeat cadence: the cluster publishes heartbeats (and sweeps
    #: expired queries) and the client checks for heartbeat silence this
    #: often, both on the execution model's timer heap (virtual seconds
    #: under the inline model, fired by ``advance()``).
    heartbeat_interval: float = 1.0
    #: The client's patience: seconds without a heartbeat, measured on
    #: its own clock from each heartbeat's arrival, before it terminates
    #: its subscriptions with an error (Section 5.1).
    heartbeat_timeout: float = 5.0
    #: Subscription time-to-live.
    subscription_ttl: float = 60.0
    #: Cadence of the client's TTL extensions, on the same timer heap.
    ttl_extension_interval: float = 20.0
    #: Poll frequency rate limit: minimum seconds between query renewals
    #: (makes database load "predictable and configurable").
    renewal_min_interval: float = 1.0
    #: Coalesce redundant per-(query, key) notifications within one
    #: dispatch batch of the matching stage (latest version wins, match
    #: types rewritten so client materialization stays correct).  Only
    #: affects batched execution models; the inline model dispatches
    #: per-tuple and is unaffected.  There is no cross-batch coalescing.
    notification_coalescing: bool = True
    #: Execution substrate for the matching grid.  ``None`` (default)
    #: shares the broker's execution model, putting the event layer and
    #: the grid on one substrate; set an :class:`ExecutionConfig` to
    #: give the cluster its own (e.g. a dedicated inline model).
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
    #: Observability: ``None``/``False`` = disabled (no-op handles,
    #: near-zero cost), ``True`` = enabled with defaults, a
    #: :class:`~repro.obs.telemetry.TelemetryConfig` for knobs, or an
    #: existing :class:`~repro.obs.telemetry.Telemetry` to share one
    #: registry across clusters.  The cluster attaches the handle to
    #: its execution model (and the broker's), so the event layer, the
    #: grid stages and subscribed clients all report into one registry.
    telemetry: object = None
    #: Flight recorder: bounded ring of recent operational events
    #: (task failures, crashes, restarts, worker deaths), always
    #: recorded; dumped as a JSON artifact on worker death or
    #: supervisor restart when ``flight_recorder_dir`` is
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
        if not 0 < self.heartbeat_interval < self.heartbeat_timeout:
            raise ClusterConfigError(
                "heartbeat_timeout must exceed heartbeat_interval > 0"
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
