"""The pluggable execution substrate under the event layer and grid.

One abstraction — :class:`ExecutionModel` — runs both of the system's
asynchronous subsystems:

* :class:`ThreadedExecutionModel` — production-like: one worker thread
  per mailbox over an unbounded FIFO, batched dequeue/dispatch, and
  condition-variable quiescence for ``drain()``;
* :class:`InlineExecutionModel` — deterministic: synchronous trampoline
  execution with a seeded scheduler and virtual-time delays, making
  race-condition tests reproducible without ``time.sleep``.

Select with :class:`ExecutionConfig` (``mode="threaded" | "inline"``)
or pass a shared model instance so broker and cluster drain together.

Chaos testing plugs in here: a :class:`FaultPlan` (see
:mod:`repro.runtime.faults`) attached to a model injects message drops,
duplicates, delays, reordering, corruption and task crashes — fully
deterministic under the inline model.
"""

from repro.runtime.execution import (
    ExecutionConfig,
    ExecutionModel,
    InlineExecutionModel,
    Mailbox,
    ThreadedExecutionModel,
    TimerHandle,
    build_execution_model,
    resolve_execution_model,
)
from repro.runtime.faults import (
    FaultDecision,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.runtime.queues import BatchQueue

__all__ = [
    "BatchQueue",
    "ExecutionConfig",
    "ExecutionModel",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InlineExecutionModel",
    "Mailbox",
    "ThreadedExecutionModel",
    "TimerHandle",
    "build_execution_model",
    "resolve_execution_model",
]
