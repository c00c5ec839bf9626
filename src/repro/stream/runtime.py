"""Local executor for topologies on the pluggable execution substrate.

Each task (bolt instance) gets a mailbox from the configured
:class:`~repro.runtime.execution.ExecutionModel`; tuples enter through
:meth:`LocalRuntime.inject`.  Under the default threaded model that
means one worker thread per task over a (optionally bounded) queue
with **batched dequeue** — a bolt receives chunks of tuples per lock
round-trip, via :meth:`Bolt.process_batch` — and **batched emission**:
tuples emitted while a batch is processed are buffered and flushed to
each destination mailbox in one call.  Under the deterministic inline model the same
topology runs synchronously with a seeded scheduler.  This mirrors
Storm's local mode closely enough for InvaliDB's needs — partitioned,
ordered-per-edge, asynchronous dataflow — while keeping both the event
layer and the matching grid on one substrate.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import RuntimeStateError, TaskCrashedError
from repro.runtime.execution import (
    ExecutionConfig,
    ExecutionModel,
    Mailbox,
    resolve_execution_model,
)
from repro.runtime.faults import FaultInjector
from repro.stream.topology import Bolt, ComponentSpec, Grouping, Topology

#: Signature of a crash listener: (component, task_index, reason).
CrashListener = "Callable[[str, int, str], None]"


@dataclass
class TaskFailure:
    """One failed tuple (or batch): where, what, and why.

    The seed silently swallowed the exception and the offending tuple;
    keeping both makes log-and-go failures debuggable."""

    component: str
    task_index: int
    error: Optional[BaseException] = None
    tuple: Optional[Any] = None


class _Task:
    """One running bolt instance with its mailbox."""

    def __init__(
        self,
        runtime: "LocalRuntime",
        spec: ComponentSpec,
        task_index: int,
    ):
        self.runtime = runtime
        self.spec = spec
        self.task_index = task_index
        self.component: Bolt = spec.build_task()
        self.name = f"{spec.name}[{task_index}]"
        self.mailbox: Optional[Mailbox] = None
        self.processed = 0
        #: Crash state: a crashed task keeps its mailbox (so producers
        #: never block on a missing handler) but silently drops every
        #: tuple until a supervisor restarts it — exactly the message
        #: loss a real node failure causes.
        self.crashed = False
        self.crash_reason: Optional[str] = None
        self.consecutive_errors = 0
        self.dropped_while_crashed = 0
        self.restarts = 0
        # Emission buffer, populated only while a batch is in flight on
        # this task's (single) worker; flushed grouped by destination.
        self._out: Optional[List[Any]] = None
        #: (grouping, target tasks) per out-edge, resolved by attach().
        self._routes: List[Tuple[Grouping, List["_Task"]]] = []
        self._custom_batch = (
            type(self.component).process_batch is not Bolt.process_batch
        )

    def attach(self, model: ExecutionModel) -> None:
        # The topology is immutable and the runtime's task lists are
        # never rebound (a restart swaps the component inside its task),
        # so the out-edges resolve once.
        tasks = self.runtime._tasks
        self._routes = [
            (edge.grouping, tasks[edge.target])
            for edge in self.runtime.topology.outgoing(self.spec.name)
        ]
        self.component.prepare(
            self.task_index, self.spec.parallelism, self._emit
        )
        self.mailbox = model.mailbox(self.name, self._handle_batch)

    # -- emission (routing resolved eagerly, delivery batched) ----------

    def _emit(self, tuple_: Mapping[str, Any]) -> None:
        for grouping, targets in self._routes:
            for index in grouping.select(tuple_, len(targets)):
                destination = targets[index]
                if self._out is not None:
                    self._out.append((destination, tuple_))
                elif destination.mailbox is not None:
                    destination.mailbox.put(tuple_)

    def _flush(self) -> None:
        out, self._out = self._out, None
        if not out:
            return
        grouped: Dict[int, List[Any]] = {}
        for destination, tuple_ in out:
            grouped.setdefault(id(destination), []).append(tuple_)
        # Edge declaration order: the whole batch reaches an earlier
        # edge's tasks before any task of a later edge can react to it.
        for _, targets in self._routes:
            for destination in targets:
                batch = grouped.pop(id(destination), None)
                if batch and destination.mailbox is not None:
                    destination.mailbox.put_many(batch)

    # -- bolt path -------------------------------------------------------

    def _handle_batch(self, batch: List[Any]) -> None:
        if self.crashed:
            self.dropped_while_crashed += len(batch)
            return
        injector = self.runtime.fault_injector
        if injector is not None:
            # Crash faults fire per tuple: the prefix before the crash
            # point is still processed (the node died mid-stream), the
            # rest is lost with the task.
            for position, _ in enumerate(batch):
                if injector.crashes_task(self.name):
                    prefix = batch[:position]
                    if prefix:
                        self._process(prefix)
                    self.dropped_while_crashed += len(batch) - position
                    self.runtime._crash_task(self, "injected crash")
                    return
        self._process(batch)

    def _process(self, batch: List[Any]) -> None:
        bolt = self.component
        self._out = []
        try:
            if self._custom_batch:
                try:
                    bolt.process_batch(batch)
                    self.consecutive_errors = 0
                except Exception as exc:  # noqa: BLE001 - a failing batch
                    # must not kill the task; Storm would replay/ack,
                    # we record-and-go.
                    self.runtime.record_failure(
                        self.spec.name, self.task_index,
                        error=exc, tuple_=list(batch),
                    )
                    self._note_handler_error()
                self.processed += len(batch)
            else:
                for tuple_ in batch:
                    if self.crashed:
                        self.dropped_while_crashed += 1
                        continue
                    try:
                        bolt.process(tuple_)
                        self.consecutive_errors = 0
                    except Exception as exc:  # noqa: BLE001
                        self.runtime.record_failure(
                            self.spec.name, self.task_index,
                            error=exc, tuple_=tuple_,
                        )
                        self._note_handler_error()
                    self.processed += 1
        finally:
            self._flush()

    def _note_handler_error(self) -> None:
        """Track consecutive failures; past the threshold the task is
        considered poisoned and crashes (supervised recovery takes over,
        replacing retry-forever on a wedged node)."""
        self.consecutive_errors += 1
        threshold = self.runtime.error_threshold
        if threshold and self.consecutive_errors >= threshold:
            self.runtime._crash_task(
                self,
                f"poisoned: {self.consecutive_errors} consecutive "
                f"handler errors",
            )


class LocalRuntime:
    """Runs a :class:`Topology` on a pluggable execution model."""

    def __init__(
        self,
        topology: Topology,
        execution: Union[None, ExecutionConfig, ExecutionModel] = None,
        error_threshold: Optional[int] = None,
    ):
        self.topology = topology
        self._execution, self._owns_execution = resolve_execution_model(
            execution
        )
        #: Consecutive handler errors after which a task is declared
        #: poisoned and crashed (None/0 disables — seed behavior).
        self.error_threshold = error_threshold
        self._crash_listener: Optional[Any] = None
        #: Crash listener calls that raised (the crash stays recorded;
        #: the supervisor never heard of it).
        self._crash_listener_errors = 0
        self._tasks: Dict[str, List[_Task]] = {}
        self._started = False
        self._stopped = False
        self._failures: List[TaskFailure] = []
        self._failure_lock = threading.Lock()
        self._inject_counters: Dict[str, "itertools.count[int]"] = {}
        for spec in topology.components.values():
            self._tasks[spec.name] = [
                _Task(self, spec, index) for index in range(spec.parallelism)
            ]
            self._inject_counters[spec.name] = itertools.count()

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The execution model's injector (read dynamically so an
        injector attached after construction is still honored)."""
        return self._execution.fault_injector

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LocalRuntime":
        if self._started:
            raise RuntimeStateError("runtime already started")
        self._started = True
        for tasks in self._tasks.values():
            for task in tasks:
                task.attach(self._execution)
        return self

    def stop(self, timeout: float = 2.0) -> None:
        if not self._started or self._stopped:
            return
        self._stopped = True
        # Graceful: queued tuples are still processed, then workers exit.
        for tasks in self._tasks.values():
            for task in tasks:
                task.mailbox.close(drain=True)
        if self._owns_execution:
            self._execution.shutdown(timeout)
        else:
            # Shared model (e.g. with the event layer): only this
            # runtime's workers wind down, the model keeps serving.
            import time as _time

            deadline = _time.monotonic() + timeout
            for tasks in self._tasks.values():
                for task in tasks:
                    join = getattr(task.mailbox, "join", None)
                    if join is not None:
                        join(timeout=max(0.0, deadline - _time.monotonic()))
        for tasks in self._tasks.values():
            for task in tasks:
                task.component.cleanup()

    def __enter__(self) -> "LocalRuntime":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- injection & routing ---------------------------------------------------

    def inject(self, component: str, tuple_: Mapping[str, Any],
               direct: bool = False) -> None:
        """Push a tuple into *component* from outside the topology.

        Incoming-edge groupings do not apply here — there is no edge:
        the caller addresses the component directly.  The runtime
        round-robins across the component's tasks for an even spread
        (the seed hashed ``id(tuple_)``, which CPython recycles, badly
        skewing the distribution), unless an integer ``__task__`` field
        selects a task explicitly.  ``direct=True`` bypasses fault
        injection — the reliable path supervised recovery uses for
        re-registration and replay traffic.
        """
        tasks = self._tasks.get(component)
        if tasks is None:
            raise RuntimeStateError(f"unknown component: {component!r}")
        task_field = tuple_.get("__task__")
        if isinstance(task_field, int):
            index = task_field % len(tasks)
        elif len(tasks) == 1:
            index = 0
        else:
            index = next(self._inject_counters[component]) % len(tasks)
        mailbox = tasks[index].mailbox
        if mailbox is not None:
            if direct:
                mailbox.put_direct(tuple_)
            else:
                mailbox.put(tuple_)

    # -- crash & restart (supervised recovery) -----------------------------

    def set_crash_listener(self, listener: Optional[Any]) -> None:
        """Register a callback ``(component, task_index, reason)`` fired
        once per crash (a supervisor's detection hook)."""
        self._crash_listener = listener

    def _crash_task(self, task: _Task, reason: str) -> None:
        if task.crashed:
            return
        task.crashed = True
        task.crash_reason = reason
        self.record_failure(
            task.spec.name, task.task_index,
            error=TaskCrashedError(task.spec.name, task.task_index, reason),
        )
        listener = self._crash_listener
        if listener is not None:
            try:
                listener(task.spec.name, task.task_index, reason)
            except Exception:  # noqa: BLE001 - a broken supervisor must
                # not take the worker down with it.
                self._crash_listener_errors += 1

    def crash_task(self, component: str, task_index: int,
                   reason: str = "killed") -> None:
        """Kill one task from the outside (tests, chaos drivers)."""
        self._crash_task(self._tasks[component][task_index], reason)

    def crashed_tasks(self) -> List[Tuple[str, int, str]]:
        return [
            (task.spec.name, task.task_index, task.crash_reason or "")
            for tasks in self._tasks.values()
            for task in tasks
            if task.crashed
        ]

    def restart_task(self, component: str, task_index: int) -> Bolt:
        """Replace a crashed task's component with a fresh instance.

        The mailbox (and everything queued in it since the crash) is
        kept; the component is rebuilt from its spec and re-prepared, so
        bolt-local state starts empty — reconstructing it from retained
        streams is the supervisor's job, not the runtime's.
        """
        task = self._tasks[component][task_index]
        task.component = task.spec.build_task()
        task._custom_batch = (
            type(task.component).process_batch is not Bolt.process_batch
        )
        task.component.prepare(
            task.task_index, task.spec.parallelism, task._emit
        )
        task.crashed = False
        task.crash_reason = None
        task.consecutive_errors = 0
        task.restarts += 1
        return task.component

    # -- introspection -----------------------------------------------------------

    def record_failure(
        self,
        component: str,
        task_index: int,
        error: Optional[BaseException] = None,
        tuple_: Optional[Any] = None,
    ) -> None:
        with self._failure_lock:
            self._failures.append(
                TaskFailure(component, task_index, error, tuple_)
            )

    @property
    def failures(self) -> List[TaskFailure]:
        with self._failure_lock:
            return list(self._failures)

    def failure_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {name: 0 for name in self._tasks}
        with self._failure_lock:
            for failure in self._failures:
                counts[failure.component] = (
                    counts.get(failure.component, 0) + 1
                )
        return counts

    def task_components(self, component: str) -> List[Bolt]:
        """The live component instances of *component* (for inspection)."""
        return [task.component for task in self._tasks[component]]

    def processed_counts(self) -> Dict[str, int]:
        return {
            name: sum(task.processed for task in tasks)
            for name, tasks in self._tasks.items()
        }

    def stats(self) -> Dict[str, Any]:
        """One snapshot: per-component queue depth, batch sizes,
        throughput and failure counts, plus the execution model's own
        counters."""
        failure_counts = self.failure_counts()
        components: Dict[str, Any] = {}
        for name, tasks in self._tasks.items():
            queue_depth = high_water = dropped = batches = 0
            largest_batch = 0
            for task in tasks:
                if task.mailbox is None:
                    continue
                box = task.mailbox.stats()
                queue_depth += box["depth"]
                high_water += box["high_water"]
                dropped += box["dropped"]
                batches += box["batches"]
                largest_batch = max(largest_batch, box["largest_batch"])
            components[name] = {
                "tasks": len(tasks),
                "processed": sum(task.processed for task in tasks),
                "failed": failure_counts.get(name, 0),
                "queue_depth": queue_depth,
                "queue_high_water": high_water,
                "dropped": dropped,
                "batches": batches,
                "largest_batch": largest_batch,
                "crashed": sum(1 for task in tasks if task.crashed),
                "restarts": sum(task.restarts for task in tasks),
                "dropped_while_crashed": sum(
                    task.dropped_while_crashed for task in tasks
                ),
            }
        return {
            "components": components,
            "failures": sum(failure_counts.values()),
            "crash_listener_errors": self._crash_listener_errors,
            "execution": self._execution.stats(),
        }

    def drain(self, timeout: float = 5.0) -> bool:
        """Block until all queued and in-flight tuples were processed
        (condition-variable quiescence on the execution model)."""
        return self._execution.drain(timeout)
