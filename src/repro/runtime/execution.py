"""Pluggable execution models: one substrate under broker *and* grid.

The seed reproduction ran its two asynchronous subsystems on divergent
ad-hoc substrates — the event layer on a single dispatcher thread with
a delay heap, the topology runtime on per-task threads with unbounded
``queue.Queue``s — so throughput experiments measured Python
thread-scheduling noise and every test synchronized by sleep-polling.
This module extracts the substrate into a pluggable **ExecutionModel**
with two implementations:

* :class:`ThreadedExecutionModel` — one worker thread per mailbox over
  a :class:`~repro.runtime.queues.BoundedQueue`, **batched dequeue**
  (up to ``max_batch`` items per lock round-trip), configurable
  backpressure, a shared timer thread for delayed deliveries, and
  condition-variable quiescence: ``drain()`` blocks on an in-flight
  counter instead of sleep-polling queue emptiness.

* :class:`InlineExecutionModel` — a **deterministic single-threaded**
  model.  ``put`` runs the whole downstream cascade synchronously on
  the caller's thread (a trampoline, so re-entrant emissions enqueue
  instead of recursing); delayed messages live on a **virtual-time**
  heap and are only released by ``drain()``, which advances virtual
  time step by step.  A seeded RNG picks the service order when several
  mailboxes hold work, so racy interleavings are *reproducible*: the
  paper's race conditions become plain synchronous test code with zero
  ``time.sleep``.

Terminology: a **mailbox** is a named FIFO plus a batch handler (a
broker dispatcher, one grid task).  Both models keep that FIFO in the
same :class:`~repro.runtime.queues.BoundedQueue` — capacity, overflow
policy, counters and telemetry sampling exist once; the models differ
only in who services it.  Work is *pushed*, as the paper's event layer
pushes into its ingestion nodes: ``put`` / ``schedule(mailbox, item,
delay)`` is the only way work enters a model, which is what makes the
in-flight accounting exact.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ExecutionConfigError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.runtime.faults import MAILBOX, FaultInjector, FaultPlan
from repro.runtime.queues import BackpressurePolicy, BoundedQueue

BatchHandler = Callable[[List[Any]], None]

THREADED = "threaded"
INLINE = "inline"
PROCESS = "process"


@dataclass
class ExecutionConfig:
    """Tunables of the execution substrate (threaded, inline or process)."""

    #: ``"threaded"`` (production-like, parallel), ``"inline"``
    #: (deterministic, synchronous, virtual-time delays) or
    #: ``"process"`` (threaded substrate + grid cells in worker
    #: processes behind the binary wire).
    mode: str = THREADED
    #: Per-mailbox queue capacity; ``None`` means unbounded.
    queue_capacity: Optional[int] = None
    #: What a full queue does to producers: block / drop_oldest / error.
    backpressure: Union[str, BackpressurePolicy] = BackpressurePolicy.BLOCK
    #: Maximum items a mailbox handler receives per invocation.
    max_batch: int = 64
    #: Seed for the inline scheduler's service order (None = FIFO by
    #: mailbox creation order).
    seed: Optional[int] = None
    #: Default worker join patience on shutdown.
    shutdown_timeout: float = 2.0
    #: Optional fault schedule; the built model starts with its
    #: :class:`~repro.runtime.faults.FaultInjector` attached.
    fault_plan: Optional[FaultPlan] = None
    #: Process mode only: number of worker processes grid cells are
    #: multiplexed onto.  ``None`` = one process per grid cell.
    worker_processes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in (THREADED, INLINE, PROCESS):
            raise ExecutionConfigError(
                f"unknown execution mode: {self.mode!r}"
            )
        if self.worker_processes is not None and self.worker_processes < 1:
            raise ExecutionConfigError(
                "worker_processes must be >= 1 or None"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ExecutionConfigError(
                "queue_capacity must be >= 1 or None"
            )
        if self.max_batch < 1:
            raise ExecutionConfigError("max_batch must be >= 1")
        try:
            self.backpressure = BackpressurePolicy.coerce(self.backpressure)
        except ValueError:
            raise ExecutionConfigError(
                f"unknown backpressure policy: {self.backpressure!r}"
            ) from None
        if self.shutdown_timeout < 0:
            raise ExecutionConfigError("shutdown_timeout must be >= 0")
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ExecutionConfigError("fault_plan must be a FaultPlan or None")


class TimerHandle:
    """Cancellation handle returned by :meth:`ExecutionModel.call_later`."""

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


class Mailbox(abc.ABC):
    """A named FIFO with a batch handler, owned by an execution model."""

    name: str

    @abc.abstractmethod
    def put(self, item: Any) -> None:
        ...

    @abc.abstractmethod
    def put_many(self, items: List[Any]) -> None:
        ...

    @abc.abstractmethod
    def put_direct(self, item: Any) -> None:
        """Deliver bypassing fault injection."""

    @abc.abstractmethod
    def close(self, drain: bool = True) -> None:
        ...

    @abc.abstractmethod
    def stats(self) -> Dict[str, Any]:
        ...

    def bind_telemetry(self, telemetry) -> None:
        """Attach telemetry handles (depth/dwell/batch/drops); no-op by
        default so custom mailboxes stay uninstrumented."""


class ExecutionModel(abc.ABC):
    """Factory and scheduler for mailboxes and timers."""

    #: True when the model runs synchronously with reproducible order.
    deterministic = False

    def __init__(self, config: Optional[ExecutionConfig] = None):
        self.config = config if config is not None else ExecutionConfig()
        #: Optional chaos hook: when set, undelayed mailbox deliveries
        #: consult it for drop/duplicate/delay/corrupt decisions.  The
        #: broker and the cluster's grid read this attribute too (for
        #: channel faults and task crashes), so attaching one injector
        #: here covers the whole pipeline.
        self.fault_injector: Optional[FaultInjector] = (
            self.config.fault_plan.build()
            if self.config.fault_plan is not None else None
        )
        #: Observability hook, plumbed exactly like the fault injector:
        #: the broker, the cluster and the grid stages all read
        #: ``execution.telemetry`` for their metric handles.  Defaults
        #: to the shared no-op so uninstrumented runs pay one attribute
        #: load per instrumentation point.
        self.telemetry = NULL_TELEMETRY

    def set_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Attach (or detach, with ``None``) a fault injector."""
        self.fault_injector = injector
        if injector is not None and self.telemetry.enabled:
            injector.bind_telemetry(self.telemetry)

    def set_telemetry(self, telemetry) -> None:
        """Attach (or detach, with ``None``) a telemetry handle.

        Existing mailboxes are instrumented in place; mailboxes created
        afterwards pick the handle up at construction.  An attached
        fault injector starts attributing its firings to labeled
        registry counters.
        """
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        for box in getattr(self, "_mailboxes", []):
            box.bind_telemetry(self.telemetry)
        if self.fault_injector is not None:
            self.fault_injector.bind_telemetry(self.telemetry)

    @abc.abstractmethod
    def mailbox(
        self,
        name: str,
        handler: BatchHandler,
        capacity: Optional[int] = None,
        policy: Optional[BackpressurePolicy] = None,
    ) -> Mailbox:
        """Create a mailbox whose handler receives item *batches*."""

    @abc.abstractmethod
    def schedule(self, mailbox: Mailbox, item: Any,
                 delay: float = 0.0) -> None:
        """Enqueue *item*, optionally after *delay* seconds (virtual
        seconds under the inline model)."""

    @abc.abstractmethod
    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> TimerHandle:
        """Run *callback* after *delay*; inline models fire it when
        ``drain()`` advances virtual time past it."""

    @abc.abstractmethod
    def drain(self, timeout: float = 5.0) -> bool:
        """Block until every scheduled item (including delayed ones)
        has been fully processed.  Condition-variable based — no
        sleep-polling."""

    @abc.abstractmethod
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop all workers; undelivered items are dropped."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, Any]:
        """One snapshot of every mailbox's queue/batch/throughput
        counters plus model-level totals."""


def build_execution_model(config: Optional[ExecutionConfig]) -> ExecutionModel:
    config = config if config is not None else ExecutionConfig()
    if config.mode == INLINE:
        return InlineExecutionModel(config)
    if config.mode == PROCESS:
        # Imported lazily: repro.runtime.process imports this module.
        from repro.runtime.process import ProcessExecutionModel

        return ProcessExecutionModel(config)
    return ThreadedExecutionModel(config)


def resolve_execution_model(
    execution: Union[None, ExecutionConfig, ExecutionModel],
) -> Tuple[ExecutionModel, bool]:
    """Normalize an ``execution=`` argument to ``(model, owned)``.

    ``None`` or an :class:`ExecutionConfig` build a fresh model the
    caller owns (and must shut down); an :class:`ExecutionModel`
    instance is shared — the caller closes only its own mailboxes.
    """
    if execution is None:
        return build_execution_model(None), True
    if isinstance(execution, ExecutionConfig):
        return build_execution_model(execution), True
    if isinstance(execution, ExecutionModel):
        return execution, False
    raise ExecutionConfigError(
        f"execution must be None, ExecutionConfig or ExecutionModel, "
        f"got {type(execution).__name__}"
    )


def _mailbox_labels(name: str) -> Tuple[str, str]:
    """Split a mailbox name into ``(stage, partition)`` labels.

    Grid mailboxes encode their owner as ``stage[partition]``
    (``"matching[3]"``); anything else (broker dispatchers) is
    its own stage with no partition.  Attributing queue drops this way
    turns "something, somewhere, was shed" into "matching partition 3
    is the one losing writes".
    """
    stage, bracket, rest = name.partition("[")
    if bracket and rest.endswith("]"):
        return stage, rest[:-1]
    return name, "-"


def _eviction_logger(telemetry, name: str):
    """Build a slow-event logger for ``drop_oldest`` evictions, or None.

    Each evicted item becomes one entry in the tracer's slow-event log
    carrying the owning mailbox/stage/partition and whatever identity
    the payload exposes — the attribution the satellite task asks for
    instead of an opaque counter bump.  Returns None when the tracer
    keeps no slow-event log (tracing disabled).
    """
    slow_events = getattr(telemetry.tracer, "slow_events", None)
    if slow_events is None:
        return None
    stage, partition = _mailbox_labels(name)
    clock = telemetry.now

    def log(evicted: Any) -> None:
        payload: Any = evicted
        if (
            isinstance(evicted, tuple)
            and len(evicted) == 2
            and isinstance(evicted[1], dict)
        ):
            # Broker mailbox items are (channel, payload) pairs.
            payload = evicted[1]
        if isinstance(payload, dict):
            kind = payload.get("kind", "?")
            key = payload.get("key")
        else:
            kind = type(evicted).__name__
            key = None
        slow_events.append({
            "kind": "eviction",
            "mailbox": name,
            "stage": stage,
            "partition": partition,
            "evicted_kind": kind,
            "key": key,
            "timestamp": clock(),
        })

    return log


class _QueueMailbox(Mailbox):
    """What both models' mailboxes share: the one FIFO
    (:class:`BoundedQueue` — capacity, overflow policy, counters,
    telemetry sampling) and the handler bookkeeping around it."""

    def __init__(self, model: Any, name: str, handler: BatchHandler,
                 capacity: Optional[int], policy: BackpressurePolicy):
        self.name = name
        self._model = model
        self._handler = handler
        self._queue = BoundedQueue(capacity=capacity, policy=policy,
                                   name=name)
        self.handled = 0
        self.handler_errors = 0
        self._drop_counter: Any = None

    def bind_telemetry(self, telemetry) -> None:
        if not telemetry.enabled:
            return
        stage, partition = _mailbox_labels(self.name)
        self._drop_counter = telemetry.counter(
            "mailbox.dropped", mailbox=self.name,
            stage=stage, partition=partition,
        )
        self._queue.instrument(
            telemetry.now,
            telemetry.histogram("mailbox.dwell_seconds", mailbox=self.name),
            telemetry.histogram("mailbox.batch_size", mailbox=self.name),
            telemetry.gauge("mailbox.depth", mailbox=self.name),
            self._drop_counter,
            evict_log=_eviction_logger(telemetry, self.name),
        )

    def stats(self) -> Dict[str, Any]:
        snapshot = self._queue.stats()
        snapshot["handled"] = self.handled
        snapshot["handler_errors"] = self.handler_errors
        return snapshot


# ---------------------------------------------------------------------------
# Threaded model
# ---------------------------------------------------------------------------


class _ThreadedMailbox(_QueueMailbox):
    def __init__(self, model: "ThreadedExecutionModel", name: str,
                 handler: BatchHandler, capacity: Optional[int],
                 policy: BackpressurePolicy):
        super().__init__(model, name, handler, capacity, policy)
        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    # -- producer ---------------------------------------------------------

    def put(self, item: Any) -> None:
        self._model._deliver(self, (item,))

    def put_many(self, items: List[Any]) -> None:
        self._model._deliver(self, items)

    def put_direct(self, item: Any) -> None:
        self._model._track_put(self._queue, (item,))

    # -- consumer ---------------------------------------------------------

    def _run(self) -> None:
        max_batch = self._model.config.max_batch
        while True:
            batch = self._queue.get_batch(max_batch, timeout=0.5)
            if batch is None:
                return
            if not batch:
                continue
            try:
                self._handler(batch)
                self.handled += len(batch)
            except Exception:  # noqa: BLE001 - a bad handler must never
                # take down its worker; failures are the handler's to
                # record (the cluster's grid does), this is backstop.
                self.handler_errors += 1
            finally:
                self._model._note_done(len(batch))

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        discarded = self._queue.close(drain=drain)
        if discarded:
            self._model._note_done(discarded)

    def join(self, timeout: Optional[float] = None) -> None:
        self._worker.join(timeout=timeout)


class ThreadedExecutionModel(ExecutionModel):
    """Per-mailbox worker threads with exact in-flight accounting.

    Every ``schedule``/``put`` increments a pending counter; the worker
    decrements it only *after* the handler returned, so a handler that
    enqueues follow-up work increments before its own decrement and
    ``drain()`` can never observe a false quiescence window.
    """

    deterministic = False

    def __init__(self, config: Optional[ExecutionConfig] = None):
        super().__init__(config)
        self._mailboxes: List[_ThreadedMailbox] = []
        self._pending = 0
        self._quiet = threading.Condition()
        self._sequence = itertools.count()
        # Delayed deliveries: (due, seq, queue-or-None, item, cancelled).
        self._timer_heap: List[Tuple[float, int, Optional[BoundedQueue],
                                     Any, List[bool]]] = []
        self._timer_cv = threading.Condition()
        self._stopping = threading.Event()
        self._timer_thread: Optional[threading.Thread] = None

    # -- accounting -------------------------------------------------------

    def _deliver(self, box: "_ThreadedMailbox", items: Any) -> None:
        """Apply mailbox-scope faults, then enqueue what survives."""
        injector = self.fault_injector
        if injector is None:
            self._track_put(box._queue, items)
            return
        immediate: List[Any] = []
        for item in items:
            decision = injector.decide(MAILBOX, box.name, item)
            if decision.drop:
                continue
            for _ in range(decision.copies):
                if decision.delay > 0:
                    self._schedule_on_queue(
                        box._queue, decision.payload, decision.delay
                    )
                else:
                    immediate.append(decision.payload)
        if immediate:
            self._track_put(box._queue, immediate)

    def _track_put(self, queue: BoundedQueue, items: Any) -> None:
        items = list(items)
        if not items:
            return
        with self._quiet:
            self._pending += len(items)
        try:
            discarded = queue.put_many(items)
        except Exception:
            self._note_done(len(items))
            raise
        if discarded:
            self._note_done(discarded)

    def _note_done(self, count: int) -> None:
        with self._quiet:
            self._pending -= count
            if self._pending <= 0:
                self._quiet.notify_all()

    # -- mailboxes --------------------------------------------------------

    def mailbox(self, name, handler, capacity=None, policy=None):
        box = _ThreadedMailbox(
            self, name, handler,
            capacity=(self.config.queue_capacity
                      if capacity is None else capacity),
            policy=(self.config.backpressure if policy is None
                    else BackpressurePolicy.coerce(policy)),
        )
        box.bind_telemetry(self.telemetry)
        self._mailboxes.append(box)
        return box

    # -- scheduling -------------------------------------------------------

    def schedule(self, mailbox: Mailbox, item: Any,
                 delay: float = 0.0) -> None:
        assert isinstance(mailbox, _ThreadedMailbox)
        if delay <= 0:
            mailbox.put(item)
            return
        self._schedule_on_queue(mailbox._queue, item, delay)

    def _schedule_on_queue(self, queue: BoundedQueue, item: Any,
                           delay: float) -> None:
        """Timer-heap delivery straight into *queue* (no fault re-check)."""
        with self._quiet:
            self._pending += 1
        due = time.monotonic() + delay
        with self._timer_cv:
            heapq.heappush(
                self._timer_heap,
                (due, next(self._sequence), queue, item, [False]),
            )
            self._ensure_timer_thread()
            self._timer_cv.notify()

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> TimerHandle:
        # Untracked: fire-and-forget maintenance work (e.g. throttled
        # query renewals) must not hold drain() hostage for seconds.
        timer = threading.Timer(delay, callback)
        timer.daemon = True
        timer.start()
        return TimerHandle(timer.cancel)

    def _ensure_timer_thread(self) -> None:
        if self._timer_thread is None or not self._timer_thread.is_alive():
            self._timer_thread = threading.Thread(
                target=self._timer_loop, name="execution-timer", daemon=True
            )
            self._timer_thread.start()

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cv:
                while True:
                    if self._stopping.is_set():
                        return
                    if not self._timer_heap:
                        self._timer_cv.wait(timeout=0.5)
                        continue
                    due = self._timer_heap[0][0]
                    remaining = due - time.monotonic()
                    if remaining <= 0:
                        _, _, queue, item, cancelled = heapq.heappop(
                            self._timer_heap
                        )
                        break
                    self._timer_cv.wait(timeout=min(remaining, 0.5))
            if cancelled[0]:
                self._note_done(1)
                continue
            # Already counted at schedule(); hand straight to the queue
            # and only adjust for items it discarded.
            discarded = queue.put(item)
            if discarded:
                self._note_done(discarded)

    # -- quiescence -------------------------------------------------------

    def drain(self, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        with self._quiet:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._quiet.wait(timeout=remaining)
            return True

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        timeout = (self.config.shutdown_timeout
                   if timeout is None else timeout)
        self._stopping.set()
        with self._timer_cv:
            dropped = len(self._timer_heap)
            self._timer_heap.clear()
            self._timer_cv.notify_all()
        if dropped:
            self._note_done(dropped)
        for box in self._mailboxes:
            box.close(drain=False)
        deadline = time.monotonic() + timeout
        for box in self._mailboxes:
            box.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._timer_thread is not None:
            self._timer_thread.join(
                timeout=max(0.0, deadline - time.monotonic())
            )

    def stats(self) -> Dict[str, Any]:
        with self._quiet:
            pending = self._pending
        snapshot = {
            "mode": THREADED,
            "pending": pending,
            "max_batch": self.config.max_batch,
            "mailboxes": {box.name: box.stats() for box in self._mailboxes},
        }
        if self.fault_injector is not None:
            snapshot["faults"] = self.fault_injector.stats()
        return snapshot


# ---------------------------------------------------------------------------
# Inline (deterministic) model
# ---------------------------------------------------------------------------


class _InlineMailbox(_QueueMailbox):
    def __init__(self, model: "InlineExecutionModel", name: str,
                 handler: BatchHandler, capacity: Optional[int],
                 policy: BackpressurePolicy):
        # ``block`` cannot suspend a single-threaded scheduler, so a
        # bounded inline mailbox treats it as unbounded (documented).
        if policy is BackpressurePolicy.BLOCK:
            capacity = None
        super().__init__(model, name, handler, capacity, policy)
        #: Items offered after close (the queue only reports them as
        #: discarded; here they count as drops).
        self.dropped_closed = 0

    def put(self, item: Any) -> None:
        self._model._put(self, (item,))

    def put_many(self, items: List[Any]) -> None:
        self._model._put(self, items)

    def put_direct(self, item: Any) -> None:
        self._model._put(self, (item,), faulted=False)

    def _enqueue(self, items: Any) -> None:
        """Append under the model lock (the queue enforces the
        drop/error policies)."""
        if self._queue.closed:
            self.dropped_closed += len(items)
            if self._drop_counter is not None:
                self._drop_counter.inc(len(items))
            return
        self._queue.put_many(items)

    def close(self, drain: bool = True) -> None:
        with self._model._lock:
            if drain:
                self._model._pump()
            self._queue.close(drain=False)

    def stats(self) -> Dict[str, Any]:
        snapshot = super().stats()
        snapshot["dropped"] += self.dropped_closed
        return snapshot


class InlineExecutionModel(ExecutionModel):
    """Deterministic synchronous execution with virtual-time delays.

    ``put`` triggers a trampoline that services mailboxes until no
    undelayed work remains — on the caller's thread, so a publish
    returns only after its entire downstream cascade ran.  Delayed
    items wait on a virtual-time heap: they are released exclusively by
    :meth:`drain`, which advances the virtual clock.  This is what
    turns the paper's races into straight-line test code: work issued
    *between* a delayed message and ``drain()`` deterministically wins
    the race, every run.
    """

    deterministic = True

    def __init__(self, config: Optional[ExecutionConfig] = None):
        if config is None:
            config = ExecutionConfig(mode=INLINE)
        super().__init__(config)
        self._lock = threading.RLock()
        self._mailboxes: List[_InlineMailbox] = []
        self._running = False
        self._vnow = 0.0
        self._sequence = itertools.count()
        # (virtual_due, seq, kind, target, payload, cancelled)
        self._delayed: List[Tuple[float, int, str, Any, Any, List[bool]]] = []
        self._rng = (None if self.config.seed is None
                     else random.Random(self.config.seed))
        self.handled_items = 0
        #: ``call_later`` callbacks that raised when they came due.
        self.callback_errors = 0

    @property
    def virtual_now(self) -> float:
        return self._vnow

    def set_telemetry(self, telemetry) -> None:
        """Bind the telemetry clock to virtual time, then attach.

        Every trace timestamp and dwell measurement under this model
        reads ``virtual_now`` — sleep-free, and byte-identical across
        same-seed runs.
        """
        if telemetry is not None and telemetry.enabled:
            telemetry.bind_clock(lambda: self._vnow)
        super().set_telemetry(telemetry)

    # -- mailboxes --------------------------------------------------------

    def mailbox(self, name, handler, capacity=None, policy=None):
        box = _InlineMailbox(
            self, name, handler,
            capacity=(self.config.queue_capacity
                      if capacity is None else capacity),
            policy=(self.config.backpressure if policy is None
                    else BackpressurePolicy.coerce(policy)),
        )
        box.bind_telemetry(self.telemetry)
        with self._lock:
            self._mailboxes.append(box)
        return box

    # -- scheduling -------------------------------------------------------

    def _put(self, box: _InlineMailbox, items: Any,
             faulted: bool = True) -> None:
        with self._lock:
            injector = self.fault_injector if faulted else None
            if injector is None:
                box._enqueue(items)
            else:
                for item in items:
                    decision = injector.decide(MAILBOX, box.name, item)
                    if decision.drop:
                        continue
                    for _ in range(decision.copies):
                        if decision.delay > 0:
                            # Virtual-time heap: released by drain()
                            # without re-faulting, like the threaded
                            # timer thread.
                            heapq.heappush(
                                self._delayed,
                                (self._vnow + decision.delay,
                                 next(self._sequence), "item",
                                 box, decision.payload, [False]),
                            )
                        else:
                            box._enqueue((decision.payload,))
            if not self._running:
                self._pump()

    def schedule(self, mailbox: Mailbox, item: Any,
                 delay: float = 0.0) -> None:
        assert isinstance(mailbox, _InlineMailbox)
        if delay <= 0:
            mailbox.put(item)
            return
        with self._lock:
            heapq.heappush(
                self._delayed,
                (self._vnow + delay, next(self._sequence), "item",
                 mailbox, item, [False]),
            )

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> TimerHandle:
        cancelled = [False]
        with self._lock:
            heapq.heappush(
                self._delayed,
                (self._vnow + max(delay, 0.0), next(self._sequence),
                 "call", None, callback, cancelled),
            )

        def cancel() -> None:
            cancelled[0] = True

        return TimerHandle(cancel)

    # -- the trampoline ---------------------------------------------------

    def _pump(self) -> None:
        """Service mailboxes until no undelayed work remains."""
        if self._running:
            return
        self._running = True
        try:
            while True:
                candidates = [box for box in self._mailboxes
                              if len(box._queue)]
                if not candidates:
                    return
                if self._rng is not None and len(candidates) > 1:
                    box = candidates[self._rng.randrange(len(candidates))]
                else:
                    box = candidates[0]
                batch = box._queue.get_batch(self.config.max_batch,
                                             timeout=0)
                try:
                    box._handler(batch)
                except Exception:  # noqa: BLE001 - mirror the threaded
                    # model: handler failures never kill the scheduler.
                    box.handler_errors += 1
                box.handled += len(batch)
                self.handled_items += len(batch)
        finally:
            self._running = False

    # -- quiescence: advance virtual time ---------------------------------

    def _release(self, kind: str, target: Any, payload: Any) -> None:
        """Hand over one due delayed entry: enqueue a scheduled item or
        run a ``call_later`` callback.  A raising callback is counted
        (like a mailbox's ``handler_errors``) and never stops the pump.
        """
        if kind == "item":
            target._enqueue((payload,))
            return
        try:
            payload()
        except Exception:  # noqa: BLE001 - timers must keep firing
            self.callback_errors += 1

    def drain(self, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                if time.monotonic() > deadline:
                    return False
                self._pump()
                if any(len(box._queue) for box in self._mailboxes):
                    continue
                if self._delayed:
                    due, _, kind, target, payload, cancelled = heapq.heappop(
                        self._delayed
                    )
                    self._vnow = max(self._vnow, due)
                    if not cancelled[0]:
                        self._release(kind, target, payload)
                    continue
                return True

    def advance(self, seconds: float) -> None:
        """Release delayed work due within *seconds* of virtual time."""
        with self._lock:
            horizon = self._vnow + seconds
            while self._delayed and self._delayed[0][0] <= horizon:
                due, _, kind, target, payload, cancelled = heapq.heappop(
                    self._delayed
                )
                self._vnow = max(self._vnow, due)
                if cancelled[0]:
                    continue
                self._release(kind, target, payload)
                self._pump()
            self._vnow = max(self._vnow, horizon)

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        with self._lock:
            self._delayed.clear()
            for box in self._mailboxes:
                box._queue.close(drain=False)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            snapshot = {
                "mode": INLINE,
                "pending": sum(len(box._queue) for box in self._mailboxes),
                "delayed": len(self._delayed),
                "virtual_now": self._vnow,
                "max_batch": self.config.max_batch,
                "callback_errors": self.callback_errors,
                "mailboxes": {box.name: box.stats()
                              for box in self._mailboxes},
            }
        if self.fault_injector is not None:
            snapshot["faults"] = self.fault_injector.stats()
        return snapshot
