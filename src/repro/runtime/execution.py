"""Pluggable execution models: one substrate under broker *and* grid.

The seed reproduction ran its two asynchronous subsystems on divergent
ad-hoc substrates — the event layer on a single dispatcher thread with
a delay heap, the topology runtime on per-task threads with unbounded
``queue.Queue``s — so throughput experiments measured Python
thread-scheduling noise and every test synchronized by sleep-polling.
This module extracts the substrate into a pluggable **ExecutionModel**
with two implementations:

* :class:`ThreadedExecutionModel` — one worker thread per mailbox over
  a :class:`~repro.runtime.queues.BatchQueue`, **batched dequeue**
  (up to ``max_batch`` items per lock round-trip), one timer thread
  serving a heap of delayed deliveries and timers (``call_later`` /
  ``every``), and condition-variable quiescence: ``drain()`` blocks on
  an in-flight counter instead of sleep-polling queue emptiness.

* :class:`InlineExecutionModel` — a **deterministic single-threaded**
  model.  ``put`` runs the whole downstream cascade synchronously on
  the caller's thread (a trampoline, so re-entrant emissions enqueue
  instead of recursing); delayed messages live on a **virtual-time**
  heap and are only released by ``drain()``, which advances virtual
  time step by step; periodic timers fire only under ``advance()``.  A
  seeded RNG picks the service order when several mailboxes hold work,
  so racy interleavings are *reproducible*: the paper's race conditions
  become plain synchronous test code with zero ``time.sleep``.

Terminology: a **mailbox** is a named FIFO plus a batch handler (a
broker dispatcher, one grid task).  Both models keep that FIFO in the
same unbounded :class:`~repro.runtime.queues.BatchQueue` — counters
and telemetry sampling exist once; the models differ only in who
services it.  Work is *pushed*, as the paper's event layer
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
from repro.runtime.queues import BatchQueue

BatchHandler = Callable[[List[Any]], None]

THREADED = "threaded"
INLINE = "inline"
PROCESS = "process"

#: Seconds ``shutdown()`` waits for the workers to exit by default.
SHUTDOWN_TIMEOUT = 2.0


@dataclass
class ExecutionConfig:
    """Tunables of the execution substrate (threaded, inline or process)."""

    #: ``"threaded"`` (production-like, parallel), ``"inline"``
    #: (deterministic, synchronous, virtual-time delays) or
    #: ``"process"`` (threaded substrate + grid cells in worker
    #: processes behind the binary wire).
    mode: str = THREADED
    #: Maximum items a mailbox handler receives per invocation.
    max_batch: int = 64
    #: Seed for the inline scheduler's service order (None = FIFO by
    #: mailbox creation order).
    seed: Optional[int] = None
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
        if self.max_batch < 1:
            raise ExecutionConfigError("max_batch must be >= 1")
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ExecutionConfigError("fault_plan must be a FaultPlan or None")


class TimerHandle:
    """A timer on its model's heap, returned by
    :meth:`ExecutionModel.call_later` (one-shot) and
    :meth:`ExecutionModel.every` (periodic).  A cancelled timer is
    dropped when it comes due."""

    def __init__(self, callback: Callable[[], Any],
                 interval: Optional[float] = None):
        self.callback = callback
        #: Seconds between firings; None for a one-shot timer.
        self.interval = interval
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Mailbox:
    """A named unbounded FIFO with a batch handler, owned by an
    execution model.  Both models keep the same
    :class:`~repro.runtime.queues.BatchQueue` (counters, telemetry
    sampling) and handler bookkeeping; the model decides how work is
    put, serviced and closed."""

    def __init__(self, model: "ExecutionModel", name: str,
                 handler: BatchHandler):
        self.name = name
        self._model = model
        self._handler = handler
        self._queue = BatchQueue()
        self.handled = 0
        self.handler_errors = 0

    def put(self, item: Any) -> None:
        self._model._put(self, (item,))

    def put_many(self, items: List[Any]) -> None:
        self._model._put(self, items)

    def close(self, drain: bool = True) -> None:
        self._model._close(self, drain)

    def bind_telemetry(self, telemetry) -> None:
        """Attach telemetry handles (depth/dwell/batch/drops)."""
        if not telemetry.enabled:
            return
        self._queue.instrument(
            telemetry.now,
            telemetry.histogram("mailbox.dwell_seconds", mailbox=self.name),
            telemetry.histogram("mailbox.batch_size", mailbox=self.name),
            telemetry.gauge("mailbox.depth", mailbox=self.name),
            telemetry.counter("mailbox.dropped", mailbox=self.name),
        )

    def stats(self) -> Dict[str, Any]:
        snapshot = self._queue.stats()
        snapshot["handled"] = self.handled
        snapshot["handler_errors"] = self.handler_errors
        return snapshot


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
        #: Timer callbacks that raised when they came due.
        self.callback_errors = 0

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
    def mailbox(self, name: str, handler: BatchHandler) -> Mailbox:
        """Create a mailbox whose handler receives item *batches*."""

    @abc.abstractmethod
    def _put(self, box: Mailbox, items: Any) -> None:
        """Apply mailbox-scope faults to *items*, then enqueue them."""

    @abc.abstractmethod
    def _close(self, box: Mailbox, drain: bool) -> None:
        """Close *box*: with *drain*, queued items are still handled."""

    @abc.abstractmethod
    def schedule(self, mailbox: Mailbox, item: Any,
                 delay: float = 0.0) -> None:
        """Enqueue *item*, optionally after *delay* seconds (virtual
        seconds under the inline model)."""

    def call_later(self, delay: float,
                   callback: Callable[[], Any]) -> TimerHandle:
        """Run *callback* once after *delay* seconds.  Untracked: the
        threaded ``drain()`` does not wait for it; the inline model
        fires it when ``drain()`` or ``advance()`` reach it."""
        timer = TimerHandle(callback)
        self._add_timer(max(delay, 0.0), timer)
        return timer

    def every(self, interval: float,
              callback: Callable[[], Any]) -> TimerHandle:
        """Run *callback* every *interval* seconds until cancelled.
        Untracked like :meth:`call_later`; the inline model fires it
        only under ``advance()``, once per period boundary crossed —
        ``drain()`` neither fires it nor waits for it."""
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        timer = TimerHandle(callback, interval)
        self._add_timer(interval, timer)
        return timer

    @abc.abstractmethod
    def _add_timer(self, delay: float, timer: TimerHandle) -> None:
        """Put *timer* on the heap, due *delay* seconds from now."""

    def _fire(self, timer: TimerHandle) -> None:
        """Run one due timer.  A raising callback is counted (like a
        mailbox's ``handler_errors``); a periodic one keeps its period."""
        try:
            timer.callback()
        except Exception:  # noqa: BLE001 - timers must keep firing
            self.callback_errors += 1

    def now(self, clock: Callable[[], float]) -> float:
        """The time heartbeat arrivals are read on: the
        caller's *clock* in real time; the inline model overrides this
        with the virtual time its timers fire on."""
        return clock()

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


# ---------------------------------------------------------------------------
# Threaded model
# ---------------------------------------------------------------------------


class _ThreadedMailbox(Mailbox):
    """A mailbox serviced by its own worker thread."""

    def __init__(self, model: "ThreadedExecutionModel", name: str,
                 handler: BatchHandler):
        super().__init__(model, name, handler)
        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

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
        # (due, seq, queue, item) for a delayed delivery (tracked in
        # _pending); (due, seq, None, TimerHandle) for a timer.
        self._timer_heap: List[Tuple[float, int, Optional[BatchQueue],
                                     Any]] = []
        self._timer_cv = threading.Condition()
        self._stopping = threading.Event()
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="execution-timer", daemon=True
        )
        self._timer_thread.start()

    # -- accounting -------------------------------------------------------

    def _put(self, box: Mailbox, items: Any) -> None:
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

    def _track_put(self, queue: BatchQueue, items: Any) -> None:
        items = list(items)
        if not items:
            return
        with self._quiet:
            self._pending += len(items)
        discarded = queue.put_many(items)
        if discarded:
            self._note_done(discarded)

    def _close(self, box: Mailbox, drain: bool) -> None:
        discarded = box._queue.close(drain=drain)
        if discarded:
            self._note_done(discarded)

    def _note_done(self, count: int) -> None:
        with self._quiet:
            self._pending -= count
            if self._pending <= 0:
                self._quiet.notify_all()

    # -- mailboxes --------------------------------------------------------

    def mailbox(self, name, handler):
        box = _ThreadedMailbox(self, name, handler)
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

    def _schedule_on_queue(self, queue: BatchQueue, item: Any,
                           delay: float) -> None:
        """Timer-heap delivery straight into *queue* (no fault re-check)."""
        with self._quiet:
            self._pending += 1
        self._push(time.monotonic() + delay, queue, item)

    def _add_timer(self, delay: float, timer: TimerHandle) -> None:
        # Untracked: fire-and-forget maintenance work (e.g. throttled
        # query renewals) must not hold drain() hostage for seconds.
        self._push(time.monotonic() + delay, None, timer)

    def _push(self, due: float, queue: Optional[BatchQueue],
              payload: Any) -> None:
        with self._timer_cv:
            heapq.heappush(
                self._timer_heap, (due, next(self._sequence), queue, payload)
            )
            self._timer_cv.notify()

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cv:
                while True:
                    if self._stopping.is_set():
                        return
                    if not self._timer_heap:
                        self._timer_cv.wait()  # _push() and shutdown() notify
                        continue
                    due = self._timer_heap[0][0]
                    remaining = due - time.monotonic()
                    if remaining <= 0:
                        _, _, queue, payload = heapq.heappop(
                            self._timer_heap
                        )
                        break
                    self._timer_cv.wait(timeout=remaining)
            if queue is None:
                if payload.cancelled:
                    continue
                if payload.interval is not None:
                    self._push(max(due + payload.interval, time.monotonic()),
                               None, payload)
                self._fire(payload)
                continue
            # Already counted at schedule(); hand straight to the queue
            # and only adjust for items it discarded.
            discarded = queue.put(payload)
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
        timeout = SHUTDOWN_TIMEOUT if timeout is None else timeout
        self._stopping.set()
        with self._timer_cv:
            dropped = sum(1 for entry in self._timer_heap
                          if entry[2] is not None)
            self._timer_heap.clear()
            self._timer_cv.notify_all()
        if dropped:
            self._note_done(dropped)
        for box in self._mailboxes:
            box.close(drain=False)
        deadline = time.monotonic() + timeout
        for box in self._mailboxes:
            box.join(timeout=max(0.0, deadline - time.monotonic()))
        self._timer_thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def stats(self) -> Dict[str, Any]:
        with self._quiet:
            pending = self._pending
        snapshot = {
            "mode": THREADED,
            "pending": pending,
            "max_batch": self.config.max_batch,
            "callback_errors": self.callback_errors,
            "mailboxes": {box.name: box.stats() for box in self._mailboxes},
        }
        if self.fault_injector is not None:
            snapshot["faults"] = self.fault_injector.stats()
        return snapshot


# ---------------------------------------------------------------------------
# Inline (deterministic) model
# ---------------------------------------------------------------------------


class InlineExecutionModel(ExecutionModel):
    """Deterministic synchronous execution with virtual-time delays.

    ``put`` triggers a trampoline that services mailboxes until no
    undelayed work remains — on the caller's thread, so a publish
    returns only after its entire downstream cascade ran.  Delayed
    items and ``call_later`` timers wait on a virtual-time heap: they
    are released by :meth:`drain` and :meth:`advance`, which advance the
    virtual clock; ``every`` timers fire only under :meth:`advance`.
    This is what turns the paper's races into straight-line test code:
    work issued *between* a delayed message and ``drain()``
    deterministically wins the race, every run.
    """

    deterministic = True

    def __init__(self, config: Optional[ExecutionConfig] = None):
        if config is None:
            config = ExecutionConfig(mode=INLINE)
        super().__init__(config)
        self._lock = threading.RLock()
        self._mailboxes: List[Mailbox] = []
        self._running = False
        self._vnow = 0.0
        self._sequence = itertools.count()
        # (virtual_due, seq, mailbox, item) for a delayed item,
        # (virtual_due, seq, None, TimerHandle) for a one-shot timer.
        self._delayed: List[Tuple[float, int, Any, Any]] = []
        #: Periodic timers, same entries; only advance() reaches them.
        self._periodic: List[Tuple[float, int, Any, Any]] = []
        self._rng = (None if self.config.seed is None
                     else random.Random(self.config.seed))
        self.handled_items = 0

    @property
    def virtual_now(self) -> float:
        return self._vnow

    def now(self, clock: Callable[[], float]) -> float:
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

    def mailbox(self, name, handler):
        box = Mailbox(self, name, handler)
        box.bind_telemetry(self.telemetry)
        with self._lock:
            self._mailboxes.append(box)
        return box

    def _close(self, box: Mailbox, drain: bool) -> None:
        with self._lock:
            if drain:
                self._pump()
            box._queue.close(drain=False)

    # -- scheduling -------------------------------------------------------

    def _put(self, box: Mailbox, items: Any) -> None:
        with self._lock:
            injector = self.fault_injector
            if injector is None:
                box._queue.put_many(items)
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
                                 next(self._sequence), box,
                                 decision.payload),
                            )
                        else:
                            box._queue.put(decision.payload)
            if not self._running:
                self._pump()

    def schedule(self, mailbox: Mailbox, item: Any,
                 delay: float = 0.0) -> None:
        assert isinstance(mailbox, Mailbox)
        if delay <= 0:
            mailbox.put(item)
            return
        with self._lock:
            heapq.heappush(
                self._delayed,
                (self._vnow + delay, next(self._sequence), mailbox, item),
            )

    def _add_timer(self, delay: float, timer: TimerHandle) -> None:
        with self._lock:
            heapq.heappush(
                self._delayed if timer.interval is None else self._periodic,
                (self._vnow + delay, next(self._sequence), None, timer),
            )

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

    def _release(self, box: Optional[Mailbox], payload: Any) -> None:
        """Hand over one due delayed entry: enqueue a scheduled item or
        fire a ``call_later`` timer."""
        if box is not None:
            box._queue.put(payload)
        elif not payload.cancelled:
            self._fire(payload)

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
                    due, _, box, payload = heapq.heappop(self._delayed)
                    self._vnow = max(self._vnow, due)
                    self._release(box, payload)
                    continue
                return True

    def advance(self, seconds: float) -> None:
        """Release delayed work due within *seconds* of virtual time and
        fire each periodic timer once per period boundary crossed (the
        boundaries ``drain()`` already moved past are skipped)."""
        with self._lock:
            start, horizon = self._vnow, self._vnow + seconds
            while True:
                heap = min((heap for heap in (self._delayed, self._periodic)
                            if heap), key=lambda heap: heap[0][:2],
                           default=None)
                if heap is None or heap[0][0] > horizon:
                    break
                due, _, box, payload = heapq.heappop(heap)
                self._vnow = max(self._vnow, due)
                if heap is self._delayed:
                    self._release(box, payload)
                elif not payload.cancelled:
                    heapq.heappush(heap, (due + payload.interval,
                                          next(self._sequence), None, payload))
                    if due > start:
                        self._fire(payload)
                self._pump()
            self._vnow = max(self._vnow, horizon)

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        with self._lock:
            self._delayed.clear()
            self._periodic.clear()
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
