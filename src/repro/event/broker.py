"""An in-memory pub/sub broker with per-channel FIFO delivery.

Semantics follow Redis pub/sub, the event layer of the paper's
prototype:

* at-most-once, fire-and-forget delivery — a message published while
  nobody subscribes is dropped (the paper accepts this: on InvaliDB
  outage "requests sent against the event layer remain unanswered");
* per-channel FIFO order per subscriber (messages of one channel share
  one delay, so their relative order is preserved);
* cross-channel reordering when channels carry different delays — the
  asynchronous skew behind the paper's race conditions;
* ``psubscribe``-style pattern subscriptions with ``*`` wildcards.

Delivery runs on the pluggable execution substrate
(:mod:`repro.runtime`): under the default threaded model a dedicated
dispatch mailbox decouples publishers from subscriber callbacks — the
asynchrony that separates the app server from the InvaliDB cluster —
with *batched* dequeue from an unbounded FIFO;
under the deterministic inline model delivery happens synchronously
with virtual-time delays, which makes the paper's two race conditions
(write-query and write-subscription, Section 5.1) reproducible in tests
without any timing sleeps.  Artificial delivery delays (global or
per-channel) skew message arrival either way.

Payloads cross the broker by reference: the broker runs in the
process of its publishers and subscribers, so no bytes leave it and
nothing is serialized (the paper's Redis is a separate process; here
serialization is paid only where bytes do cross a process, on the
worker wire of :mod:`repro.event.wire`).  Every subscriber of a
message, and every fault-duplicated copy of it, receives the published
object itself — a write is one :class:`~repro.types.AfterImage` from
the store to every matching cell.  The contract that makes this
sound:

* a publisher hands a payload over at :meth:`Broker.publish` and never
  touches it again;
* subscribers treat payloads as read-only;
* a subscriber that must write into a payload forks that part first
  (the client forks a sampled row's trace before stamping its spans).
"""

from __future__ import annotations

import fnmatch
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import BrokerClosedError, InjectedFaultError
from repro.obs.metrics import NULL_COUNTER
from repro.runtime.execution import (
    ExecutionConfig,
    ExecutionModel,
    resolve_execution_model,
)
from repro.runtime.faults import CHANNEL

Listener = Callable[[str, Any], None]
DelayFn = Callable[[str], float]


@dataclass
class Subscription:
    """Handle returned by subscribe/psubscribe; cancel via ``close()``."""

    pattern: str
    listener: Listener
    is_pattern: bool
    _broker: "Broker" = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    active: bool = True

    def close(self) -> None:
        """Cancel the subscription; idempotent and race-free — the
        active-check and removal happen atomically under the broker
        lock, so two concurrent closers unsubscribe exactly once."""
        if self._broker is not None:
            self._broker._close_subscription(self)
        else:
            self.active = False


class Broker:
    """The event layer: channels, subscribers, one dispatch mailbox.

    Payloads go by reference, with no codec call at all (see the module
    doc for the ownership contract).
    """

    def __init__(
        self,
        delivery_delay: float = 0.0,
        delay_fn: Optional[DelayFn] = None,
        name: str = "event-layer",
        execution: Union[None, ExecutionConfig, ExecutionModel] = None,
    ):
        self.name = name
        self._delivery_delay = delivery_delay
        self._delay_fn = delay_fn
        self._exact: Dict[str, List[Subscription]] = {}
        self._patterns: List[Subscription] = []
        self._lock = threading.RLock()
        self._closed = False
        self._published = 0
        self._delivered = 0
        self._listener_errors = 0
        #: Run after each dispatch batch; swapped whole, read lock-free.
        self._batch_ends: Tuple[Callable[[], None], ...] = ()
        self._execution, self._owns_execution = resolve_execution_model(
            execution
        )
        self._mailbox = self._execution.mailbox(
            f"{name}-dispatch", self._dispatch_batch
        )
        # Telemetry handles, cached per telemetry identity: the cluster
        # may attach telemetry to the shared execution model *after*
        # this broker was built, so re-resolve when the handle changes.
        self._tel_identity: Any = None
        self._tel_published = NULL_COUNTER
        self._tel_delivered = NULL_COUNTER
        self._tel_listener_errors = NULL_COUNTER

    def _tel_counters(self) -> Tuple[Any, Any]:
        telemetry = self._execution.telemetry
        if telemetry is not self._tel_identity:
            self._tel_identity = telemetry
            self._tel_published = telemetry.counter(
                "broker.published", broker=self.name
            )
            self._tel_delivered = telemetry.counter(
                "broker.delivered", broker=self.name
            )
            self._tel_listener_errors = telemetry.counter(
                "broker.listener_errors", broker=self.name
            )
        return self._tel_published, self._tel_delivered

    @property
    def execution(self) -> ExecutionModel:
        """The execution model delivery runs on (shareable with a
        cluster so one ``drain()`` covers the whole pipeline)."""
        return self._execution

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self, channel: str, payload: Any) -> None:
        """Enqueue *payload* for asynchronous delivery, by reference;
        the caller hands it over for good.

        When a fault injector is attached to the execution model,
        channel-scope faults apply here: ``error`` makes the publish
        itself raise :class:`~repro.errors.InjectedFaultError` (the
        refused publish a client counts and repairs by resync),
        ``drop``/``duplicate``/``delay``/``corrupt`` act on the
        in-flight message.
        """
        if self._closed:
            raise BrokerClosedError(f"broker {self.name!r} is closed")
        delay = self._delivery_delay
        if self._delay_fn is not None:
            delay = max(delay, self._delay_fn(channel))
        copies = 1
        published, _ = self._tel_counters()
        published.inc()
        injector = self._execution.fault_injector
        if injector is not None:
            decision = injector.decide(CHANNEL, channel, payload)
            if decision.error:
                raise InjectedFaultError(CHANNEL, channel)
            with self._lock:
                self._published += 1
            if decision.drop:
                return
            payload = decision.payload
            delay += decision.delay
            copies = decision.copies
        else:
            with self._lock:
                self._published += 1
        for _ in range(copies):
            self._execution.schedule(self._mailbox, (channel, payload), delay)

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------

    def subscribe(self, channel: str, listener: Listener) -> Subscription:
        """Subscribe to exactly *channel*."""
        if self._closed:
            raise BrokerClosedError(f"broker {self.name!r} is closed")
        subscription = Subscription(channel, listener, is_pattern=False, _broker=self)
        with self._lock:
            self._exact.setdefault(channel, []).append(subscription)
        return subscription

    def psubscribe(self, pattern: str, listener: Listener) -> Subscription:
        """Subscribe to all channels matching a ``fnmatch`` pattern."""
        if self._closed:
            raise BrokerClosedError(f"broker {self.name!r} is closed")
        subscription = Subscription(pattern, listener, is_pattern=True, _broker=self)
        with self._lock:
            self._patterns.append(subscription)
        return subscription

    def add_batch_end(self, callback: Callable[[], None]) -> None:
        """Run *callback* after every dispatch batch, so a listener that
        buffers can hand a whole batch on at once."""
        with self._lock:
            self._batch_ends += (callback,)

    def remove_batch_end(self, callback: Callable[[], None]) -> None:
        with self._lock:
            self._batch_ends = tuple(
                end for end in self._batch_ends if end != callback)

    def _close_subscription(self, subscription: Subscription) -> None:
        with self._lock:
            if not subscription.active:
                return
            subscription.active = False
            if subscription.is_pattern:
                if subscription in self._patterns:
                    self._patterns.remove(subscription)
            else:
                bucket = self._exact.get(subscription.pattern)
                if bucket and subscription in bucket:
                    bucket.remove(subscription)
                    if not bucket:
                        del self._exact[subscription.pattern]

    # ------------------------------------------------------------------
    # Dispatch (runs on the execution model)
    # ------------------------------------------------------------------

    def _dispatch_batch(self, batch: List[Tuple[str, Any]]) -> None:
        _, delivered = self._tel_counters()
        count = errors = 0
        for channel, payload in batch:
            for subscription in self._subscribers_for(channel):
                try:
                    subscription.listener(channel, payload)
                except Exception:  # noqa: BLE001 - a bad subscriber must
                    # never take down the dispatcher (isolated failure
                    # domains are the point of the event layer); it is
                    # counted, never silent.
                    errors += 1
                else:
                    count += 1
        for batch_end in self._batch_ends:
            try:
                batch_end()
            except Exception:  # noqa: BLE001 - counted like a listener
                errors += 1
        if count or errors:
            # One lock acquisition and one counter bump per batch, not
            # per delivery — this sits under every message in the
            # system.
            with self._lock:
                self._delivered += count
                self._listener_errors += errors
            delivered.inc(count)
            if errors:
                self._tel_listener_errors.inc(errors)

    def _subscribers_for(self, channel: str) -> List[Subscription]:
        with self._lock:
            subs = list(self._exact.get(channel, ()))
            subs.extend(
                s for s in self._patterns if fnmatch.fnmatchcase(channel, s.pattern)
            )
        return subs

    # ------------------------------------------------------------------
    # Lifecycle & introspection
    # ------------------------------------------------------------------

    def drain(self, timeout: float = 5.0) -> bool:
        """Block until all queued messages were dispatched (for tests).

        Condition-variable based: waits on the execution model's
        in-flight accounting (which includes delayed messages), no
        sleep-polling.  When the model is shared with a cluster this
        covers the whole pipeline."""
        return self._execution.drain(timeout)

    @property
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            snapshot: Dict[str, Any] = {
                "published": self._published,
                "delivered": self._delivered,
                "listener_errors": self._listener_errors,
            }
        queue = self._mailbox.stats()
        snapshot["queue_depth"] = queue["depth"]
        snapshot["queue_high_water"] = queue["high_water"]
        snapshot["dropped"] = queue["dropped"]
        snapshot["batches"] = queue["batches"]
        snapshot["largest_batch"] = queue["largest_batch"]
        return snapshot

    def close(self) -> None:
        """Stop dispatching; pending messages are dropped."""
        if self._closed:
            return
        self._closed = True
        if self._owns_execution:
            self._execution.shutdown()
        else:
            self._mailbox.close(drain=False)

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
