"""The unbounded FIFO under every mailbox, with batched dequeue.

:class:`BatchQueue` is the shared primitive both the event layer and
the matching-grid runtime sit on.  It has no capacity: the paper's
cluster neither sheds nor throttles work inside itself, it scales by
adding partitions (DESIGN §17).  What it does:

* **batched dequeue** — a consumer takes up to ``max_batch`` items in
  one lock acquisition, which is what lets filtering nodes process
  after-images in chunks instead of one tuple at a time;
* depth / high-water / drop counters for the ``stats()`` snapshots
  (a drop is an item offered to or discarded by a closed queue);
* optional telemetry (:meth:`BatchQueue.instrument`): queue-depth
  gauge, drop counter, batch-size histogram, and a dwell-time
  histogram.  Telemetry is **sampled** so instrumentation stays off
  the per-item hot path: every 16th enqueued item is stamped with
  ``(append_index, time)`` under the queue's existing lock, and its
  dwell is recorded when the dequeue side observes the item has left
  the deque; batch sizes are recorded for 1 in 16 batches,
  phase-locked to the exact ``enqueued``/``batches`` counters so
  deterministic runs sample identical points.  Drop counts stay exact
  on every operation; the depth gauge refreshes at each sampling
  point.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional


class BatchQueue:
    """A thread-safe unbounded FIFO with batched dequeue.

    ``put``/``put_many`` return the number of items *discarded* by the
    call (the offered items themselves, counted as drops, when the
    queue is closed) so callers can keep exact in-flight accounting.
    """

    def __init__(self):
        self._items: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Counters (guarded by _lock).
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.high_water = 0
        self.batches = 0
        self.largest_batch = 0
        # Telemetry (attached via instrument(); None = uninstrumented).
        # Sparse ``(append_index, time)`` dwell stamps — module doc.
        self._stamps: Optional[Deque[Any]] = None
        self._tel_clock = None
        self._dwell_hist = None
        self._batch_hist = None
        self._depth_gauge = None
        self._drop_counter = None

    def instrument(self, clock, dwell_hist, batch_hist, depth_gauge,
                   drop_counter) -> None:
        """Attach telemetry handles (idempotent; see module docstring).

        Items already queued ride unsampled — stamping starts with the
        next enqueue.
        """
        with self._lock:
            self._tel_clock = clock
            self._dwell_hist = dwell_hist
            self._batch_hist = batch_hist
            self._depth_gauge = depth_gauge
            self._drop_counter = drop_counter
            self._stamps = deque()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, item: Any) -> int:
        return self.put_many((item,))

    def put_many(self, items: Iterable[Any]) -> int:
        """Enqueue *items* in order; returns the number discarded."""
        items = list(items)
        if not items:
            return 0
        with self._lock:
            if self._closed:
                self.dropped += len(items)
                if self._drop_counter is not None:
                    self._drop_counter.inc(len(items))
                return len(items)
            stamps = self._stamps
            for item in items:
                self._items.append(item)
                self.enqueued += 1
                if stamps is not None and (self.enqueued & 15) == 1:
                    stamps.append((self.enqueued, self._tel_clock()))
                    self._depth_gauge.set(len(self._items))
            self.high_water = max(self.high_water, len(self._items))
            self._not_empty.notify()
        return 0

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def get_batch(self, max_batch: int,
                  timeout: Optional[float] = None) -> Optional[List[Any]]:
        """Take up to *max_batch* immediately-available items.

        Blocks until at least one item is available (it never waits to
        *fill* the batch — latency beats batch size).  Returns ``[]`` on
        timeout, and ``None`` once the queue is closed and empty — the
        consumer's signal to exit.
        """
        with self._not_empty:
            if not self._items:
                if self._closed:
                    return None
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                while not self._items:
                    if self._closed:
                        return None if not self._items else []
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return []
                    self._not_empty.wait(timeout=remaining)
            n = min(max_batch, len(self._items))
            batch = [self._items.popleft() for _ in range(n)]
            self.dequeued += n
            self.batches += 1
            self.largest_batch = max(self.largest_batch, n)
            stamps = self._stamps
            if stamps is not None:
                # Sparse sampling (module doc): dwell for stamped items
                # that left in this batch, size for 1-in-16 batches.
                removed = self.enqueued - len(self._items)
                if stamps and stamps[0][0] <= removed:
                    now = self._tel_clock()
                    while stamps and stamps[0][0] <= removed:
                        self._dwell_hist.record(
                            max(0.0, now - stamps.popleft()[1])
                        )
                    self._depth_gauge.set(len(self._items))
                if (self.batches & 15) == 1:
                    self._batch_hist.record(n)
            return batch

    # ------------------------------------------------------------------
    # Lifecycle & introspection
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> int:
        """Close the queue; returns the number of discarded items.

        With ``drain=True`` queued items remain consumable (the consumer
        finishes them, then sees ``None``); with ``drain=False`` they
        are discarded immediately.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            discarded = 0
            if not drain:
                discarded = len(self._items)
                self.dropped += discarded
                self._items.clear()
                if self._stamps is not None:
                    self._stamps.clear()
                    if discarded:
                        self._drop_counter.inc(discarded)
            self._not_empty.notify_all()
            return discarded

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._items)  # atomic read; no lock needed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "depth": len(self._items),
                "enqueued": self.enqueued,
                "dequeued": self.dequeued,
                "dropped": self.dropped,
                "high_water": self.high_water,
                "batches": self.batches,
                "largest_batch": self.largest_batch,
            }
