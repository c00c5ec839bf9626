"""Unit tests for the execution substrate: queues, models, scheduling.

The queue tests exercise the shared FIFO primitive directly;
the model tests cover the threaded model's condition-variable
quiescence and the inline model's reproducible scheduling and
virtual-time delays.
"""

import threading
import time

import pytest

from repro.errors import ExecutionConfigError
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
    build_execution_model,
    resolve_execution_model,
)
from repro.runtime.queues import BatchQueue


class TestBoundedQueue:
    """The one mailbox FIFO, :class:`BatchQueue`: unbounded."""

    def test_fifo_order_and_batched_dequeue(self):
        queue = BatchQueue()
        queue.put_many(range(10))
        assert queue.get_batch(4) == [0, 1, 2, 3]
        assert queue.get_batch(100) == [4, 5, 6, 7, 8, 9]
        stats = queue.stats()
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 6
        assert stats["high_water"] == 10

    def test_get_batch_never_waits_to_fill(self):
        queue = BatchQueue()
        queue.put(1)
        # One item available: the consumer gets it immediately even
        # though max_batch is larger.
        assert queue.get_batch(64, timeout=0.01) == [1]
        assert queue.get_batch(64, timeout=0.01) == []

    def test_put_on_closed_queue_discards(self):
        queue = BatchQueue()
        queue.put(1)
        queue.close(drain=True)
        assert queue.put(2) == 1  # reported as discarded
        assert queue.stats()["dropped"] == 1
        assert queue.get_batch(10) == [1]  # drained items still served
        assert queue.get_batch(10) is None  # then the exit signal

    def test_close_without_drain_discards_queued_items(self):
        queue = BatchQueue()
        queue.put_many([1, 2, 3])
        assert queue.close(drain=False) == 3
        assert queue.get_batch(10) is None


class TestExecutionConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ExecutionConfigError):
            ExecutionConfig(mode="fibers")

    def test_rejects_bad_capacity_and_batch(self):
        with pytest.raises(ExecutionConfigError):
            ExecutionConfig(max_batch=0)

    def test_build_and_resolve(self):
        assert isinstance(
            build_execution_model(ExecutionConfig(mode="inline")),
            InlineExecutionModel,
        )
        model, owned = resolve_execution_model(None)
        assert isinstance(model, ThreadedExecutionModel) and owned
        model.shutdown()
        shared = InlineExecutionModel()
        assert resolve_execution_model(shared) == (shared, False)
        with pytest.raises(ExecutionConfigError):
            resolve_execution_model(42)


class TestThreadedModel:
    def test_drain_waits_for_in_flight_batches(self):
        """drain() must cover items a handler is *currently* processing,
        not just queue emptiness."""
        model = ThreadedExecutionModel(ExecutionConfig(max_batch=8))
        gate = threading.Event()
        seen = []

        def handler(batch):
            gate.wait(timeout=5.0)
            seen.extend(batch)

        box = model.mailbox("slow", handler)
        try:
            box.put_many([1, 2, 3])
            assert not model.drain(timeout=0.1)  # handler still holds them
            gate.set()
            assert model.drain(timeout=5.0)
            assert sorted(seen) == [1, 2, 3]
        finally:
            model.shutdown()

    def test_drain_covers_handler_reentrancy(self):
        """A handler enqueuing follow-up work must extend quiescence."""
        model = ThreadedExecutionModel()
        hops = []

        def second(batch):
            hops.extend(batch)

        box2 = model.mailbox("second", second)

        def first(batch):
            for item in batch:
                box2.put(item + 1)

        box1 = model.mailbox("first", first)
        try:
            box1.put_many([1, 2, 3])
            assert model.drain(timeout=5.0)
            assert sorted(hops) == [2, 3, 4]
        finally:
            model.shutdown()

    def test_delayed_schedule_is_counted_by_drain(self):
        model = ThreadedExecutionModel()
        seen = []
        box = model.mailbox("late", seen.extend)
        try:
            model.schedule(box, "x", delay=0.05)
            assert model.drain(timeout=5.0)  # waits through the delay
            assert seen == ["x"]
        finally:
            model.shutdown()

    def test_call_later_fires_and_cancels(self):
        model = ThreadedExecutionModel()
        fired = threading.Event()
        try:
            handle = model.call_later(10.0, fired.set)
            handle.cancel()
            model.call_later(0.01, fired.set)
            assert fired.wait(timeout=2.0)
        finally:
            model.shutdown()

    def test_handler_error_does_not_kill_worker(self):
        model = ThreadedExecutionModel(ExecutionConfig(max_batch=1))
        seen = []

        def handler(batch):
            if batch[0] == "boom":
                raise RuntimeError("boom")
            seen.extend(batch)

        box = model.mailbox("fragile", handler)
        try:
            box.put("boom")
            box.put("ok")
            assert model.drain(timeout=5.0)
            assert seen == ["ok"]
            assert box.stats()["handler_errors"] == 1
        finally:
            model.shutdown()

    def test_every_fires_once_per_period_never_early(self):
        model = ThreadedExecutionModel()
        fired = []
        done = threading.Event()

        def tick():
            fired.append(time.monotonic())
            if len(fired) == 5:
                handle.cancel()  # from inside: no sixth firing
                done.set()

        try:
            start = time.monotonic()
            handle = model.every(0.02, tick)
            assert done.wait(timeout=5.0)
            assert all(at - start >= 0.02 * k
                       for k, at in enumerate(fired, start=1))
            time.sleep(0.1)
            assert len(fired) == 5
        finally:
            model.shutdown()

    def test_raising_every_callback_is_counted_and_keeps_firing(self):
        model = ThreadedExecutionModel()
        fired = []
        done = threading.Event()

        def tick():
            fired.append(1)
            if len(fired) == 3:
                handle.cancel()
                done.set()
            raise RuntimeError("tick")

        try:
            handle = model.every(0.01, tick)
            assert done.wait(timeout=5.0)
            time.sleep(0.05)
            assert model.stats()["callback_errors"] == 3
        finally:
            model.shutdown()

    def test_timers_are_untracked(self):
        """Timers never count as in-flight work: drain() returns at once
        and shutdown() reports no dropped items for them."""
        model = ThreadedExecutionModel()
        box = model.mailbox("box", lambda batch: None)
        try:
            model.every(60.0, lambda: None)
            model.call_later(60.0, lambda: None)
            model.schedule(box, "x", delay=0.01)
            assert model.drain(timeout=5.0)
            assert model.stats()["pending"] == 0
        finally:
            model.shutdown()
        assert model.stats()["pending"] == 0

    def test_stats_snapshot_shape(self):
        model = ThreadedExecutionModel(ExecutionConfig(max_batch=16))
        box = model.mailbox("a", lambda batch: None)
        try:
            box.put_many(range(5))
            model.drain(timeout=5.0)
            stats = model.stats()
            assert stats["mode"] == "threaded"
            assert stats["pending"] == 0
            assert stats["mailboxes"]["a"]["enqueued"] == 5
            assert stats["mailboxes"]["a"]["handled"] == 5
        finally:
            model.shutdown()


class TestInlineModel:
    def test_put_runs_cascade_synchronously(self):
        model = InlineExecutionModel()
        seen = []
        box2 = model.mailbox("b", seen.extend)
        box1 = model.mailbox("a", lambda batch: box2.put_many(
            [item * 10 for item in batch]
        ))
        box1.put(1)
        # No drain needed: the whole cascade ran on this thread.
        assert seen == [10]

    def test_reentrant_put_trampolines_instead_of_recursing(self):
        model = InlineExecutionModel()
        seen = []

        def handler(batch):
            for item in batch:
                seen.append(item)
                if item < 500:
                    box.put(item + 1)  # would blow the stack if recursive

        box = model.mailbox("loop", handler)
        box.put(0)
        assert seen == list(range(501))

    def test_same_seed_same_service_order(self):
        def run(seed):
            model = InlineExecutionModel(
                ExecutionConfig(mode="inline", seed=seed, max_batch=1)
            )
            order = []
            boxes = [
                model.mailbox(f"m{i}", lambda batch, i=i: order.append(i))
                for i in range(3)
            ]

            def feed(batch):
                for box in boxes:
                    box.put_many(["x", "y"])

            entry = model.mailbox("entry", feed)
            entry.put("go")
            return order

        assert run(42) == run(42)  # reproducible
        runs = {tuple(run(seed)) for seed in range(8)}
        assert len(runs) > 1  # the seed genuinely varies the order

    def test_delayed_item_waits_for_drain(self):
        model = InlineExecutionModel()
        seen = []
        box = model.mailbox("late", seen.extend)
        model.schedule(box, "delayed", delay=1.0)
        box.put("fast")
        assert seen == ["fast"]  # virtual time has not advanced
        assert model.drain()
        assert seen == ["fast", "delayed"]
        assert model.virtual_now >= 1.0

    def test_advance_releases_only_due_work(self):
        model = InlineExecutionModel()
        seen = []
        box = model.mailbox("late", seen.extend)
        model.schedule(box, "soon", delay=1.0)
        model.schedule(box, "later", delay=5.0)
        model.advance(2.0)
        assert seen == ["soon"]
        model.advance(5.0)
        assert seen == ["soon", "later"]

    def test_call_later_is_virtual_and_cancellable(self):
        model = InlineExecutionModel()
        fired = []
        model.call_later(1.0, lambda: fired.append("a"))
        handle = model.call_later(2.0, lambda: fired.append("b"))
        handle.cancel()
        assert model.drain()
        assert fired == ["a"]

    def test_raising_call_later_callback_is_counted_not_swallowed(self):
        model = InlineExecutionModel()
        seen = []
        box = model.mailbox("late", seen.extend)
        model.call_later(1.0, lambda: 1 / 0)
        model.call_later(2.0, lambda: seen.append("callback"))
        model.schedule(box, "item", delay=3.0)
        model.advance(1.5)
        assert model.stats()["callback_errors"] == 1
        model.call_later(0.1, lambda: 1 / 0)
        assert model.drain()
        assert model.stats()["callback_errors"] == 2
        assert seen == ["callback", "item"]

    def test_every_fires_once_per_period_boundary_advanced(self):
        model = InlineExecutionModel()
        fired = []
        model.every(0.25, lambda: fired.append(model.virtual_now))
        for k in range(1, 5):
            model.advance(0.25)
            assert len(fired) == k
        model.advance(1.1)  # four boundaries crossed in one step
        assert fired == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]

    def test_cancelled_every_stops_firing(self):
        model = InlineExecutionModel()
        fired = []
        handle = model.every(1.0, lambda: fired.append(1))
        model.advance(2.0)
        handle.cancel()
        model.advance(5.0)
        assert fired == [1, 1]

    def test_raising_every_callback_is_counted_and_keeps_firing(self):
        model = InlineExecutionModel()
        fired = []

        def tick():
            fired.append(1)
            raise RuntimeError("tick")

        model.every(1.0, tick)
        model.advance(3.0)
        assert len(fired) == 3
        assert model.stats()["callback_errors"] == 3

    def test_drain_neither_fires_nor_waits_for_every(self):
        model = InlineExecutionModel()
        fired = []
        box = model.mailbox("late", lambda batch: None)
        model.every(0.5, lambda: fired.append(model.virtual_now))
        assert model.drain()
        assert model.virtual_now == 0.0
        model.schedule(box, "item", delay=2.2)
        assert model.drain()
        assert model.virtual_now == 2.2 and fired == []
        # The boundaries drain() moved past are skipped, not made up.
        model.advance(0.5)
        assert fired == [2.5]

    def test_every_rejects_non_positive_interval(self):
        model = InlineExecutionModel()
        with pytest.raises(ValueError):
            model.every(0.0, lambda: None)

    def test_delay_ordering_is_by_virtual_due_time(self):
        model = InlineExecutionModel()
        seen = []
        box = model.mailbox("late", seen.extend)
        model.schedule(box, "second", delay=2.0)
        model.schedule(box, "first", delay=1.0)
        assert model.drain()
        assert seen == ["first", "second"]

    def test_overflow_inside_handler_is_contained(self):
        """A handler that raises counts as a handler error instead of
        killing the scheduler — mirroring the threaded model's
        containment — and the work it queued before raising still
        runs."""
        model = InlineExecutionModel()
        seen = []
        after = model.mailbox("after", seen.extend)

        def fail(batch):
            after.put("queued before the raise")
            raise OverflowError("handler failed")

        entry = model.mailbox("entry", fail)
        entry.put("go")  # must not raise
        assert entry.stats()["handler_errors"] == 1
        assert seen == ["queued before the raise"]
        entry.put("again")  # the scheduler still serves the mailbox
        assert entry.stats()["handler_errors"] == 2

    def test_stats_snapshot_shape(self):
        model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=1))
        box = model.mailbox("a", lambda batch: None)
        box.put_many([1, 2, 3])
        stats = model.stats()
        assert stats["mode"] == "inline"
        assert stats["pending"] == 0
        assert stats["mailboxes"]["a"]["handled"] == 3
        model.schedule(box, 4, delay=1.0)
        assert model.stats()["delayed"] == 1
