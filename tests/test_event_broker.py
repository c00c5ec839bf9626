"""Event-layer (broker) tests: pub/sub semantics, codecs, lifecycle."""

import threading
import time

import pytest

from repro.errors import BrokerClosedError, CodecError
from repro.event.broker import Broker
from repro.event.channels import (
    notification_channel,
    query_channel,
    write_channel,
)
from repro.event.codec import JsonCodec
from repro.event.wire import BinaryCodec
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel


class TestPubSub:
    def test_basic_delivery(self, broker):
        received = []
        broker.subscribe("ch", lambda channel, payload: received.append(payload))
        broker.publish("ch", {"v": 1})
        broker.drain()
        assert received == [{"v": 1}]

    def test_fifo_order_per_channel(self, broker):
        received = []
        broker.subscribe("ch", lambda c, p: received.append(p))
        for i in range(50):
            broker.publish("ch", i)
        broker.drain()
        assert received == list(range(50))

    def test_no_subscriber_drops_message(self, broker):
        broker.publish("nobody", {"v": 1})
        assert broker.drain()
        assert broker.stats["delivered"] == 0
        assert broker.stats["published"] == 1

    def test_multiple_subscribers(self, broker):
        a, b = [], []
        broker.subscribe("ch", lambda c, p: a.append(p))
        broker.subscribe("ch", lambda c, p: b.append(p))
        broker.publish("ch", 1)
        broker.drain()
        assert a == [1] and b == [1]

    def test_unsubscribe(self, broker):
        received = []
        subscription = broker.subscribe("ch", lambda c, p: received.append(p))
        broker.publish("ch", 1)
        broker.drain()
        subscription.close()
        broker.publish("ch", 2)
        broker.drain()
        assert received == [1]

    def test_pattern_subscription(self, broker):
        received = []
        broker.psubscribe("invalidb:notify:*",
                          lambda c, p: received.append((c, p)))
        broker.publish(notification_channel("app-7"), "x")
        broker.publish("other", "y")
        broker.drain()
        assert received == [("invalidb:notify:app-7", "x")]

    def test_default_broker_hands_every_subscriber_the_published_object(
            self, broker):
        """By reference: no copy per subscriber, none per duplicate."""
        first, second, patterned = [], [], []
        broker.subscribe("ch", lambda c, p: first.append(p))
        broker.subscribe("ch", lambda c, p: second.append(p))
        broker.psubscribe("c*", lambda c, p: patterned.append(p))
        payload = {"nested": {"v": 1}, "pair": ("a", 2)}
        broker.publish("ch", payload)
        broker.drain()
        assert first[0] is payload
        assert second[0] is payload
        assert patterned[0] is payload

    def test_failing_subscriber_does_not_break_dispatch(self, broker):
        received = []

        def bad(channel, payload):
            raise RuntimeError("boom")

        broker.subscribe("ch", bad)
        broker.subscribe("ch", lambda c, p: received.append(p))
        broker.publish("ch", 1)
        broker.drain()
        assert received == [1]


class TestDelays:
    def test_delivery_delay(self):
        broker = Broker(delivery_delay=0.05)
        try:
            received = []
            broker.subscribe("ch", lambda c, p: received.append(time.monotonic()))
            start = time.monotonic()
            broker.publish("ch", 1)
            broker.drain(timeout=2.0)
            assert received and received[0] - start >= 0.045
        finally:
            broker.close()

    def test_per_channel_delay_allows_overtaking(self):
        """A fast-lane message published AFTER a slow-lane one arrives
        first — the reordering behind the paper's race conditions."""
        broker = Broker(delay_fn=lambda ch: 0.05 if ch == "slow" else 0.0)
        try:
            order = []
            broker.subscribe("slow", lambda c, p: order.append("slow"))
            broker.subscribe("fast", lambda c, p: order.append("fast"))
            broker.publish("slow", 1)
            broker.publish("fast", 1)
            broker.drain(timeout=2.0)
            assert order == ["fast", "slow"]
        finally:
            broker.close()

    def test_same_channel_order_preserved_despite_delay(self):
        broker = Broker(delay_fn=lambda ch: 0.02)
        try:
            received = []
            broker.subscribe("ch", lambda c, p: received.append(p))
            for value in range(10):
                broker.publish("ch", value)
            broker.drain(timeout=2.0)
            assert received == list(range(10))
        finally:
            broker.close()


class TestLifecycle:
    def test_closed_broker_rejects_operations(self):
        broker = Broker()
        broker.close()
        with pytest.raises(BrokerClosedError):
            broker.publish("ch", 1)
        with pytest.raises(BrokerClosedError):
            broker.subscribe("ch", lambda c, p: None)

    def test_close_is_idempotent(self):
        broker = Broker()
        broker.close()
        broker.close()

    def test_context_manager(self):
        with Broker() as broker:
            broker.publish("ch", 1)


class TestCodecs:
    def test_json_roundtrip(self):
        codec = JsonCodec()
        payload = {"a": [1, 2.5, None, "x"], "b": {"c": True}}
        assert codec.decode(codec.encode(payload)) == payload

    def test_json_rejects_unserializable(self):
        with pytest.raises(CodecError):
            JsonCodec().encode({"f": object()})

    def test_json_rejects_malformed_wire(self):
        with pytest.raises(CodecError):
            JsonCodec().decode(b"{not json")

    def test_default_codec_is_noop(self, broker, monkeypatch):
        """The broker encodes and decodes nothing: no codec is called."""
        calls = []
        for codec in (JsonCodec, BinaryCodec):
            for method in ("encode", "decode"):
                monkeypatch.setattr(codec, method,
                                    lambda *args, m=method: calls.append(m))
        received = []
        broker.subscribe("ch", lambda c, p: received.append(p))
        payload = {"nested": {"v": 1}}
        broker.publish("ch", payload)
        broker.drain()
        assert received[0] is payload
        assert calls == []

    def test_the_broker_takes_no_codec(self):
        with pytest.raises(TypeError):
            Broker(codec=BinaryCodec())

    def test_default_codec_keeps_tuples_and_int_keys(self, broker):
        received = []
        broker.subscribe("ch", lambda c, p: received.append(p))
        broker.publish("ch", {"versions": {1: 3}, "pair": ("a", 2)})
        broker.drain()
        assert received == [{"versions": {1: 3}, "pair": ("a", 2)}]
        assert type(received[0]["pair"]) is tuple


class TestBatchEnd:
    def test_batch_end_runs_once_per_dispatch_batch(self):
        """After every batch, not per message; a raising one counts as a
        listener error, and a removed one runs no more."""
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        broker = Broker(execution=model)
        log = []

        def end():
            log.append("end")
            if len(log) > 4:
                raise RuntimeError("flush failed")

        broker.add_batch_end(end)
        broker.subscribe("a", lambda c, p: log.append(p))

        def burst(values):
            for value in values:
                broker.publish("a", value)

        trigger = model.mailbox("trigger", lambda batch: burst(batch[0]))
        trigger.put(["x", "y", "z"])
        trigger.put(["w"])
        assert log == ["x", "y", "z", "end", "w", "end"]
        assert broker.stats["listener_errors"] == 1
        broker.remove_batch_end(end)
        trigger.put(["v"])
        assert log[-1] == "v"
        broker.close()
        model.shutdown()


class TestChannelNames:
    def test_channel_names_are_disjoint(self):
        names = {
            write_channel("t"), query_channel("t"), notification_channel("t")
        }
        assert len(names) == 3

    def test_tenant_isolation(self):
        assert write_channel("a") != write_channel("b")


class TestUnderLoad:
    """Satellite scenarios: subscription churn, overlapping subscriber
    kinds, delayed in-flight messages and bounded-queue overflow."""

    def test_publish_while_unsubscribing(self, broker):
        """Closing a subscription concurrently with a publish storm must
        neither crash nor deliver after close completes on all paths;
        double-close from racing threads unsubscribes exactly once."""
        received = []
        lock = threading.Lock()

        def listener(channel, payload):
            with lock:
                received.append(payload)

        subscriptions = [broker.subscribe("ch", listener) for _ in range(8)]
        stop = threading.Event()

        def publisher():
            value = 0
            while not stop.is_set():
                broker.publish("ch", value)
                value += 1

        def closer(subscription):
            subscription.close()
            subscription.close()  # idempotent from this thread...

        publisher_thread = threading.Thread(target=publisher, daemon=True)
        publisher_thread.start()
        # ...and racing closers: every subscription closed from two
        # threads at once.
        closers = [
            threading.Thread(target=closer, args=(subscription,))
            for subscription in subscriptions
            for _ in range(2)
        ]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join()
        stop.set()
        publisher_thread.join(timeout=5.0)
        assert broker.drain(timeout=5.0)
        assert all(not s.active for s in subscriptions)
        # No listener runs after drain: all registrations are gone.
        before = len(received)
        broker.publish("ch", "late")
        assert broker.drain(timeout=5.0)
        assert len(received) == before

    def test_pattern_and_exact_subscriber_on_same_channel(self, broker):
        exact, pattern = [], []
        broker.subscribe("invalidb:notify:app-1",
                         lambda c, p: exact.append(p))
        broker.psubscribe("invalidb:notify:*",
                          lambda c, p: pattern.append(p))
        for value in range(20):
            broker.publish("invalidb:notify:app-1", value)
        assert broker.drain(timeout=5.0)
        assert exact == list(range(20))
        assert pattern == list(range(20))
        assert broker.stats["delivered"] == 40

    def test_drain_waits_for_delayed_in_flight_message(self):
        """drain() must cover a message still sitting on the delay heap
        — not report quiescence just because the queue looks empty."""
        broker = Broker(delay_fn=lambda ch: 0.1 if ch == "slow" else 0.0)
        try:
            received = []
            broker.subscribe("slow", lambda c, p: received.append(p))
            broker.publish("slow", "late-bloomer")
            assert received == []  # still in delayed flight
            assert broker.drain(timeout=5.0)
            assert received == ["late-bloomer"]
        finally:
            broker.close()


class TestConcurrency:
    def test_concurrent_publishers_keep_all_messages(self, broker):
        received = []
        lock = threading.Lock()

        def listener(channel, payload):
            with lock:
                received.append(payload)

        broker.subscribe("ch", listener)

        def publish_batch(offset):
            for i in range(100):
                broker.publish("ch", offset + i)

        threads = [
            threading.Thread(target=publish_batch, args=(base,))
            for base in (0, 1000, 2000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        broker.drain(timeout=5.0)
        assert len(received) == 300
        assert set(received) == (
            set(range(100)) | set(range(1000, 1100)) | set(range(2000, 2100))
        )
