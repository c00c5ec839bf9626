"""Client-side resilience: retry with backoff, timeouts, circuit breaker.

The paper keeps application servers stateless towards the cluster: a
subscribe or write that fails at the event layer can simply be retried,
because versioned writes and idempotent client materialization absorb
any duplicate the retry produces.  These tests pin the retry loop, the
deadline behaviour, and the circuit breaker's interplay with the
heartbeat-based outage detection (Section 5.1).
"""

import time

import pytest

from repro.core.client import CircuitBreaker
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.errors import (
    CircuitOpenError,
    InjectedFaultError,
    OperationTimeoutError,
)
from repro.event.broker import Broker
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan
from repro.types import MatchType

from tests.conftest import Collector


class ManualClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class Harness:
    """One inline cluster + app server, torn down in reverse order."""

    def __init__(self, plan=None, clock=None, **config_overrides):
        self.model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=1, fault_plan=plan)
        )
        self.broker = Broker(execution=self.model)
        self.config = InvaliDBConfig(
            clock=clock if clock is not None else ManualClock(),
            client_rng_seed=99,
            **config_overrides,
        )
        self.cluster = InvaliDBCluster(self.broker, self.config).start()
        self.app = AppServer("resil-app", self.broker, config=self.config)

    def close(self):
        self.app.close()
        self.cluster.stop()
        self.broker.close()
        self.model.shutdown()


def make_app(plan=None, clock=None, **config_overrides):
    harness = Harness(plan=plan, clock=clock, **config_overrides)
    return harness.app, harness.broker, harness


class TestRetryWithBackoff:
    def test_transient_errors_are_retried_to_success(self):
        # The first two publishes on the query channel fail; the retry
        # loop absorbs them and the subscription activates normally.
        plan = FaultPlan().rule(
            "channel", "invalidb:queries*", "error", max_count=2
        )
        app, broker, harness = make_app(plan=plan)
        try:
            subscription = app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain()
            app.insert("items", {"_id": 1, "v": 5})
            assert broker.drain()
            assert subscription.result() == [{"_id": 1, "v": 5}]
            stats = app.client.stats()
            assert stats["publish_retries"] == 2
            assert stats["publish_failures"] == 2
            assert stats["backoff_waited"] > 0.0
            assert stats["circuit"]["state"] == CircuitBreaker.CLOSED
        finally:
            harness.close()

    def test_backoff_is_virtual_under_inline_model(self):
        # Deterministic model: backoff is recorded, never slept, and
        # the jitter comes from the seeded client RNG (reproducible).
        waited = []
        for _ in range(2):
            app, broker, harness = make_app(plan=FaultPlan().rule(
                "channel", "invalidb:writes*", "error", max_count=3
            ))
            try:
                app.insert("items", {"_id": 1, "v": 1})
                waited.append(app.client.stats()["backoff_waited"])
            finally:
                harness.close()
        assert waited[0] == waited[1] > 0.0

    def test_exhausted_retries_raise_the_last_error(self):
        plan = FaultPlan().rule("channel", "invalidb:writes*", "error")
        app, broker, harness = make_app(plan=plan, publish_max_retries=2)
        try:
            with pytest.raises(InjectedFaultError):
                app.insert("items", {"_id": 1, "v": 1})
            stats = app.client.stats()
            assert stats["publish_retries"] == 2
            assert stats["publish_failures"] == 3  # initial + 2 retries
        finally:
            harness.close()

    def test_retry_disabled_fails_fast(self):
        plan = FaultPlan().rule(
            "channel", "invalidb:writes*", "error", max_count=1
        )
        app, broker, harness = make_app(plan=plan, publish_max_retries=0)
        try:
            with pytest.raises(InjectedFaultError):
                app.insert("items", {"_id": 1, "v": 1})
            assert app.client.stats()["publish_retries"] == 0
        finally:
            harness.close()

    def test_operation_timeout(self):
        # A deadline tighter than one backoff period: the second
        # failure lands past the deadline and surfaces as a timeout.
        plan = FaultPlan().rule("channel", "invalidb:writes*", "error")
        app, broker, harness = make_app(
            plan=plan, publish_timeout=1e-9, publish_max_retries=10
        )
        try:
            with pytest.raises(OperationTimeoutError) as excinfo:
                app.insert("items", {"_id": 1, "v": 1})
            assert excinfo.value.operation == "write"
            assert app.client.stats()["publish_timeouts"] == 1
        finally:
            harness.close()


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(threshold=3, reset_interval=5.0)
        assert breaker.allow(0.0)
        for _ in range(3):
            breaker.record_failure(10.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(11.0)  # still cooling down
        assert breaker.stats()["rejections"] == 1
        assert breaker.allow(15.0)  # past reset: half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure(15.0)  # probe failed: re-open at once
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert breaker.allow(20.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_breaker_trips_and_rejects_operations(self):
        clock = ManualClock()
        plan = FaultPlan().rule("channel", "invalidb:writes*", "error")
        app, broker, harness = make_app(
            plan=plan, clock=clock,
            publish_max_retries=1, circuit_breaker_threshold=2,
            circuit_breaker_reset=60.0,
        )
        try:
            with pytest.raises(InjectedFaultError):
                app.insert("items", {"_id": 1, "v": 1})
            assert app.client.stats()["circuit"]["state"] == (
                CircuitBreaker.OPEN
            )
            # While open, operations are rejected without touching the
            # broker at all.
            with pytest.raises(CircuitOpenError):
                app.insert("items", {"_id": 2, "v": 2})
        finally:
            harness.close()

    def test_half_open_probe_recovers(self):
        clock = ManualClock()
        plan = FaultPlan().rule(
            "channel", "invalidb:writes*", "error", max_count=2
        )
        app, broker, harness = make_app(
            plan=plan, clock=clock,
            publish_max_retries=0, circuit_breaker_threshold=2,
            circuit_breaker_reset=30.0,
        )
        try:
            for key in (1, 2):
                with pytest.raises(InjectedFaultError):
                    app.insert("items", {"_id": key, "v": key})
            assert app.client.stats()["circuit"]["state"] == (
                CircuitBreaker.OPEN
            )
            clock.advance(31.0)  # cooldown over: probe allowed
            app.insert("items", {"_id": 3, "v": 3})
            assert app.client.stats()["circuit"]["state"] == (
                CircuitBreaker.CLOSED
            )
        finally:
            harness.close()

    def test_open_breaker_terminates_subscriptions_via_heartbeat(self):
        clock = ManualClock()
        plan = FaultPlan().rule(
            "channel", "invalidb:writes*", "error", after=1
        )
        app, broker, harness = make_app(
            plan=plan, clock=clock,
            publish_max_retries=1, circuit_breaker_threshold=2,
            circuit_breaker_reset=300.0,
        )
        try:
            seen = Collector()
            subscription = app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
            assert broker.drain()
            app.insert("items", {"_id": 1, "v": 1})  # clean publish
            assert broker.drain()
            with pytest.raises(InjectedFaultError):
                app.insert("items", {"_id": 2, "v": 2})
            assert not app.client.check_heartbeat()
            errors = [
                n for n in seen
                if n.match_type is MatchType.ERROR
            ]
            assert errors and "circuit breaker" in errors[-1].error
            assert subscription.closed
        finally:
            harness.close()


class TestThreadedBreaker:
    """The breaker on real threads and wall-clock cooldowns."""

    def test_breaker_trips_rejects_fast_probes_and_closes(self):
        # Fail the first write publishes hard (every attempt, retries
        # included), then stop: the breaker trips, cools down, probes
        # half-open and closes on the first clean publish.
        plan = FaultPlan(seed=5).rule(
            "channel", "invalidb:writes*", "error", max_count=12,
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            circuit_breaker_threshold=3,
            circuit_breaker_reset=0.05,
            publish_max_retries=1,
            publish_backoff_base=0.001,
            publish_backoff_max=0.002,
            client_rng_seed=5,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("breaker-app", broker, config=config)
        client = app.client
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            assert cluster.drain(timeout=10.0)
            failed = 0
            for i in range(40):
                try:
                    app.insert("items", {"_id": i, "v": i})
                except InjectedFaultError:
                    failed += 1
                if client._breaker.state == CircuitBreaker.OPEN:
                    break
            assert client._breaker.stats()["trips"] >= 1
            assert failed > 0
            # An open breaker rejects at once, without the broker.
            with pytest.raises(CircuitOpenError):
                app.insert("items", {"_id": 1000, "v": 1})
            # Each cooldown earns one half-open probe; early probes may
            # still hit leftover faults and re-open, but the rule's
            # max_count drains and the first clean probe closes.
            for i in range(40, 80):
                time.sleep(config.circuit_breaker_reset + 0.02)
                try:
                    app.insert("items", {"_id": i, "v": i})
                except (InjectedFaultError, CircuitOpenError):
                    pass
                if client._breaker.state == CircuitBreaker.CLOSED:
                    break
            assert client._breaker.state == CircuitBreaker.CLOSED
            assert client._breaker.stats()["rejections"] >= 1
            # The writes the broker refused never reached the cluster:
            # a resubscribe reconciles the handle with the database.
            assert cluster.drain(timeout=10.0)
            client.resubscribe_all()
            assert cluster.drain(timeout=10.0)
            expected = sorted(app.find("items", {"v": {"$gte": 0}}),
                              key=lambda d: d["_id"])
            deadline = time.monotonic() + 8.0
            while (sorted(flat.result(), key=lambda d: d["_id"]) != expected
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert sorted(flat.result(), key=lambda d: d["_id"]) == expected
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
