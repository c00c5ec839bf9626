"""Heartbeat supervision and TTL extension on the execution model's timers.

"In the absence of heartbeat messages, an application server terminates
an affected subscription with an error that can be handled by the
subscribed clients" (Section 5.1).  The cluster heartbeats and sweeps
on ``every(heartbeat_interval)``; the client checks for silence on
``every(heartbeat_interval)`` and extends its queries' TTLs on
``every(ttl_extension_interval)``.  Nobody calls ``check_heartbeat``,
``publish_heartbeat`` or ``extend_ttls`` here.

The inline scenarios are seeded and sleep-free: virtual time moves only
under ``advance()``, which fires each timer once per period boundary it
crosses.  Heartbeat arrival is recorded on the client's own timer clock,
so a skewed cluster clock neither kills healthy subscriptions nor hides
an outage.
"""

import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import NOTIFY_PREFIX
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan
from repro.types import MatchType

from tests.conftest import Collector

INTERVAL = 0.5
TIMEOUT = 2.0
QUERIES = (
    ({"v": {"$gte": 2}}, None, None),
    ({"v": {"$gte": 2}}, None, None),  # a second handle, same query
    ({}, [("v", -1)], 3),
)


def errors_of(seen):
    """The error notifications an ``on_change`` collector received."""
    return [n for n in seen if n.match_type is MatchType.ERROR]


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class InlineStack:
    """One inline model under broker, cluster and one app server; the
    notify-channel drop rule starts disarmed, the cluster's clock runs
    *skew* seconds off virtual time."""

    def __init__(self, seed, skew=0.0):
        plan = FaultPlan(seed=seed).rule(
            "channel", f"{NOTIFY_PREFIX}*", "drop")
        self.model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=seed, fault_plan=plan))
        self.faults = self.model.fault_injector
        self.faults.disarm()
        self.broker = Broker(execution=self.model)
        config = dict(query_partitions=1, write_partitions=1,
                      heartbeat_interval=INTERVAL, heartbeat_timeout=TIMEOUT,
                      subscription_ttl=3.0, ttl_extension_interval=1.0)
        cluster_config = InvaliDBConfig(
            **config, clock=lambda: self.model.virtual_now + skew)
        self.cluster = InvaliDBCluster(self.broker, cluster_config).start()
        self.app = AppServer("app", self.broker, config=InvaliDBConfig(**config))

    def subscribe_all(self):
        """One handle per query, and the collector of each."""
        seen = [Collector() for _ in QUERIES]
        handles = [self.app.subscribe("items", dict(flt), sort=sort,
                                      limit=limit, on_change=collector)
                   for (flt, sort, limit), collector in zip(QUERIES, seen)]
        return handles, seen

    def close(self):
        self.app.close()
        self.cluster.stop()
        self.broker.close()
        self.model.shutdown()


@pytest.mark.parametrize(("seed", "skew"), [(1, 0.0), (2, -10.0), (3, 10.0)])
def test_inline_heartbeat_outage_errors_every_handle_once(seed, skew):
    """A cluster clock *skew* seconds off the client's changes nothing:
    freshness is measured at arrival, on the client's clock."""
    stack = InlineStack(seed, skew)
    app, model = stack.app, stack.model
    try:
        for key in range(6):
            app.insert("items", {"_id": key, "v": key})
        handles, seen = stack.subscribe_all()
        assert stack.broker.drain()
        model.advance(3 * TIMEOUT)  # heartbeats flowing: healthy
        assert app.client.last_heartbeat == model.virtual_now
        assert not any(errors_of(collector) for collector in seen)
        # Outage: the cluster keeps heartbeating, nothing arrives.
        stack.faults.arm()
        app.update("items", 4, {"$set": {"v": 0}})
        app.insert("items", {"_id": 9, "v": 9})
        app.delete("items", 5)
        model.advance(TIMEOUT)  # silent for exactly the timeout: patience
        assert not any(errors_of(collector) for collector in seen)
        # The next check (one interval later) sees the silence.
        model.advance(INTERVAL)
        for handle, collector in zip(handles, seen):
            assert len(errors_of(collector)) == 1
            assert "heartbeat" in errors_of(collector)[0].error
            assert handle.closed
        model.advance(3 * TIMEOUT)  # later checks do not repeat it
        assert all(len(errors_of(collector)) == 1 for collector in seen)
        # The fault clears: resubscribing converges every handle.
        stack.faults.disarm()
        assert app.client.resubscribe_all() == 2
        assert stack.broker.drain()
        for handle, (flt, sort, limit) in zip(handles, QUERIES):
            assert handle.result() == app.find(
                "items", dict(flt), sort=sort, limit=limit)
    finally:
        stack.close()


def test_terminated_handles_stop_receiving_and_extending():
    """A handle the heartbeat check terminated gets no more changes, and
    its query gets no more TTL extensions, until ``resubscribe_all``."""
    stack = InlineStack(seed=1)
    app, client = stack.app, stack.app.client
    try:
        handle = app.subscribe("items", {"v": {"$gte": 0}})
        stack.model.advance(INTERVAL)  # one heartbeat arrives
        assert client.extend_ttls() == 1
        assert not client.check_heartbeat(
            now=client.last_heartbeat + TIMEOUT + 1)
        assert handle.closed
        count = handle.change_count
        app.insert("items", {"_id": 1, "v": 1})
        assert stack.broker.drain()
        assert handle.change_count == count
        assert client.extend_ttls() == 0
        # Resubscribing reopens the handle with its catch-up delta.
        client.resubscribe_all()
        assert stack.broker.drain()
        assert not handle.closed
        assert handle.result() == app.find("items", {"v": {"$gte": 0}})
        assert client.extend_ttls() == 1
    finally:
        stack.close()


def test_unsubscribing_terminated_handles_cancels_their_query():
    stack = InlineStack(seed=2)
    app, client = stack.app, stack.app.client
    try:
        first = app.subscribe("items", {"v": 1})
        second = app.subscribe("items", {"v": 1})
        stack.model.advance(INTERVAL)
        assert not client.check_heartbeat(
            now=client.last_heartbeat + TIMEOUT + 1)
        app.unsubscribe(first)
        assert stack.broker.drain()
        assert len(stack.cluster.active_query_ids()) == 1
        app.unsubscribe(second)  # the last handle: the query is cancelled
        assert stack.broker.drain()
        assert stack.cluster.active_query_ids() == []
        assert client.stats()["stale_notifications_skipped"] == 0
        assert client._entries == {}
    finally:
        stack.close()


@pytest.mark.parametrize("skew", [-10.0, 10.0])
def test_threaded_heartbeat_freshness_ignores_cluster_clock_skew(skew):
    model = ThreadedExecutionModel()
    broker = Broker(execution=model)
    timing = dict(query_partitions=1, write_partitions=1,
                  heartbeat_interval=0.05, heartbeat_timeout=0.5)
    cluster = InvaliDBCluster(broker, InvaliDBConfig(
        **timing, clock=lambda: time.time() + skew)).start()
    app = AppServer("app", broker, config=InvaliDBConfig(**timing))
    try:
        seen = Collector()
        handle = app.subscribe("items", {"v": 1}, on_change=seen)
        assert wait_for(lambda: app.client.last_heartbeat is not None)
        time.sleep(1.0)  # two timeouts of healthy heartbeats
        assert not errors_of(seen)
        cluster.stop()
        assert wait_for(lambda: handle.closed)
        assert len(errors_of(seen)) == 1
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def test_threaded_heartbeat_loss_errors_handles_unprompted():
    """Nobody calls ``check_heartbeat``: the client's own timer sees
    the silence once the cluster stops."""
    model = ThreadedExecutionModel()
    broker = Broker(execution=model)
    config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                            heartbeat_interval=0.05, heartbeat_timeout=0.3)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("app", broker, config=config)
    try:
        seen = [Collector(), Collector()]
        handles = [app.subscribe("items", {"v": {"$gte": 0}},
                                 on_change=seen[0]),
                   app.subscribe("items", {}, sort=[("v", 1)], limit=2,
                                 on_change=seen[1])]
        assert wait_for(lambda: app.client.last_heartbeat is not None)
        cluster.stop()
        assert wait_for(lambda: all(handle.closed for handle in handles))
        for collector in seen:
            (error,) = errors_of(collector)
            assert "heartbeat" in error.error
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def test_inline_ttl_extension_keeps_queries_alive_on_virtual_time():
    stack = InlineStack(seed=1)
    try:
        stack.app.subscribe("items", {"v": 1})
        stack.model.advance(10.0)  # > 3 TTLs, swept every heartbeat
        assert len(stack.cluster.active_query_ids()) == 1
        stack.app.client._ttl_timer.cancel()
        stack.model.advance(3.0 + INTERVAL)
        assert stack.cluster.active_query_ids() == []
    finally:
        stack.close()
