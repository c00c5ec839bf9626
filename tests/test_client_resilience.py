"""A publish the event layer refuses: raise, count, resync.

The paper's event layer is an at-most-once pub/sub, and its app server
recovers through heartbeats and renewals (Section 5.1/5.2).  The client
has no retry loop of its own: a refused publish is counted in
``publish_failures`` and re-raised to the caller.  Before it raises,
every query the lost message leaves the cluster behind on gets a resync
queued on the timer heap (a renewal at the query's slack plus each
handle's catch-up delta):

* a lost write: the client's queries on the write's collection (the
  store already holds the write, the cluster never saw it);
* a lost subscribe or renewal: that query (a rejected subscribe also
  takes its handle back, the caller never got it);
* a lost cancel or TTL extension, or a closed broker: nothing (the
  query expires by TTL; the next round re-sends the extension).

The resync never runs inside the failing call.  It waits
``renewal_min_interval``, and at least one ``heartbeat_interval``, and
inline only ``advance()`` fires it — so a fault that never clears costs
one attempt per period, and ``drain()`` still quiesces.
"""

import random
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.errors import BrokerClosedError, InjectedFaultError
from repro.event.broker import Broker
from repro.event.channels import query_channel
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan

SEEDS = [1, 2, 3, 4, 5]
FILTERS = [{"v": {"$gte": 50}}, {"v": {"$lt": 30}}, {"tag": "a"}]
SORT = [("v", -1), ("_id", 1)]


class Stack:
    """One inline cluster + app server, torn down in reverse order."""

    def __init__(self, plan=None, seed=1, **overrides):
        self.model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
        )
        self.broker = Broker(execution=self.model)
        self.config = InvaliDBConfig(
            query_partitions=2, write_partitions=2, **overrides
        )
        self.cluster = InvaliDBCluster(self.broker, self.config).start()
        self.app = AppServer("resil-app", self.broker, config=self.config)
        self.client = self.app.client
        self.filters = {}

    def subscribe(self, filter_doc, is_sorted):
        if is_sorted:
            handle = self.app.subscribe("items", filter_doc, sort=SORT,
                                        limit=3)
        else:
            handle = self.app.subscribe("items", filter_doc)
        self.filters[handle.subscription_id] = filter_doc
        return handle

    def expected(self, handle):
        filter_doc = self.filters[handle.subscription_id]
        if handle.query.is_sorted:
            return self.app.find("items", filter_doc, sort=SORT, limit=3)
        return sorted(self.app.find("items", filter_doc),
                      key=lambda doc: doc["_id"])

    def actual(self, handle):
        if handle.query.is_sorted:
            return handle.result()
        return sorted(handle.result(), key=lambda doc: doc["_id"])

    def past_the_interval(self):
        """Advance virtual time past the queued resync's wait."""
        config = self.config
        self.model.advance(
            max(config.renewal_min_interval, config.heartbeat_interval) + 0.5
        )
        assert self.broker.drain()

    def close(self):
        self.app.close()
        self.cluster.stop()
        self.broker.close()
        self.model.shutdown()


def random_write(stack, rng, keys):
    """One insert, update or delete on ``items``."""
    key = rng.randrange(12)
    if key not in keys:
        keys.add(key)
        return stack.app.insert("items", {
            "_id": key, "v": rng.randrange(100), "tag": rng.choice("ab"),
        })
    if rng.random() < 0.2:
        keys.discard(key)
        return stack.app.delete("items", key)
    return stack.app.update("items", key, {"$set": {"v": rng.randrange(100)}})


def pending_resyncs(client):
    return {query_id for query_id, entry in client._entries.items()
            if entry.pending_renewal is not None}


class TestRejectedWritePublish:
    """A rejected write leaves the store ahead of the cluster; the
    resync of the collection's queries repairs every handle."""

    @pytest.mark.parametrize("is_sorted", [False, True],
                             ids=["unsorted", "sorted"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_handles_converge_once_the_fault_clears(self, seed, is_sorted):
        rng = random.Random(seed)
        lost = rng.randint(2, 5)
        plan = FaultPlan(seed=seed).rule(
            "channel", "invalidb:writes*", "error", max_count=lost
        )
        stack = Stack(plan, seed=seed)
        try:
            handles = [stack.subscribe(f, is_sorted) for f in FILTERS]
            elsewhere = stack.app.subscribe("other", {"v": {"$gte": 0}})
            assert stack.broker.drain()
            keys = set()
            for _ in range(lost):
                with pytest.raises(InjectedFaultError):
                    random_write(stack, rng, keys)
            assert stack.client.stats()["publish_failures"] == lost
            # Queued, not run: drain() leaves it, the cluster saw no
            # renewal, and the other collection's query is untouched.
            assert stack.broker.drain()
            assert pending_resyncs(stack.client) == {
                handle.query.query_id for handle in handles
            }
            assert stack.cluster.snapshot()["queries_renewed"] == 0
            for _ in range(20):
                random_write(stack, rng, keys)
            assert stack.broker.drain()
            stack.past_the_interval()
            assert pending_resyncs(stack.client) == set()
            for handle in handles:
                assert stack.actual(handle) == stack.expected(handle)
            assert elsewhere.result() == []
            assert stack.client.stats()["publish_failures"] == lost
            assert stack.client.stats()["resubscribes"] == 0
        finally:
            stack.close()


class TestRejectedSubscribePublish:
    @pytest.mark.parametrize("is_sorted", [False, True],
                             ids=["unsorted", "sorted"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_handles_converge_once_the_fault_clears(self, seed, is_sorted):
        """The first subscribe goes through, the next ones are refused:
        a refused subscribe raises and leaves no handle behind, and a
        refused one of a live query resyncs that query."""
        rng = random.Random(seed)
        plan = FaultPlan(seed=seed).rule(
            "channel", "invalidb:queries*", "error", after=1,
            max_count=len(FILTERS),
        )
        stack = Stack(plan, seed=seed)
        try:
            keys = set()
            for _ in range(8):
                random_write(stack, rng, keys)
            handles = [stack.subscribe(FILTERS[0], is_sorted)]
            for filter_doc in FILTERS:  # the first one is live already
                with pytest.raises(InjectedFaultError):
                    stack.subscribe(filter_doc, is_sorted)
            client = stack.client
            assert client.stats()["publish_failures"] == len(FILTERS)
            assert client.subscription_count == 1
            assert set(client._entries) == {handles[0].query.query_id}
            assert pending_resyncs(client) == {handles[0].query.query_id}
            for _ in range(10):
                random_write(stack, rng, keys)
            handles += [stack.subscribe(f, is_sorted) for f in FILTERS[1:]]
            for _ in range(10):
                random_write(stack, rng, keys)
            assert stack.broker.drain()
            stack.past_the_interval()
            assert client.subscription_count == len(handles)
            for handle in handles:
                assert stack.actual(handle) == stack.expected(handle)
        finally:
            stack.close()

    def test_a_rejected_renewal_is_resynced(self):
        plan = FaultPlan().rule(
            "channel", "invalidb:queries*", "error", after=1, max_count=1
        )
        stack = Stack(plan)
        try:
            handle = stack.subscribe(FILTERS[0], is_sorted=True)
            query_id = handle.query.query_id
            with pytest.raises(InjectedFaultError):
                stack.client.renew(query_id)
            grown = stack.client._entries[query_id].slack
            assert pending_resyncs(stack.client) == {query_id}
            rng, keys = random.Random(7), set()
            for _ in range(15):
                random_write(stack, rng, keys)
            stack.past_the_interval()
            assert stack.cluster.snapshot()["queries_renewed"] == 1
            assert stack.client._entries[query_id].slack == grown
            assert stack.actual(handle) == stack.expected(handle)
        finally:
            stack.close()


class TestNothingToRepair:
    def test_lost_cancel_and_ttl_extension_queue_nothing(self):
        plan = FaultPlan().rule(
            "channel", "invalidb:queries*", "error", after=2
        )
        stack = Stack(plan)
        try:
            kept = stack.subscribe(FILTERS[0], is_sorted=False)
            dropped = stack.subscribe(FILTERS[1], is_sorted=False)
            with pytest.raises(InjectedFaultError):
                stack.app.unsubscribe(dropped)
            with pytest.raises(InjectedFaultError):
                stack.client.extend_ttls()
            assert set(stack.client._entries) == {kept.query.query_id}
            assert pending_resyncs(stack.client) == set()
            assert stack.client.stats()["publish_failures"] == 2
        finally:
            stack.close()

    def test_one_refused_publish_does_not_end_a_round(self):
        """A TTL round and resubscribe_all() send every query's message
        past a refused one, then raise the refusal."""
        plan = FaultPlan().rule(
            "channel", "invalidb:queries*", "error", at=[3, 6]
        )
        stack = Stack(plan)
        try:
            sent = []
            stack.broker.subscribe(query_channel(),
                                   lambda channel, message: sent.append(
                                       message["kind"]))
            handles = [stack.subscribe(f, is_sorted=False) for f in FILTERS]
            with pytest.raises(InjectedFaultError):
                stack.client.extend_ttls()  # the first one is refused
            with pytest.raises(InjectedFaultError):
                stack.client.resubscribe_all()  # the first one is refused
            assert stack.broker.drain()
            assert sent.count("ttl") == len(FILTERS) - 1
            assert sent.count("subscribe") == 2 * len(FILTERS) - 1
            assert stack.client.stats()["resubscribes"] == len(FILTERS) - 1
            assert pending_resyncs(stack.client) == {handles[0].query.query_id}
        finally:
            stack.close()

    def test_an_unsubscribe_takes_the_queued_resync_with_it(self):
        plan = FaultPlan().rule(
            "channel", "invalidb:writes*", "error", max_count=1
        )
        stack = Stack(plan)
        try:
            timers = len(stack.model._periodic)
            handle = stack.subscribe(FILTERS[0], is_sorted=False)
            with pytest.raises(InjectedFaultError):
                stack.app.insert("items", {"_id": 1, "v": 60})
            assert len(stack.model._periodic) == timers + 1
            stack.app.unsubscribe(handle)
            stack.past_the_interval()
            assert len(stack.model._periodic) == timers
            assert stack.cluster.snapshot()["queries_renewed"] == 0
        finally:
            stack.close()

    def test_a_closed_broker_queues_nothing(self):
        stack = Stack()
        try:
            stack.subscribe(FILTERS[0], is_sorted=False)
            stack.broker.close()
            with pytest.raises(BrokerClosedError):
                stack.app.insert("items", {"_id": 1, "v": 60})
            assert stack.client.stats()["publish_failures"] == 1
            assert pending_resyncs(stack.client) == set()
        finally:
            stack.close()


class TestFaultThatNeverClears:
    def test_zero_interval_costs_one_attempt_per_period(self):
        """With no rate limit and a fault that never clears, nothing
        recurses or loops: the failing call returns, drain() quiesces,
        and advance() tries the resync once per heartbeat interval."""
        plan = (FaultPlan()
                .rule("channel", "invalidb:writes*", "error")
                .rule("channel", "invalidb:queries*", "error", after=1))
        stack = Stack(plan, renewal_min_interval=0.0)
        try:
            handle = stack.subscribe(FILTERS[0], is_sorted=True)
            assert stack.broker.drain()
            with pytest.raises(InjectedFaultError):
                stack.app.insert("items", {"_id": 1, "v": 60})
            assert stack.broker.drain()
            assert pending_resyncs(stack.client) == {handle.query.query_id}
            periods = 10
            stack.model.advance(periods * stack.config.heartbeat_interval)
            attempts = stack.client.stats()["publish_failures"] - 1
            assert 1 <= attempts <= periods
            assert handle.result() == []
            stack.model.fault_injector.disarm()
            stack.past_the_interval()
            assert handle.result() == [{"_id": 1, "v": 60}]
            assert pending_resyncs(stack.client) == set()
        finally:
            stack.close()


class TestThreadedConvergence:
    """The same repair on real threads and wall-clock timers."""

    def test_rejected_writes_converge_without_a_resubscribe(self):
        lost = 12
        plan = FaultPlan(seed=5).rule(
            "channel", "invalidb:writes*", "error", max_count=lost,
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            heartbeat_interval=0.05, renewal_min_interval=0.05,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("threaded-app", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=SORT, limit=3)
            assert cluster.drain(timeout=10.0)
            failed = 0
            for i in range(40):
                try:
                    app.insert("items", {"_id": i, "v": (i * 37) % 100})
                except InjectedFaultError:
                    failed += 1
            assert failed == lost
            assert app.client.stats()["publish_failures"] == lost

            def converged():
                every = sorted(app.find("items", {"v": {"$gte": 0}}),
                               key=lambda doc: doc["_id"])
                return (sorted(flat.result(), key=lambda doc: doc["_id"])
                        == every
                        and top.result() == app.find("items", {}, sort=SORT,
                                                     limit=3))

            deadline = time.monotonic() + 8.0
            while not converged() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert converged()
            assert app.client.stats()["resubscribes"] == 0
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
