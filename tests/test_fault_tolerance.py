"""Failure-domain isolation and recovery tests (Section 5).

"By thus decoupling the real-time query workload from the main
application logic, even overburdening the real-time component cannot
take down the OLTP system: in the worst-case scenario, the InvaliDB
cluster is taken down and requests sent against the event layer remain
unanswered."

All scenarios but :class:`TestThreadedRecovery` run on the
deterministic :class:`InlineExecutionModel`: outages, restarts and
heartbeat supervision are driven step by step (``drain()``,
``publish_heartbeat()``) instead of being raced against wall-clock
timers.
"""

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan
from repro.types import MatchType

from tests.conftest import Collector


@pytest.fixture
def inline_broker():
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=11))
    broker = Broker(execution=model)
    yield broker
    broker.close()
    model.shutdown()


def _ids(documents):
    return [document["_id"] for document in documents]


class TestIsolatedFailureDomain:
    def test_oltp_survives_cluster_outage(self, inline_broker):
        """Pull-based reads and writes keep working with the real-time
        component down; its requests simply go unanswered."""
        broker = inline_broker
        config = InvaliDBConfig(query_partitions=2, write_partitions=2)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        try:
            subscription = app.subscribe("items", {"v": {"$gte": 0}})
            app.insert("items", {"_id": 1, "v": 1})
            assert broker.drain()
            assert subscription.change_count == 1

            cluster.stop()  # the real-time component dies

            # OLTP path: fully functional.
            app.insert("items", {"_id": 2, "v": 2})
            app.update("items", 1, {"$set": {"v": 10}})
            assert len(app.find("items", {})) == 2
            assert app.find("items", {"v": 10})[0]["_id"] == 1
            # Push path: silent (no crash, no notification).
            assert broker.drain()
            assert subscription.change_count == 1
        finally:
            app.close()
            cluster.stop()

    def test_subscribing_against_dead_cluster_does_not_block(
            self, inline_broker):
        broker = inline_broker
        config = InvaliDBConfig(query_partitions=1, write_partitions=1)
        cluster = InvaliDBCluster(broker, config).start()
        cluster.stop()
        app = AppServer("app-1", broker, config=config)
        try:
            subscription = app.subscribe("items", {"v": 1})
            # The initial result comes from the database, synchronously.
            assert subscription.initial is not None
            assert subscription.initial.documents == []
        finally:
            app.close()


class TestRecovery:
    def test_resubscribe_all_after_cluster_restart(self, inline_broker):
        """After a cluster replacement, re-subscription restores push
        delivery and the sorting stage emits catch-up deltas."""
        broker = inline_broker
        config = InvaliDBConfig(query_partitions=2, write_partitions=2)
        first = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        try:
            for index in range(6):
                app.insert("articles", {"_id": index, "year": 2000 + index})
            assert broker.drain()
            flat_seen, sorted_seen = Collector(), Collector()
            app.subscribe("articles", {"year": {"$gte": 2003}},
                          on_change=flat_seen)
            sorted_sub = app.subscribe("articles", {}, sort=[("year", -1)],
                                       limit=3, on_change=sorted_seen)
            assert broker.drain()
            first.stop()

            # Writes during the outage are missed by the push path...
            app.insert("articles", {"_id": 100, "year": 2050})
            assert broker.drain()
            assert not any(n.key == 100 for n in sorted_seen)

            # ...until a fresh cluster comes up and the client
            # re-subscribes.
            second = InvaliDBCluster(broker, config).start()
            try:
                assert app.client.resubscribe_all() == 2
                assert broker.drain()
                # The sorted subscription received the catch-up delta:
                # the 2050 article entered its window during
                # re-registration.
                assert any(n.key == 100 for n in sorted_seen)
                # New writes flow again for both subscriptions.
                app.insert("articles", {"_id": 101, "year": 2060})
                assert broker.drain()
                assert any(n.key == 101 for n in flat_seen)
                assert any(n.key == 101 for n in sorted_seen)
                assert [d["_id"] for d in sorted_sub.result()] == [
                    101, 100, 5
                ]
                assert _ids(sorted_sub.result()) == _ids(app.find(
                    "articles", {}, sort=[("year", -1)], limit=3
                ))
            finally:
                second.stop()
        finally:
            app.close()
            first.stop()

    @staticmethod
    def _reorder_during_outage(seed):
        """Sorted window [x, a, b]; while the cluster is down b moves
        3 -> 2.5 and x moves 1 -> 9, so the fresh window is [a, b, x]:
        a, the one survivor whose document did not change, is displaced
        by the moves around it.  Returns (result ids, pull-query ids,
        notification transcript)."""
        model = InlineExecutionModel(ExecutionConfig(mode="inline",
                                                     seed=seed))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1)
        first = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        second = None
        try:
            for key, score in (("x", 1), ("a", 2), ("b", 3)):
                app.insert("items", {"_id": key, "score": score})
            assert broker.drain()
            seen = Collector()
            sub = app.subscribe("items", {}, sort=[("score", 1)], limit=3,
                                on_change=seen)
            assert broker.drain()
            assert _ids(sub.result()) == ["x", "a", "b"]
            first.stop()

            app.update("items", "b", {"$set": {"score": 2.5, "seen": True}})
            app.update("items", "x", {"$set": {"score": 9}})
            assert broker.drain()
            assert sub.change_count == 0

            second = InvaliDBCluster(broker, config).start()
            assert app.client.resubscribe_all() == 1
            assert broker.drain()
            return (
                _ids(sub.result()),
                _ids(app.find("items", {}, sort=[("score", 1)], limit=3)),
                [(n.match_type, n.key, n.index, n.old_index)
                 for n in seen],
            )
        finally:
            app.close()
            first.stop()
            if second is not None:
                second.stop()
            broker.close()
            model.shutdown()

    def test_resubscribe_all_restores_sorted_order(self):
        """Regression: the client's private catch-up diff repositioned
        only documents that changed, so after an outage a sorted
        subscription could hold the right members in the wrong order
        (here ['b', 'a', 'x'] against a pull result of
        ['a', 'b', 'x'])."""
        result, pulled, transcript = self._reorder_during_outage(seed=11)
        assert pulled == ["a", "b", "x"]
        assert result == pulled
        # Fixed seed, run twice: the catch-up delta is deterministic.
        assert self._reorder_during_outage(seed=11) == (
            result, pulled, transcript
        )

    def test_heartbeat_detects_outage_then_resubscribe_recovers(
            self, inline_broker):
        """Deterministic models run no heartbeat thread; the supervision
        path is driven explicitly via :meth:`publish_heartbeat`."""
        broker = inline_broker
        config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                heartbeat_interval=0.05,
                                heartbeat_timeout=0.5)
        first = InvaliDBCluster(broker, config).start()
        app = AppServer("hb-app", broker, config=config)
        try:
            seen = Collector()
            app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
            assert first.publish_heartbeat() >= 1
            assert app.client.last_heartbeat is not None
            first.stop()
            # Heartbeats stop; supervision flags the outage.
            assert not app.client.check_heartbeat(
                now=app.client.last_heartbeat + 5.0
            )
            assert seen[-1].is_error
        finally:
            app.close()
            first.stop()


class TestThreadedRecovery:
    def test_resubscribe_all_while_the_cluster_survives(self):
        """The threaded twin of the reorder regression, with the SAME
        cluster on the other end: a partition (every write message
        dropped) instead of a crash.  The surviving cluster still holds
        the pre-outage window, so its renewal delta (last valid window
        -> fresh bootstrap) arrives on top of the client's own catch-up
        delta; applying both must leave the subscription on the pull
        result — ``_apply`` is idempotent."""
        plan = FaultPlan(seed=11).rule(
            "channel", "invalidb:writes*", "drop", probability=1.0
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        model.fault_injector.disarm()
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        try:
            for key, score in (("x", 1), ("a", 2), ("b", 3)):
                app.insert("items", {"_id": key, "score": score})
            seen = Collector()
            sub = app.subscribe("items", {}, sort=[("score", 1)], limit=3,
                                on_change=seen)
            assert broker.drain(timeout=10.0)
            assert _ids(sub.result()) == ["x", "a", "b"]

            model.fault_injector.arm()
            app.update("items", "b", {"$set": {"score": 2.5, "seen": True}})
            app.update("items", "x", {"$set": {"score": 9}})
            assert broker.drain(timeout=10.0)
            model.fault_injector.disarm()
            assert sub.change_count == 0

            assert app.client.resubscribe_all() == 1
            assert broker.drain(timeout=10.0)
            expected = app.find("items", {}, sort=[("score", 1)], limit=3)
            assert _ids(expected) == ["a", "b", "x"]
            assert sub.result() == expected
            # Both deltas arrived: the client's own and the cluster's.
            moves = [n for n in seen
                     if n.match_type is MatchType.CHANGE_INDEX]
            assert len(moves) == 2 * 3
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
