"""Coverage for auxiliary paths: background pollers, renewal timers,
experiment helpers."""

import time

import pytest

from repro.core.config import InvaliDBConfig
from repro.baselines.poll_and_diff import PollAndDiffProvider
from repro.store.collection import Collection

from tests.conftest import settle


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestPollAndDiffBackgroundThread:
    def test_background_poller_delivers(self):
        collection = Collection("bg")
        provider = PollAndDiffProvider(collection, poll_interval=0.05)
        subscription = provider.subscribe({"v": {"$gte": 0}})
        provider.start()
        try:
            collection.insert({"_id": 1, "v": 1})
            assert wait_for(lambda: subscription.change_count >= 1)
        finally:
            provider.stop()

    def test_start_is_idempotent(self):
        collection = Collection("bg2")
        provider = PollAndDiffProvider(collection, poll_interval=10.0)
        provider.start()
        provider.start()  # second start must not spawn a second thread
        provider.stop()
        provider.stop()  # double-stop is safe


class TestRateLimitedRenewalTimer:
    def test_suppressed_renewal_fires_later(self, broker, cluster_factory,
                                            app_server_factory):
        """A renewal blocked by the poll-frequency limit is retried
        automatically once the interval elapsed."""
        cluster = cluster_factory(1, 1, default_slack=1,
                                  renewal_min_interval=0.3)
        config = InvaliDBConfig(default_slack=1, renewal_min_interval=0.3)
        app = app_server_factory("timer-app", config=config)
        for index in range(12):
            app.insert("articles", {"_id": index, "year": 2000 + index})
        settle(cluster, broker)
        subscription = app.subscribe("articles", {}, sort=[("year", -1)],
                                     limit=3)
        # Burn the renewal budget, then exhaust slack repeatedly so at
        # least one renewal lands in the rate-limited window.
        for key in (11, 10, 9, 8, 7, 6):
            app.delete("articles", key)
            time.sleep(0.05)
        settle(cluster, broker, rounds=6)
        assert wait_for(
            lambda: [d["_id"] for d in subscription.result()] == [5, 4, 3],
            timeout=10.0,
        ), [d["_id"] for d in subscription.result()]


class TestExperimentHelpers:
    def test_max_sustainable_queries_helper(self):
        from repro.sim.experiment import max_sustainable_queries

        value = max_sustainable_queries(1, sla_ms=100.0, duration=3.0)
        assert 1000 <= value <= 2000

    def test_max_sustainable_write_rate_helper(self):
        from repro.sim.experiment import max_sustainable_write_rate

        value = max_sustainable_write_rate(1, sla_ms=100.0, duration=3.0)
        assert 1000 <= value <= 2000


class TestClusterIntrospection:
    def test_filtering_node_accessor(self, broker, cluster_factory):
        cluster = cluster_factory(2, 3)
        time.sleep(0.1)  # allow prepare() to run on all tasks
        assert cluster.matching_node_count == 6
        node = cluster.filtering_node(1, 2)
        assert node is not None
        assert node.coordinates.query_partition == 1
        assert node.coordinates.write_partition == 2
        assert cluster.filtering_node(5, 5) is None


class TestInstrumentation:
    def test_bootstrap_latency_monitoring(self, broker, cluster_factory,
                                          app_server_factory):
        """The paper monitors pull-based query latencies (Section 5.4)."""
        cluster = cluster_factory(1, 1)
        app = app_server_factory()
        for index in range(50):
            app.insert("items", {"_id": index, "v": index})
        app.subscribe("items", {"v": {"$gte": 10}})
        app.subscribe("items", {"v": {"$lt": 5}})
        stats = app.client.bootstrap_latency_stats()
        assert stats["count"] == 2
        assert stats["average"] > 0
        assert stats["maximum"] >= stats["average"]

    def test_empty_latency_stats(self, broker, cluster_factory,
                                 app_server_factory):
        cluster_factory(1, 1)
        app = app_server_factory()
        assert app.client.bootstrap_latency_stats() == {
            "count": 0, "average": 0.0, "maximum": 0.0,
        }

    def test_cluster_stats_snapshot(self, broker, cluster_factory,
                                    app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        app.subscribe("items", {"v": {"$gte": 0}})
        app.insert("items", {"_id": 1, "v": 1})
        settle(cluster, broker)
        stats = cluster.snapshot()
        assert (stats["config"]["query_partitions"],
                stats["config"]["write_partitions"]) == (2, 2)
        assert stats["active_queries"] == 1
        assert stats["app_servers"] == ["app-1"]
        assert stats["notifications_sent"] >= 1
        assert len(stats["matching"]) == 4
