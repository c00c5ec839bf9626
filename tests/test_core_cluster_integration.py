"""Integration tests: app server <-> event layer <-> InvaliDB cluster."""

import time

import pytest

from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.types import MatchType

from tests.conftest import Collector, settle


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestUnsortedQueries:
    def test_add_change_remove_lifecycle(self, broker, cluster_factory,
                                          app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        seen = Collector()
        subscription = app.subscribe("items", {"v": {"$gte": 10}},
                                     on_change=seen)
        assert subscription.initial.documents == []

        app.insert("items", {"_id": 1, "v": 15})
        app.insert("items", {"_id": 2, "v": 5})
        settle(cluster, broker)
        assert [n.match_type for n in seen] == [
            MatchType.ADD
        ]

        app.update("items", 1, {"$set": {"v": 20}})
        settle(cluster, broker)
        assert seen[-1].match_type is MatchType.CHANGE

        app.update("items", 1, {"$set": {"v": 1}})
        settle(cluster, broker)
        assert seen[-1].match_type is MatchType.REMOVE
        assert subscription.result() == []

    def test_initial_result_from_existing_data(self, broker, cluster_factory,
                                               app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        for index in range(10):
            app.insert("items", {"_id": index, "v": index})
        settle(cluster, broker)
        subscription = app.subscribe("items", {"v": {"$gte": 7}})
        assert {d["_id"] for d in subscription.initial.documents} == {7, 8, 9}

    def test_eventual_consistency_with_database(self, broker, cluster_factory,
                                                app_server_factory):
        """After quiescence the maintained result equals a fresh
        pull-based query (the paper's eventual consistency claim)."""
        cluster = cluster_factory(3, 2)
        app = app_server_factory()
        filter_doc = {"v": {"$gte": 50}, "tag": {"$ne": "skip"}}
        subscription = app.subscribe("items", filter_doc)
        import random

        rng = random.Random(7)
        live = set()
        for step in range(200):
            action = rng.random()
            if action < 0.5 or not live:
                key = step
                app.insert("items", {"_id": key, "v": rng.randrange(100),
                                     "tag": rng.choice(["keep", "skip"])})
                live.add(key)
            elif action < 0.8:
                key = rng.choice(sorted(live))
                app.update("items", key,
                           {"$set": {"v": rng.randrange(100)}})
            else:
                key = rng.choice(sorted(live))
                app.delete("items", key)
                live.discard(key)
        settle(cluster, broker, rounds=5)
        expected = {d["_id"] for d in app.find("items", filter_doc)}
        assert wait_for(
            lambda: {d["_id"] for d in subscription.result()} == expected
        ), (
            f"maintained={sorted(d['_id'] for d in subscription.result())} "
            f"expected={sorted(expected)}"
        )


class TestSortedQueries:
    def test_sorted_window_with_offset(self, broker, cluster_factory,
                                       app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        rows = [(5, 2018), (8, 2018), (3, 2017), (4, 2017), (7, 2016),
                (9, 2016)]
        for key, year in rows:
            app.insert("articles", {"_id": key, "year": year})
        settle(cluster, broker)
        subscription = app.subscribe(
            "articles", {}, sort=[("year", -1)], limit=3, offset=2
        )
        assert [d["_id"] for d in subscription.initial.documents] == [3, 4, 7]

        # Figure 3: removing an offset item shifts the window.
        app.delete("articles", 8)
        settle(cluster, broker)
        assert wait_for(
            lambda: [d["_id"] for d in subscription.result()] == [4, 7, 9]
        )

    def test_sorted_query_emits_change_index(self, broker, cluster_factory,
                                             app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        for key, year in [(1, 2016), (2, 2017), (3, 2018)]:
            app.insert("articles", {"_id": key, "year": year})
        settle(cluster, broker)
        seen = Collector()
        subscription = app.subscribe("articles", {}, sort=[("year", -1)],
                                     limit=3, on_change=seen)
        app.update("articles", 1, {"$set": {"year": 2030}})
        settle(cluster, broker)
        assert wait_for(
            lambda: any(
                n.match_type is MatchType.CHANGE_INDEX
                for n in seen
            )
        )
        assert [d["_id"] for d in subscription.result()] == [1, 3, 2]

    def test_maintenance_error_triggers_renewal(self, broker, cluster_factory,
                                                app_server_factory):
        """Slack exhaustion: the cluster requests a renewal, the client
        re-executes and re-subscribes, and the result self-heals."""
        cluster = cluster_factory(1, 1, default_slack=1,
                                  renewal_min_interval=0.0)
        config = InvaliDBConfig(default_slack=1, renewal_min_interval=0.0)
        app = app_server_factory("renewal-app", config=config)
        for index in range(10):
            app.insert("articles", {"_id": index, "year": 2000 + index})
        settle(cluster, broker)
        seen = Collector()
        subscription = app.subscribe("articles", {}, sort=[("year", -1)],
                                     limit=3, on_change=seen)
        assert [d["_id"] for d in subscription.initial.documents] == [9, 8, 7]
        # Delete enough result members to exhaust the slack of 1.
        app.delete("articles", 9)
        app.delete("articles", 8)
        app.delete("articles", 7)
        settle(cluster, broker, rounds=6)
        assert wait_for(
            lambda: [d["_id"] for d in subscription.result()] == [6, 5, 4],
            timeout=10.0,
        ), [d["_id"] for d in subscription.result()]
        assert any(n.is_error for n in seen)


class TestMultiTenancy:
    def test_two_app_servers_share_one_query(self, broker, cluster_factory,
                                             app_server_factory):
        """InvaliDB is multi-tenant: the same query subscribed from two
        app servers is matched once and fanned out to both."""
        from repro.store.database import Database

        cluster = cluster_factory(2, 2)
        shared_db = Database()
        app_a = app_server_factory("app-a", database=shared_db)
        app_b = app_server_factory("app-b", database=shared_db)
        sub_a = app_a.subscribe("items", {"v": {"$gte": 10}})
        settle(cluster, broker)
        sub_b = app_b.subscribe("items", {"v": {"$gte": 10}})
        settle(cluster, broker)
        assert len(cluster.active_query_ids()) == 1

        app_a.insert("items", {"_id": 1, "v": 50})
        settle(cluster, broker)
        assert wait_for(lambda: sub_a.change_count >= 1)
        assert wait_for(lambda: sub_b.change_count >= 1)

    def test_cancel_keeps_query_for_other_server(self, broker,
                                                 cluster_factory,
                                                 app_server_factory):
        cluster = cluster_factory(1, 1)
        app_a = app_server_factory("app-a")
        app_b = app_server_factory("app-b")
        sub_a = app_a.subscribe("items", {"v": 1})
        sub_b = app_b.subscribe("items", {"v": 1})
        settle(cluster, broker)
        app_a.unsubscribe(sub_a)
        settle(cluster, broker)
        assert len(cluster.active_query_ids()) == 1
        app_b.unsubscribe(sub_b)
        settle(cluster, broker)
        assert cluster.active_query_ids() == []


class TestSubscriptionLifecycle:
    def test_unsubscribe_stops_notifications(self, broker, cluster_factory,
                                             app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        subscription = app.subscribe("items", {"v": {"$gte": 0}})
        app.insert("items", {"_id": 1, "v": 1})
        settle(cluster, broker)
        count = subscription.change_count
        app.unsubscribe(subscription)
        settle(cluster, broker)
        app.insert("items", {"_id": 2, "v": 2})
        settle(cluster, broker)
        assert subscription.change_count == count

    def test_two_subscriptions_same_query_same_server(self, broker,
                                                      cluster_factory,
                                                      app_server_factory):
        cluster = cluster_factory(2, 2)
        app = app_server_factory()
        seen_1 = Collector()
        sub_1 = app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen_1)
        seen_2 = Collector()
        sub_2 = app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen_2)
        assert sub_1.subscription_id != sub_2.subscription_id
        app.insert("items", {"_id": 1, "v": 1})
        settle(cluster, broker)
        assert wait_for(lambda: len(seen_1) == 1)
        assert wait_for(lambda: len(seen_2) == 1)
        assert sub_1.change_count == sub_2.change_count == 1
        # Notifications are tagged per subscription (footnote 2).
        assert seen_1[0].subscription_id == sub_1.subscription_id
        assert seen_2[0].subscription_id == sub_2.subscription_id

    def test_ttl_expiry_deactivates_query(self, broker, cluster_factory,
                                          app_server_factory):
        cluster = cluster_factory(1, 1, subscription_ttl=0.2,
                                  heartbeat_interval=0.05,
                                  heartbeat_timeout=10.0)
        app = app_server_factory()
        app.subscribe("items", {"v": 1})
        settle(cluster, broker)
        assert len(cluster.active_query_ids()) == 1
        # No TTL extensions: the reaper must deactivate the query.
        assert wait_for(lambda: cluster.active_query_ids() == [], timeout=5.0)

    def test_ttl_extension_keeps_query_alive(self, broker, cluster_factory,
                                             app_server_factory):
        cluster = cluster_factory(1, 1, subscription_ttl=0.4,
                                  heartbeat_interval=0.05,
                                  heartbeat_timeout=10.0)
        app = app_server_factory()
        app.subscribe("items", {"v": 1})
        settle(cluster, broker)
        for _ in range(6):
            time.sleep(0.1)
            app.client.extend_ttls()
        assert len(cluster.active_query_ids()) == 1

    def test_live_subscription_outlives_its_ttl(self, broker,
                                                cluster_factory,
                                                app_server_factory):
        """Regression: nothing ever called ``extend_ttls()``, so under
        the threaded model every subscription silently died after
        ``subscription_ttl`` — handle open, no error, no more changes.
        A threaded client extends on its own."""
        cluster = cluster_factory(1, 1, subscription_ttl=1.0,
                                  ttl_extension_interval=0.25,
                                  heartbeat_interval=0.1)
        app = app_server_factory(config=cluster.config)
        subscription = app.subscribe("items", {"v": {"$gte": 0}})
        app.insert("items", {"_id": 1, "v": 1})
        settle(cluster, broker)
        time.sleep(2.5)  # 2.5 TTLs, 25 reaper sweeps
        assert len(cluster.active_query_ids()) == 1
        app.insert("items", {"_id": 2, "v": 2})
        settle(cluster, broker)
        assert wait_for(lambda: subscription.change_count == 2, timeout=0.5)
        assert subscription.result() == app.find("items", {"v": {"$gte": 0}})
        assert not subscription.errors
