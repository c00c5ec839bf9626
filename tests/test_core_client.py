"""Client protocol tests: heartbeats, renewals, rate limits, registrations."""

import random
import threading
import time

import pytest

from repro.core.config import InvaliDBConfig
from repro.core.subscriptions import QueryRegistration
from repro.errors import SubscriptionError
from repro.query.engine import Query
from repro.types import MatchType

from tests.conftest import FakeClock, settle


class TestQueryRegistration:
    def test_ttl_lifecycle(self):
        registration = QueryRegistration(Query({"a": 1}), now=0.0, ttl=10.0)
        registration.subscribe("app-1", now=0.0)
        assert registration.active
        assert registration.expire(now=5.0) == []
        assert registration.expire(now=11.0) == ["app-1"]
        assert not registration.active

    def test_extension_pushes_deadline(self):
        registration = QueryRegistration(Query({"a": 1}), now=0.0, ttl=10.0)
        registration.subscribe("app-1", now=0.0)
        assert registration.extend("app-1", now=8.0)
        assert registration.expire(now=11.0) == []

    def test_extension_for_unknown_server_is_ignored(self):
        """Footnote 3: not an error scenario."""
        registration = QueryRegistration(Query({"a": 1}), now=0.0, ttl=10.0)
        assert not registration.extend("ghost", now=0.0)

    def test_cancel(self):
        registration = QueryRegistration(Query({"a": 1}), now=0.0, ttl=10.0)
        registration.subscribe("app-1", now=0.0)
        registration.subscribe("app-2", now=0.0)
        registration.cancel("app-1")
        assert registration.app_servers == ["app-2"]


class TestRegistrationServers:
    """``servers``: the subscribed app servers as an immutable tuple the
    notification fan-out reads without the lock."""

    def test_servers_mirror_app_servers_in_subscribe_order(self):
        registration = QueryRegistration(Query({"a": 1}), now=0.0, ttl=10.0)

        def check(expected):
            assert registration.servers == tuple(registration.app_servers)
            assert registration.servers == expected
            # ``active`` reads the TTL deadlines: the two stay in step.
            assert registration.active == bool(expected)

        check(())
        registration.subscribe("app-2", now=0.0)
        registration.subscribe("app-1", now=1.0)
        registration.subscribe("app-3", now=5.0)
        check(("app-2", "app-1", "app-3"))
        registration.subscribe("app-2", now=4.0)  # re-subscribe keeps order
        check(("app-2", "app-1", "app-3"))
        assert registration.extend("app-1", now=6.0)
        check(("app-2", "app-1", "app-3"))
        assert not registration.extend("ghost", now=6.0)
        check(("app-2", "app-1", "app-3"))
        registration.cancel("app-3")
        check(("app-2", "app-1"))
        registration.cancel("ghost")
        check(("app-2", "app-1"))
        assert registration.expire(now=14.5) == ["app-2"]
        check(("app-1",))
        assert registration.expire(now=14.5) == []
        check(("app-1",))
        registration.subscribe("app-3", now=20.0)
        check(("app-1", "app-3"))
        assert registration.expire(now=100.0) == ["app-1", "app-3"]
        check(())

    def test_lock_free_reader_sees_only_published_tuples(self):
        """4 threads subscribe and cancel while a reader iterates
        ``servers`` 10k times: it never raises and only ever sees a
        tuple that was once current."""
        published = set()

        class Recording(QueryRegistration):
            def __setattr__(self, name, value):
                if name == "servers":
                    published.add(value)  # before it becomes visible
                super().__setattr__(name, value)

        registration = Recording(Query({"a": 1}), now=0.0, ttl=10.0)
        stop = threading.Event()
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    app_server = f"app-{rng.randrange(6)}"
                    if rng.random() < 0.5:
                        registration.subscribe(app_server, now=0.0)
                    else:
                        registration.cancel(app_server)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        writers = [threading.Thread(target=churn, args=(seed,))
                   for seed in range(4)]
        for writer in writers:
            writer.start()
        seen = set()
        try:
            for _ in range(10_000):
                snapshot = registration.servers
                for app_server in snapshot:
                    assert app_server.startswith("app-")
                seen.add(snapshot)
        finally:
            stop.set()
            for writer in writers:
                writer.join()
        assert errors == []
        assert seen <= published
        assert all(isinstance(s, tuple) and len(set(s)) == len(s)
                   for s in seen)
        assert registration.servers == tuple(registration.app_servers)
        assert registration.active == bool(registration.servers)


class TestHeartbeats:
    def test_heartbeats_arrive(self, broker, cluster_factory,
                               app_server_factory):
        cluster_factory(1, 1, heartbeat_interval=0.05, heartbeat_timeout=1.0)
        app = app_server_factory(
            config=InvaliDBConfig(heartbeat_interval=0.05,
                                  heartbeat_timeout=1.0)
        )
        app.subscribe("items", {"v": 1})
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and app.client.last_heartbeat is None:
            time.sleep(0.02)
        assert app.client.last_heartbeat is not None
        assert app.client.check_heartbeat()

    def test_heartbeat_timeout_terminates_subscriptions(self, broker,
                                                        cluster_factory,
                                                        app_server_factory):
        """Section 5.1: on missing heartbeats the app server terminates
        subscriptions with an error the client can handle."""
        cluster = cluster_factory(1, 1, heartbeat_interval=0.05,
                                  heartbeat_timeout=0.5)
        errors = []
        app = app_server_factory(
            config=InvaliDBConfig(heartbeat_interval=0.05,
                                  heartbeat_timeout=0.5)
        )
        subscription = app.subscribe("items", {"v": 1},
                                     on_error=errors.append)
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and app.client.last_heartbeat is None:
            time.sleep(0.02)
        # Simulate cluster failure: stop it, then let the timeout lapse.
        cluster.stop()
        assert not app.client.check_heartbeat(
            now=app.client.last_heartbeat + 10.0
        )
        assert subscription.closed
        assert errors and "heartbeat" in errors[0]


class TestRenewalRateLimit:
    @staticmethod
    def inline_stack(clock):
        from repro.core.cluster import InvaliDBCluster
        from repro.core.server import AppServer
        from repro.event.broker import Broker
        from repro.runtime.execution import (
            ExecutionConfig,
            InlineExecutionModel,
        )

        model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=1))
        broker = Broker(execution=model)
        config = InvaliDBConfig(renewal_min_interval=10.0, clock=clock)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        return broker, cluster, app

    def test_renewals_are_rate_limited(self):
        """The poll frequency rate limit bounds database load from
        renewals (Section 5.2): one renewal per query per interval, a
        suppressed one runs once the interval elapsed."""
        clock = FakeClock()
        broker, cluster, app = self.inline_stack(clock)
        client = app.client
        try:
            first = app.subscribe("items", {"v": {"$gte": 0}},
                                  sort=[("v", -1)], limit=2)
            other = app.subscribe("items", {"v": {"$lt": 9}},
                                  sort=[("v", 1)], limit=2)
            entry = client._entries[first.query.query_id]
            slack = entry.slack
            client._handle_maintenance_error(first.query.query_id)
            assert client.renewals_sent == 1
            assert entry.last_renewal == clock()
            clock.advance(5.0)
            client._handle_maintenance_error(first.query.query_id)
            assert client.renewals_sent == 1  # suppressed: pending
            assert entry.pending_renewal is not None
            client._handle_maintenance_error(other.query.query_id)
            assert client.renewals_sent == 2  # its own budget
            assert broker.drain()  # the pending renewal comes due
            assert client.renewals_sent == 3
            assert entry.pending_renewal is None
            assert entry.last_renewal == clock()
            assert entry.slack > 2 * slack  # grown twice
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_unsubscribe_cancels_the_pending_renewal(self):
        """A dropped entry takes its renewal timer and its rate-limit
        budget with it: a same-id re-subscribe starts afresh."""
        clock = FakeClock()
        broker, cluster, app = self.inline_stack(clock)
        client = app.client
        try:
            handle = app.subscribe("items", {}, sort=[("v", -1)], limit=2)
            query_id = handle.query.query_id
            client._handle_maintenance_error(query_id)
            client._handle_maintenance_error(query_id)  # pending
            assert client.renewals_sent == 1
            client.unsubscribe(handle)
            again = app.subscribe("items", {}, sort=[("v", -1)], limit=2)
            slack = client._entries[query_id].slack
            assert broker.drain()  # the old timer would fire here
            assert client.renewals_sent == 1
            assert client._entries[query_id].slack == slack
            client._handle_maintenance_error(query_id)  # fresh budget
            assert client.renewals_sent == 2
            assert again.result() == []
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_renew_grows_slack(self, broker, cluster_factory,
                               app_server_factory):
        cluster = cluster_factory(1, 1, default_slack=2,
                                  renewal_slack_factor=2.0)
        app = app_server_factory(
            config=InvaliDBConfig(default_slack=2, renewal_slack_factor=2.0)
        )
        for index in range(10):
            app.insert("articles", {"_id": index, "year": index})
        settle(cluster, broker)
        subscription = app.subscribe("articles", {}, sort=[("year", -1)],
                                     limit=3)
        query_id = subscription.query.query_id
        assert app.client._entries[query_id].slack == 2
        assert app.client.renew(query_id)
        assert app.client._entries[query_id].slack == 4
        assert app.client.renew(query_id)
        assert app.client._entries[query_id].slack == 8

    def test_renew_unknown_query(self, broker, cluster_factory,
                                 app_server_factory):
        cluster_factory(1, 1)
        app = app_server_factory()
        assert not app.client.renew("q-nope")


class TestClientLifecycle:
    def test_closed_client_rejects_subscribe(self, broker, cluster_factory,
                                             app_server_factory):
        cluster_factory(1, 1)
        app = app_server_factory()
        app.client.close()
        with pytest.raises(SubscriptionError):
            app.client.subscribe({"a": 1})

    def test_subscription_count(self, broker, cluster_factory,
                                app_server_factory):
        cluster_factory(1, 1)
        app = app_server_factory()
        sub = app.subscribe("items", {"a": 1})
        assert app.client.subscription_count == 1
        app.unsubscribe(sub)
        assert app.client.subscription_count == 0

    def test_local_result_materialization_with_indices(self):
        """RealTimeSubscription maintains order from index info."""
        from repro.core.client import RealTimeSubscription
        from repro.types import ChangeNotification, InitialResult

        query = Query({}, sort=[("r", 1)], limit=10)
        handle = RealTimeSubscription("s1", query)
        handle._deliver_initial(
            InitialResult("s1", query.query_id,
                          documents=[{"_id": "a", "r": 1},
                                     {"_id": "c", "r": 3}])
        )
        handle._deliver(ChangeNotification(
            subscription_id="s1", query_id=query.query_id,
            match_type=MatchType.ADD, key="b", document={"_id": "b", "r": 2},
            index=1,
        ))
        assert [d["_id"] for d in handle.result()] == ["a", "b", "c"]
        handle._deliver(ChangeNotification(
            subscription_id="s1", query_id=query.query_id,
            match_type=MatchType.CHANGE_INDEX, key="b",
            document={"_id": "b", "r": 9}, index=2, old_index=1,
        ))
        assert [d["_id"] for d in handle.result()] == ["a", "c", "b"]
        handle._deliver(ChangeNotification(
            subscription_id="s1", query_id=query.query_id,
            match_type=MatchType.REMOVE, key="a",
        ))
        assert [d["_id"] for d in handle.result()] == ["c", "b"]


class TestWireSafety:
    def test_compiled_regex_rejected_with_hint(self, broker, cluster_factory,
                                               app_server_factory):
        import re

        from repro.errors import SubscriptionError

        cluster_factory(1, 1)
        app = app_server_factory()
        with pytest.raises(SubscriptionError, match=r"\$regex"):
            app.subscribe("items", {"name": re.compile("^a")})

    def test_nested_unserializable_value_rejected(self, broker,
                                                  cluster_factory,
                                                  app_server_factory):
        from repro.errors import SubscriptionError

        cluster_factory(1, 1)
        app = app_server_factory()
        with pytest.raises(SubscriptionError, match="filter.a"):
            app.subscribe("items", {"a": {"$in": [object()]}})

    def test_string_regex_form_accepted(self, broker, cluster_factory,
                                        app_server_factory):
        cluster_factory(1, 1)
        app = app_server_factory()
        subscription = app.subscribe("items", {"name": {"$regex": "^a"}})
        assert subscription.initial is not None


class TestMaterializationGate:
    def handle(self):
        from repro.core.client import RealTimeSubscription
        from repro.types import InitialResult

        query = Query({"v": {"$gte": 0}})
        handle = RealTimeSubscription("s1", query)
        handle._deliver_initial(
            InitialResult("s1", query.query_id,
                          documents=[{"_id": "a", "v": 3}]),
            {"a": 3},
        )
        return handle

    def change(self, handle, match_type, key, version, v):
        from repro.types import ChangeNotification

        handle._deliver(ChangeNotification(
            subscription_id="s1", query_id=handle.query.query_id,
            match_type=match_type, key=key,
            document={"_id": key, "v": v}, version=version,
        ))

    def test_a_handle_starts_at_its_bootstraps_versions(self):
        """A row older than the read the initial result came from —
        still in flight when the handle was registered — is stale."""
        handle = self.handle()
        self.change(handle, MatchType.CHANGE, "a", 2, 1)
        assert handle.result() == [{"_id": "a", "v": 3}]
        assert handle.stale_skipped == 1

    def test_a_change_for_a_missing_key_inserts_it(self):
        """A merge row for a handle that started from a different
        bootstrap: the key is upserted, not kept out of sight."""
        handle = self.handle()
        self.change(handle, MatchType.CHANGE, "b", 4, 9)
        assert handle.result() == [{"_id": "a", "v": 3}, {"_id": "b", "v": 9}]
        self.change(handle, MatchType.CHANGE, "b", 5, 7)
        assert handle.result() == [{"_id": "a", "v": 3}, {"_id": "b", "v": 7}]


class TestResyncRequest:
    """A ``resync`` notification renews the named queries at their
    slack, under the renewal rate limit, with a catch-up delta."""

    def stack(self):
        """An inline stack that loses the first write on its way to the
        cluster."""
        from repro.core.cluster import InvaliDBCluster
        from repro.core.server import AppServer
        from repro.event.broker import Broker
        from repro.runtime.execution import (
            ExecutionConfig,
            InlineExecutionModel,
        )
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan().rule("channel", "invalidb:writes*", "drop", at=[0])
        model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=1, fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(renewal_min_interval=1.0)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker, config=config)
        return broker, cluster, app

    def resync(self, broker, *query_ids):
        from repro.event.channels import notification_channel

        broker.publish(notification_channel("app-1"),
                       {"kind": "resync", "query_ids": list(query_ids)})

    def test_a_resync_renews_at_the_slack_and_repairs_the_handle(self):
        broker, cluster, app = self.stack()
        try:
            handle = app.subscribe("items", {}, sort=[("v", -1)], limit=2)
            query_id = handle.query.query_id
            slack = app.client._entries[query_id].slack
            app.insert("items", {"_id": "x", "v": 1})  # lost
            assert broker.drain()
            assert handle.result() == []
            self.resync(broker, query_id, "q-unknown")
            assert broker.drain()
            assert handle.result() == [{"_id": "x", "v": 1}]
            assert app.client._entries[query_id].slack == slack
            assert cluster.snapshot()["queries_renewed"] == 1
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_a_resync_within_the_interval_waits_and_wins(self):
        """A maintenance renewal already pending for the query turns
        into the resync: slack kept, delta delivered, one renewal."""
        broker, cluster, app = self.stack()
        try:
            handle = app.subscribe("items", {"v": {"$gte": 0}})
            query_id = handle.query.query_id
            slack = app.client._entries[query_id].slack
            app.client._handle_maintenance_error(query_id)  # allowed now
            assert broker.drain()
            assert cluster.snapshot()["queries_renewed"] == 1
            grown = app.client._entries[query_id].slack
            assert grown > slack
            app.insert("items", {"_id": "x", "v": 1})  # lost
            assert handle.result() == []
            app.client._handle_maintenance_error(query_id)  # pending
            self.resync(broker, query_id)                   # joins it
            assert app.client._entries[query_id].pending_renewal[1] is True
            assert broker.drain()                           # fires it
            assert handle.result() == [{"_id": "x", "v": 1}]
            assert app.client._entries[query_id].slack == grown
            assert cluster.snapshot()["queries_renewed"] == 2
        finally:
            app.close()
            cluster.stop()
            broker.close()
