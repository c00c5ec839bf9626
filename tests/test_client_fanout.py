"""The app server's notification fan-out.

``InvaliDBClient`` keeps one entry per query; its handles are an
immutable tuple that subscribe and unsubscribe replace and the fan-out
reads once per row, without a lock.  So a callback that unsubscribes a
sibling handle takes effect from the next row on, and threads that
subscribe and unsubscribe handles of a hot query never disturb the
rows in flight.
"""

import random
import sys
import threading

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.notifications import ChangeEnvelope, QueryChange
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import notification_channel
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import MatchType

from tests.conftest import settle

FILTER = {"v": {"$gte": 50}}


def by_key(documents):
    return sorted(documents, key=lambda document: document["_id"])


def inline_stack():
    broker = Broker(execution=InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=1)))
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    return broker, cluster, AppServer("app-1", broker, config=config)


def test_a_callback_unsubscribing_a_sibling_takes_effect_at_the_next_row():
    broker, cluster, app = inline_stack()
    try:
        siblings = []
        seen = []

        def leave_at_second_row(notification):
            seen.append(notification.key)
            if len(seen) == 2:
                app.unsubscribe(siblings[0])

        first = app.subscribe("items", FILTER, on_change=leave_at_second_row)
        siblings.append(app.subscribe("items", FILTER))
        second = siblings[0]
        assert broker.drain()
        pulled = []
        for key in range(5):
            app.insert("items", {"_id": key, "v": 60 + key})
            assert broker.drain()
            pulled.append(app.find("items", FILTER))
        app.update("items", 0, {"$set": {"v": 10}})
        assert broker.drain()
        # The row during which it left still reached it: the fan-out
        # read the handle tuple before the callback ran.
        assert [n.key for n in second.notifications] == [0, 1]
        assert second.closed
        assert by_key(second.result()) == by_key(pulled[1])
        assert seen == [0, 1, 2, 3, 4, 0]
        assert by_key(first.result()) == by_key(app.find("items", FILTER))
        assert app.client.stats()["callback_errors"] == 0
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_a_subscribe_in_flight_keeps_its_query_when_the_last_handle_leaves():
    """``on_initial`` runs after the bootstrap read and before the new
    handle is registered: the sibling leaving then must not cancel the
    query under the subscribe."""
    broker, cluster, app = inline_stack()
    try:
        first = app.subscribe("items", FILTER)
        second = app.subscribe("items", FILTER,
                               on_initial=lambda _: app.unsubscribe(first))
        assert broker.drain()
        assert first.closed and app.client.subscription_count == 1
        assert cluster.active_query_ids() == [second.query.query_id]
        app.insert("items", {"_id": 1, "v": 60})
        assert broker.drain()
        assert second.result() == app.find("items", FILTER)
        assert first.notifications == []
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_stale_skips_of_an_unsubscribed_handle_stay_counted():
    broker, cluster, app = inline_stack()
    try:
        handle = app.subscribe("items", FILTER)
        app.insert("items", {"_id": 1, "v": 60})
        app.update("items", 1, {"$set": {"v": 70}})
        assert broker.drain()
        # A duplicated, delayed row: version 1 after version 2 applied.
        envelope = ChangeEnvelope()
        envelope.add(QueryChange(handle.query.query_id, MatchType.CHANGE,
                                 key=1, document={"_id": 1, "v": 60},
                                 version=1))
        broker.publish(notification_channel("app-1"), envelope.payload())
        assert broker.drain()
        assert handle.stale_skipped == 1
        assert app.client.stats()["stale_notifications_skipped"] == 1
        app.unsubscribe(handle)
        assert app.client.stats()["stale_notifications_skipped"] == 1
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_threads_churning_handles_of_a_hot_query_leave_every_handle_exact():
    rng = random.Random(7)
    broker = Broker()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("app-1", broker, config=config)
    documents = 100
    try:
        for key in range(documents):
            app.insert("items", {"_id": key, "v": rng.randrange(100)})
        anchor = app.subscribe("items", FILTER)
        settle(cluster, broker)
        stop = threading.Event()
        # More churning threads than cores, switching often: a lost
        # update of a handle tuple would show in subscription_count.
        kept = [[], [], []]

        def churn(slot):
            own = random.Random(slot)
            handles = kept[slot]
            while not stop.is_set():
                if handles and own.random() < 0.5:
                    app.unsubscribe(handles.pop(own.randrange(len(handles))))
                else:
                    handles.append(app.subscribe("items", FILTER))

        threads = [threading.Thread(target=churn, args=(slot,))
                   for slot in range(len(kept))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(300):
                app.update("items", rng.randrange(documents),
                           {"$set": {"v": rng.randrange(100)}})
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        settle(cluster, broker, rounds=6)
        assert broker.stats["listener_errors"] == 0
        assert app.client.stats()["callback_errors"] == 0
        expected = by_key(app.find("items", FILTER))
        live = [anchor] + [handle for own in kept for handle in own]
        assert app.client.subscription_count == len(live)
        assert [by_key(handle.result()) for handle in live] == \
            [expected] * len(live)
    finally:
        app.close()
        cluster.stop()
        broker.close()
