"""Duplicate-query-id churn converges to the pull query.

The shape the benchmark harness steps around (``_distinct_churn_spec``
in ``churn-mixed``): one threaded client holds two or three handles on
the same filter — one query id, one registration at the cluster — and
keeps unsubscribing one handle and subscribing it again while updates
move documents in and out of the result.  After the pipeline drains,
every live handle holds exactly what the pull query returns.  A second
app server subscribing the same filter re-registers the same query id
too.

Each resubscribe sends a fresh subscribe (bootstrap, versions and read
watermark) through the intake, and the query's cells merge it through
the one rule every after-image takes (``FilteringNode.register_query``):
a bootstrap version at or below the held one is dropped, a newer one is
an ``add`` / ``change`` for every subscriber, and a held key stamped
below the watermark that the bootstrap lacks left the result before the
read.  A write already in the store when the bootstrap was read but
still in flight then reaches the handles that stayed subscribed through
the merge, and arrives late as a repeat.  The new handle starts from
its bootstrap at the versions it was read at, and a batch in which a
subscribe re-registers the query is not coalesced, so no row assumes
one pre-batch state for both kinds of handle.  Inline, a publish runs its whole cascade before
the next one starts, so only threads (or a delay fault, as in the
inline tests) let the subscribe overtake the write.
"""

import random

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.store.database import Database

from tests.conftest import settle

SEEDS = range(1, 9)
#: Many documents per write, so a missed write is rarely repaired by a
#: later write to the same key.
DOCUMENTS = 200
WRITES = 300
#: One unsubscribe + subscribe after every this many writes.
CHURN_EVERY = 5
FILTER = {"v": {"$gte": 50}}


def by_key(documents):
    return sorted(documents, key=lambda document: document["_id"])


def churn(seed):
    """One seeded run; the handles that disagree with the pull query."""
    rng = random.Random(seed)
    broker = Broker()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("churn-app", broker, config=config)
    try:
        for key in range(DOCUMENTS):
            app.insert("items", {"_id": key, "v": rng.randrange(100)})
        handles = [app.subscribe("items", FILTER)
                   for _ in range(rng.choice((2, 3)))]
        assert len({handle.query.query_id for handle in handles}) == 1
        settle(cluster, broker)
        for step in range(WRITES):
            app.update("items", rng.randrange(DOCUMENTS),
                       {"$set": {"v": rng.randrange(100)}})
            if step % CHURN_EVERY == 0:
                slot = rng.randrange(len(handles))
                app.unsubscribe(handles[slot])
                handles[slot] = app.subscribe("items", FILTER)
        settle(cluster, broker, rounds=6)
        assert cluster.active_query_ids() == [handles[0].query.query_id]
        expected = by_key(app.find("items", FILTER))
        return [slot for slot, handle in enumerate(handles)
                if by_key(handle.result()) != expected]
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_every_handle_equals_the_pull_query_after_churn():
    """All eight seeds in one test: one seed alone races only some of
    the time."""
    stale = {seed: churn(seed) for seed in SEEDS}
    assert {seed: slots for seed, slots in stale.items() if slots} == {}


def test_a_write_overtaken_by_a_duplicate_subscribe_reaches_every_handle():
    """The same race, made deterministic on the inline model: a delay
    fault holds one update back until the duplicate subscribe is
    registered."""
    plan = FaultPlan().rule("channel", "invalidb:writes*", "delay",
                            delay=0.5, at=[1])
    broker = Broker(execution=InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=1, fault_plan=plan)
    ))
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("churn-app", broker, config=config)
    try:
        app.insert("items", {"_id": 1, "v": 10})          # write 0
        stayed = app.subscribe("items", FILTER)
        churned = app.subscribe("items", FILTER)
        app.update("items", 1, {"$set": {"v": 70}})       # write 1: held
        app.unsubscribe(churned)
        churned = app.subscribe("items", FILTER)
        assert broker.drain()
        expected = app.find("items", FILTER)
        assert churned.result() == expected
        assert stayed.result() == expected
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_a_write_overtaken_by_a_second_app_servers_subscribe_reaches_both():
    """The same race across app servers: the held update is in app-b's
    bootstrap, and the re-registration it triggers hands it to app-a's
    handle as a merge row before the update itself arrives."""
    plan = FaultPlan().rule("channel", "invalidb:writes*", "delay",
                            delay=0.5, at=[1])
    broker = Broker(execution=InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=1, fault_plan=plan)
    ))
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    database = Database()
    app_a = AppServer("app-a", broker, database=database, config=config)
    app_b = AppServer("app-b", broker, database=database, config=config)
    try:
        app_a.insert("items", {"_id": 1, "v": 10})        # write 0
        first = app_a.subscribe("items", FILTER)
        app_a.update("items", 1, {"$set": {"v": 70}})     # write 1: held
        second = app_b.subscribe("items", FILTER)
        assert broker.drain()
        expected = app_a.find("items", FILTER)
        assert second.result() == expected
        assert first.result() == expected
    finally:
        app_a.close()
        app_b.close()
        cluster.stop()
        broker.close()


# The sorted path of the same race.  A sorted page registers on its sort
# core, and a re-registration merges its bootstrap into the core entry
# by entry: the pages already attached receive what the merge changes,
# and the held write, arriving late, meets a version it already holds.

SORT = [("v", -1)]


def held_write_stack(held):
    """An inline stack whose *held*-th write is delayed past the next
    subscribe."""
    plan = FaultPlan().rule("channel", "invalidb:writes*", "delay",
                            delay=0.5, at=[held])
    broker = Broker(execution=InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=1, fault_plan=plan)
    ))
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    return broker, config, InvaliDBCluster(broker, config).start()


def test_a_write_overtaken_by_a_duplicate_page_subscribe_reaches_every_handle():
    broker, config, cluster = held_write_stack(held=1)
    app = AppServer("churn-app", broker, config=config)
    try:
        app.insert("items", {"_id": 1, "v": 10})          # write 0
        stayed = app.subscribe("items", FILTER, sort=SORT, limit=2)
        churned = app.subscribe("items", FILTER, sort=SORT, limit=2)
        app.update("items", 1, {"$set": {"v": 70}})       # write 1: held
        app.unsubscribe(churned)
        churned = app.subscribe("items", FILTER, sort=SORT, limit=2)
        assert broker.drain()
        assert cluster.snapshot()["faults"]["delayed"] == 1
        expected = app.find("items", FILTER, sort=SORT, limit=2)
        assert expected == [{"_id": 1, "v": 70}]
        assert churned.result() == expected
        assert stayed.result() == expected
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_a_deeper_page_subscribed_past_a_held_write_updates_both_pages():
    """app-b attaches page 2 of the core app-a's page 1 lives on while
    the write that reorders both pages is held back: the merge of app-b's
    bootstrap moves the written document into page 1 at once, and the
    late write changes nothing."""
    values = [60, 70, 80, 90, 10]
    broker, config, cluster = held_write_stack(held=len(values))
    database = Database()
    app_a = AppServer("app-a", broker, database=database, config=config)
    app_b = AppServer("app-b", broker, database=database, config=config)
    try:
        for key, value in enumerate(values, start=1):
            app_a.insert("items", {"_id": key, "v": value})
        first = app_a.subscribe("items", FILTER, sort=SORT, limit=2)
        app_a.update("items", 5, {"$set": {"v": 95}})     # held
        second = app_b.subscribe("items", FILTER, sort=SORT, limit=2,
                                 offset=2)
        assert first.query.core_id == second.query.core_id
        assert broker.drain()
        assert cluster.snapshot()["faults"]["delayed"] == 1
        assert [doc["_id"] for doc in first.result()] == [5, 4]
        assert first.result() == app_a.find("items", FILTER, sort=SORT,
                                            limit=2)
        assert second.result() == app_b.find("items", FILTER, sort=SORT,
                                             skip=2, limit=2)
        assert cluster.snapshot()["sorting"][0]["cores"] == 1
    finally:
        app_a.close()
        app_b.close()
        cluster.stop()
        broker.close()
