"""Duplicate-query-id churn converges to the pull query — known failing.

The shape the benchmark harness steps around (``_distinct_churn_spec``
in ``churn-mixed``): one threaded client holds two or three handles on
the same filter — one query id, one registration at the cluster — and
keeps unsubscribing one handle and subscribing it again while updates
move documents in and out of the result.  After the pipeline drains,
every live handle should hold exactly what the pull query returns.

It does not, and the cause is not the grid's routing.  Each resubscribe
sends a fresh subscribe (bootstrap + versions) through query ingestion,
and ``FilteringNode.register_query`` replaces the query's state with
that bootstrap wholesale.  A write already in the store when the
bootstrap was read but still on its way through write ingestion then
reaches the cell *after* the re-registration: its version is at or
below the bootstrap's, so the cell drops it as known (a document that
left the result is simply absent from the new state, so its removal
matches nothing either).  The resubscribed handle has the write in its
bootstrap; the handles that stayed subscribed rely on notifications and
never hear of it.  Inline, a publish runs its whole cascade before the
next one starts, so only threads (or a delay fault, as in the inline
tests) let the subscribe overtake the write.  A second app server
subscribing the same filter triggers the same race: its subscribe
re-registers the query id the first app server already holds.
"""

import random

import pytest

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

DIAGNOSIS = (
    "re-registering an active query replaces the cell's state with the "
    "new bootstrap; a write the bootstrap already holds but the cell has "
    "not seen yet is then dropped as known, so the handles that stayed "
    "subscribed never receive it"
)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=DIAGNOSIS)
def test_every_handle_equals_the_pull_query_after_churn():
    """All eight seeds in one test: a strict xfail must fail on every
    run, and each seed alone misses a write only most of the time."""
    stale = {seed: churn(seed) for seed in SEEDS}
    assert {seed: slots for seed, slots in stale.items() if slots} == {}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=DIAGNOSIS)
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=DIAGNOSIS)
def test_a_write_overtaken_by_a_second_app_servers_subscribe_reaches_both():
    """The same race across app servers: the held update is in app-b's
    bootstrap, and the re-registration it triggers drops the update
    before app-a's handle hears of it."""
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
