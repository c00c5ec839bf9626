"""InvaliDB on top of a *sharded* collection — the production setup.

The paper's prototype runs "on top of the NoSQL database MongoDB with
sharded collections" (Section 5.4).  These tests put the app server on
a :class:`~repro.store.sharding.ShardedCollection` and verify the
push-based path works identically: write-stream re-partitioning is
independent of the storage sharding.
"""

import time

import pytest

from repro.core.client import InvaliDBClient
from repro.core.config import InvaliDBConfig
from repro.store.sharding import ShardedCollection

from tests.conftest import Collector, settle


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def sharded_stack(broker, cluster_factory):
    cluster = cluster_factory(2, 2)
    sharded = ShardedCollection("items", shards=4)
    client = InvaliDBClient("sharded-app", broker, sharded)
    client.attach(sharded)
    yield cluster, sharded, client
    client.close()


class TestShardedBackend:
    def test_initial_result_spans_shards(self, broker, sharded_stack):
        cluster, sharded, client = sharded_stack
        for index in range(40):
            sharded.insert({"_id": index, "v": index})
        settle(cluster, broker)
        subscription = client.subscribe({"v": {"$gte": 35}},
                                        collection="items")
        assert {d["_id"] for d in subscription.initial.documents} == {
            35, 36, 37, 38, 39,
        }

    def test_writes_from_any_shard_notify(self, broker, sharded_stack):
        cluster, sharded, client = sharded_stack
        seen = Collector()
        subscription = client.subscribe({"v": {"$gte": 100}},
                                        collection="items", on_change=seen)
        # Keys chosen so several storage shards are hit.
        for key in ("alpha", "beta", "gamma", "delta", 42, 77):
            sharded.insert({"_id": key, "v": 150})
        settle(cluster, broker)
        # on_change runs after the handle counts the change: wait on
        # what is read.
        assert wait_for(lambda: len(seen) == 6)
        assert subscription.change_count == 6
        assert {n.key for n in seen} == {
            "alpha", "beta", "gamma", "delta", 42, 77,
        }

    def test_sorted_query_over_sharded_collection(self, broker,
                                                  sharded_stack):
        cluster, sharded, client = sharded_stack
        for index in range(20):
            sharded.insert({"_id": index, "score": index * 3})
        settle(cluster, broker)
        subscription = client.subscribe(
            {}, collection="items", sort=[("score", -1)], limit=3
        )
        assert [d["_id"] for d in subscription.initial.documents] == [
            19, 18, 17,
        ]
        sharded.insert({"_id": 100, "score": 1000})
        settle(cluster, broker)
        assert wait_for(
            lambda: [d["_id"] for d in subscription.result()] == [100, 19, 18]
        )

    def test_convergence_under_shard_spanning_churn(self, broker,
                                                    sharded_stack):
        import random

        cluster, sharded, client = sharded_stack
        subscription = client.subscribe({"v": {"$gte": 50}},
                                        collection="items")
        rng = random.Random(13)
        live = set()
        for step in range(150):
            roll = rng.random()
            if roll < 0.5 or not live:
                sharded.insert({"_id": step, "v": rng.randrange(100)})
                live.add(step)
            elif roll < 0.8:
                key = rng.choice(sorted(live))
                sharded.update(key, {"$set": {"v": rng.randrange(100)}})
            else:
                key = rng.choice(sorted(live))
                sharded.delete(key)
                live.discard(key)
        settle(cluster, broker, rounds=5)
        expected = {d["_id"] for d in sharded.find({"v": {"$gte": 50}})}
        assert wait_for(
            lambda: {d["_id"] for d in subscription.result()} == expected
        )
