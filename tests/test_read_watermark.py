"""The subscribe's read watermark: replay only what the bootstrap missed.

Every write is stamped with its store's oplog position (``store_id``,
``sequence``), and ``execute_versioned`` cuts ``{store_id:
head_sequence}`` in the same critical section as the bootstrap.  A
retained after-image stamped below that watermark committed before the
read, so the bootstrap already reflects it: a registration skips it
instead of re-evaluating it (§5.1 — retention replay exists for the
writes that *race* the subscription).  Unstamped writes, writes of a
store the watermark does not name and subscribes without a watermark
replay as before.
"""

import json

import pytest

from repro.core.client import InvaliDBClient
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.wire import BinaryCodec
from repro.query.engine import Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.oplog import Oplog
from repro.store.sharding import ShardedCollection
from repro.types import AfterImage, MatchType, WriteKind
from tests.test_chaos import SteppingClock, chaos_plan, run_inline_scenario

QUERY = Query({"v": {"$gte": 10}})


def stamped(key, v, store_id=0, sequence=0, version=1):
    return AfterImage(key=key, version=version, kind=WriteKind.INSERT,
                      document={"_id": key, "v": v}, timestamp=0.0,
                      store_id=store_id, sequence=sequence)


def node_with(images):
    node = FilteringNode(NodeCoordinates(0, 0), retention_seconds=5.0)
    for after in images:
        node.process_write(after, now=0.0)
    return node


class TestStoreStamps:
    def test_writes_carry_their_oplog_position(self):
        collection = Collection("items")
        first = collection.insert({"_id": 1, "v": 1})
        second = collection.update(1, {"$set": {"v": 2}})
        gone = collection.delete(1)
        entries = collection.oplog.read_from(1)
        assert [a.sequence for a in (first, second, gone)] == [
            e.sequence for e in entries
        ]
        assert {a.store_id for a in (first, second, gone)} == {
            collection.oplog.store_id
        }

    def test_store_ids_are_nonzero_and_unique_per_store(self):
        first, second = Database(), Database()
        assert 0 < first.oplog.store_id != second.oplog.store_id > 0
        # One database, one store: its collections share the oplog.
        a = first.collection("a").insert({"_id": 1})
        b = first.collection("b").insert({"_id": 1})
        assert a.store_id == b.store_id == first.oplog.store_id
        assert b.sequence == a.sequence + 1

    def test_watermark_is_the_head_of_the_read(self):
        collection = Collection("items")
        for key in range(3):
            collection.insert({"_id": key, "v": key})
        documents, versions, watermark = collection.execute_versioned(
            Query({}, collection="items")
        )
        assert len(documents) == 3 and versions == {0: 1, 1: 1, 2: 1}
        assert watermark == {collection.oplog.store_id: 4}

    def test_sharded_watermark_names_every_shard_store(self):
        sharded = ShardedCollection("items", shards=3)
        for key in range(12):
            sharded.insert({"_id": key})
        _, _, watermark = sharded.execute_versioned(
            Query({}, collection="items")
        )
        assert watermark == {
            shard.oplog.store_id: shard.oplog.head_sequence
            for shard in sharded.shards
        }

    def test_sharded_watermark_is_the_per_store_minimum(self):
        """Two shards on one store read at different heads (a write
        lands between the reads): only writes below *both* are known
        to be reflected, so the merged watermark is the lower head."""
        shared = Oplog()
        sharded = ShardedCollection("items", shards=2)
        sharded.shards = [Collection("items", oplog=shared),
                          Collection("items", oplog=shared)]
        sharded.shards[0].insert({"_id": "a"})
        first_read = sharded.shards[0].execute_versioned

        def read_then_write(query):
            result = first_read(query)
            sharded.shards[1].insert({"_id": "b"})
            return result

        sharded.shards[0].execute_versioned = read_then_write
        _, _, watermark = sharded.execute_versioned(
            Query({}, collection="items")
        )
        assert shared.head_sequence == 3
        assert watermark == {shared.store_id: 2}


def over_the_wire(after):
    """*after* as a worker-hosted cell receives it."""
    codec = BinaryCodec()
    return codec.decode_batch(codec.encode_batch([after]))[0]


class TestWireStamp:
    def test_stamp_round_trips_as_two_ints(self):
        back = over_the_wire(stamped(1, 5, store_id=7, sequence=42))
        assert (back.store_id, back.sequence) == (7, 42)
        assert type(back.store_id) is int and type(back.sequence) is int

    def test_unstamped_payload_has_no_stamp(self):
        back = over_the_wire(stamped(1, 5))
        assert (back.store_id, back.sequence) == (0, 0)


class TestNodeReplaySkip:
    def test_images_below_the_watermark_are_not_evaluated(self):
        images = [stamped(key, key, store_id=3, sequence=key + 1)
                  for key in range(200)]
        node = node_with(images)
        before = node.matched_operations
        events = node.register_query(QUERY, [], {}, now=0.0,
                                     watermark={3: 201})
        assert events == []
        assert node.matched_operations == before

    def test_image_at_or_above_the_watermark_replays(self):
        node = node_with([stamped(1, 50, store_id=3, sequence=10),
                          stamped(2, 60, store_id=3, sequence=11),
                          stamped(3, 70, store_id=3, sequence=9)])
        events = node.register_query(QUERY, [], {}, now=0.0,
                                     watermark={3: 10})
        assert [(e.match_type, e.key) for e in events] == [
            (MatchType.ADD, 1), (MatchType.ADD, 2)
        ]

    def test_foreign_store_and_unstamped_writes_replay(self):
        """A write stamped by a second store, and an unstamped one, are
        not ordered against this read: both replay."""
        own, other = Database(), Database()
        node = node_with([
            stamped(1, 50, store_id=other.oplog.store_id, sequence=1),
            stamped(2, 60),
            stamped(3, 70, store_id=own.oplog.store_id, sequence=1),
        ])
        events = node.register_query(
            QUERY, [], {}, now=0.0, watermark={own.oplog.store_id: 100}
        )
        assert [e.key for e in events] == [1, 2]

    @pytest.mark.parametrize("watermark", [None, {}])
    def test_subscribe_without_watermark_replays_everything(self, watermark):
        node = node_with([stamped(key, key + 10, store_id=3, sequence=key + 1)
                          for key in range(5)])
        events = node.register_query(QUERY, [], {}, now=0.0,
                                     watermark=watermark)
        assert [e.key for e in events] == [0, 1, 2, 3, 4]


def inline_cluster(seed=0):
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=seed))
    broker = Broker(execution=model)
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            retention_seconds=300.0, clock=SteppingClock())
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("wm-app", broker, config=config)
    return model, broker, cluster, app


def matched_operations(cluster):
    return sum(cluster._cells[("matching", i)].node.matched_operations
               for i in range(cluster.matching_node_count))


class TestClusterRegistration:
    def test_subscribes_over_a_preloaded_store_evaluate_nothing(self):
        model, broker, cluster, app = inline_cluster()
        try:
            for key in range(100):
                app.insert("items", {"_id": key, "v": key})
            assert broker.drain()
            before = matched_operations(cluster)
            filters = [{"v": {"$gte": 5 * i, "$lt": 5 * i + 12}}
                       for i in range(20)]
            handles = [app.subscribe("items", f) for f in filters]
            assert broker.drain()
            assert matched_operations(cluster) == before
            for key in range(0, 100, 3):
                app.update("items", key, {"$inc": {"v": 1}})
            assert broker.drain()
            for handle, filter_doc in zip(handles, filters):
                assert sorted(handle.result(), key=lambda d: d["_id"]) == \
                    sorted(app.find("items", filter_doc),
                           key=lambda d: d["_id"])
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_racing_write_still_replays(self):
        """A write the read did not see (stamped at the watermark) is
        the race retention exists for: it is replayed."""
        model, broker, cluster, app = inline_cluster()
        try:
            app.insert("items", {"_id": 1, "v": 1})
            assert broker.drain()
            collection = app.database.collection("items")
            read = collection._read_versioned

            def read_then_write(query):
                result = read(query)
                collection.insert({"_id": 2, "v": 2})
                return result

            collection._read_versioned = read_then_write
            handle = app.subscribe("items", {"v": {"$gte": 0}})
            del collection._read_versioned
            assert broker.drain()
            assert sorted(d["_id"] for d in handle.result()) == [1, 2]
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()


class TestResubscribeEmitsNoDeletedAdds:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_add_for_a_key_the_store_no_longer_holds(self, seed,
                                                        monkeypatch):
        """Chaos drops a delete; the cell still retains the deleted
        document's older image.  The resubscribe's read already saw the
        delete, so replaying that image would only emit an ``add`` of a
        document the store no longer holds."""
        marks = []
        resubscribe_all = InvaliDBClient.resubscribe_all

        def marked(client):
            with client._lock:
                handles = [h for entry in client._entries.values()
                           for h in entry.handles]
            # The scenario's handles deliver into Collectors.
            marks.extend((h._on_change, len(h._on_change)) for h in handles)
            return resubscribe_all(client)

        monkeypatch.setattr(InvaliDBClient, "resubscribe_all", marked)
        run = run_inline_scenario(seed, chaos_plan(seed), resubscribe=True)
        held = {doc["_id"] for doc in json.loads(run["db_flat"])}
        assert marks
        phantom = [
            (n.key, n.version)
            for seen, start in marks
            for n in seen[start:]
            if n.match_type is MatchType.ADD and n.key not in held
        ]
        assert phantom == []
        assert run["flat_result"] == run["db_flat"]
        assert run["top_result"] == run["db_top"]
