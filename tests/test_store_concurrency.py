"""Concurrency tests for the store substrate.

The collection is the shared mutable heart of the system — app-server
threads write while the broker dispatcher reads for bootstraps.  These
tests hammer it from several threads and assert no lost updates,
duplicate versions, or torn reads.
"""

import threading

import pytest

from repro.errors import DocumentNotFoundError, DuplicateKeyError
from repro.store.collection import Collection
from repro.store.sharding import ShardedCollection


class TestConcurrentWrites:
    def test_parallel_inserts_disjoint_keys(self):
        collection = Collection("par")
        errors = []

        def insert_range(base):
            try:
                for index in range(200):
                    collection.insert({"_id": base + index, "v": index})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=insert_range, args=(base,))
                   for base in (0, 1000, 2000, 3000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(collection) == 800

    def test_exactly_one_insert_wins_on_key_collision(self):
        collection = Collection("collide")
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def racer(value):
            barrier.wait()
            try:
                collection.insert({"_id": "contested", "v": value})
                with lock:
                    outcomes.append(("ok", value))
            except DuplicateKeyError:
                with lock:
                    outcomes.append(("dup", value))

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [o for o in outcomes if o[0] == "ok"]
        assert len(winners) == 1
        assert collection.get("contested")["v"] == winners[0][1]

    def test_concurrent_updates_produce_dense_versions(self):
        collection = Collection("versions")
        collection.insert({"_id": 1, "n": 0})

        def bump():
            for _ in range(100):
                collection.update(1, {"$inc": {"n": 1}})

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 1 insert + 400 updates: version is dense, counter exact.
        assert collection.version_of(1) == 401
        assert collection.get(1)["n"] == 400
        # The oplog saw every version exactly once.
        versions = [entry.version for entry in collection.oplog.read_from(1)]
        assert sorted(versions) == list(range(1, 402))

    def test_readers_never_see_torn_documents(self):
        collection = Collection("torn")
        collection.insert({"_id": 1, "a": 0, "b": 0})
        stop = threading.Event()
        torn = []

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                collection.replace({"_id": 1, "a": value, "b": value})

        def reader():
            while not stop.is_set():
                document = collection.get(1)
                if document["a"] != document["b"]:
                    torn.append(document)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []

    @pytest.mark.parametrize("make", [
        lambda: Collection("boot"),
        lambda: ShardedCollection("boot", shards=3),
    ], ids=["collection", "sharded"])
    def test_bootstrap_documents_and_versions_are_read_atomically(self, make):
        """Every document counts its own writes in ``n``, so ``n`` must
        equal the version reported next to it.  ``execute`` followed by
        ``version_of`` lets a writer in between: a bootstrap labelled
        with a version newer than its content makes the cluster drop
        that very write as already known.

        The read watermark is cut in the same critical section: every
        returned version is the key's latest write stamped below it —
        none at or above it, none missing."""
        import time

        from repro.query.engine import Query

        collection = make()
        writes = []  # (key, version, store_id, sequence), every write
        for key in range(20):
            after = collection.insert({"_id": key, "n": 1})
            writes.append((key, after.version, after.store_id, after.sequence))
        query = Query({}, collection="boot", sort=[("n", -1)], limit=15)
        stop = threading.Event()
        mislabelled = []
        reads = []

        def writer():
            key = 0
            while not stop.is_set():
                after = collection.update(key % 20, {"$inc": {"n": 1}})
                writes.append(
                    (after.key, after.version, after.store_id, after.sequence)
                )
                key += 1

        def reader():
            while not stop.is_set():
                documents, versions, watermark = collection.execute_versioned(
                    query
                )
                if len(documents) != 15:
                    mislabelled.append(("short result", len(documents)))
                mislabelled.extend(
                    doc for doc in documents if doc["n"] != versions[doc["_id"]]
                )
                if len(reads) < 400:
                    reads.append((versions, watermark))

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert mislabelled == []
        assert all(sequence > 0 for _, _, _, sequence in writes)
        assert reads
        by_key = {}
        for key, version, store, sequence in writes:
            by_key.setdefault(key, []).append((version, store, sequence))
        cut_wrong = []
        for versions, watermark in reads:
            for key, version in versions.items():
                below = [
                    v for v, store, sequence in by_key[key]
                    if sequence < watermark.get(store, 0)
                ]
                if not below or max(below) != version:
                    cut_wrong.append((key, version, below[-3:]))
        assert cut_wrong == []

    def test_concurrent_delete_update_race_is_safe(self):
        collection = Collection("race")
        for index in range(100):
            collection.insert({"_id": index, "v": 0})
        errors = []

        def deleter():
            for index in range(100):
                try:
                    collection.delete(index)
                except DocumentNotFoundError:
                    pass
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        def updater():
            for index in range(100):
                try:
                    collection.update(index, {"$inc": {"v": 1}})
                except DocumentNotFoundError:
                    pass
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=deleter),
                   threading.Thread(target=updater)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(collection) == 0


class TestConcurrentSharded:
    def test_parallel_writes_across_shards(self):
        sharded = ShardedCollection("par", shards=4)

        def work(base):
            for index in range(150):
                sharded.insert({"_id": f"{base}-{index}", "v": index})

        threads = [threading.Thread(target=work, args=(base,))
                   for base in ("a", "b", "c")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sharded) == 450
        assert sharded.count({"v": {"$gte": 100}}) == 150
