"""Index correctness and oplog behaviour tests."""

import pytest

from repro.baselines.log_tailing import LogTailingProvider
from repro.store.collection import Collection
from repro.store.indexes import HashIndex, OrderedIndex
from repro.store.oplog import Oplog, StaleCursorError
from repro.types import MatchType, WriteKind

from tests.conftest import Collector


class TestHashIndex:
    def test_lookup(self):
        index = HashIndex("color")
        index.add(1, {"color": "red"})
        index.add(2, {"color": "blue"})
        index.add(3, {"color": "red"})
        assert index.lookup("red") == {1, 3}
        assert index.lookup("green") == set()

    def test_array_elements_indexed(self):
        index = HashIndex("tags")
        index.add(1, {"tags": ["a", "b"]})
        assert index.lookup("a") == {1}
        assert index.lookup(["a", "b"]) == {1}

    def test_remove(self):
        index = HashIndex("c")
        index.add(1, {"c": "x"})
        index.remove(1, {"c": "x"})
        assert index.lookup("x") == set()
        assert len(index) == 0

    def test_missing_field_not_indexed(self):
        index = HashIndex("c")
        index.add(1, {"other": 1})
        assert len(index) == 0


class TestOrderedIndex:
    def test_range_inclusive_exclusive(self):
        index = OrderedIndex("v")
        for key, value in enumerate([10, 20, 30, 40]):
            index.add(key, {"v": value})
        assert index.range(lower=20) == {1, 2, 3}
        assert index.range(lower=20, include_lower=False) == {2, 3}
        assert index.range(upper=30) == {0, 1, 2}
        assert index.range(upper=30, include_upper=False) == {0, 1}
        assert index.range(lower=15, upper=35) == {1, 2}

    def test_range_restricted_to_type_bracket(self):
        index = OrderedIndex("v")
        index.add(1, {"v": 10})
        index.add(2, {"v": "text"})
        assert index.range(lower=5) == {1}

    def test_remove_specific_key_among_duplicates(self):
        index = OrderedIndex("v")
        index.add(1, {"v": 5})
        index.add(2, {"v": 5})
        index.remove(1, {"v": 5})
        assert index.range(lower=5, upper=5) == {2}


    def test_duplicates_cost_a_bisect_not_a_walk(self):
        """A low-cardinality field: 5k documents share one value.  The
        insert used to step over every equal entry with one
        ``compare_values`` call each (12.5M calls here, tens of
        seconds); with native keys it is one ``bisect_right``."""
        import time

        index = OrderedIndex("room")
        index.add("low", {"room": 1})
        index.add("high", {"room": 9})
        started = time.perf_counter()
        for key in range(5000):
            index.add(key, {"room": 5})
        assert index.range(lower=5, upper=5) == set(range(5000))
        assert index.range(lower=5, include_lower=False) == {"high"}
        assert index.range(upper=5, include_upper=False) == {"low"}
        # Stable: equal values keep insertion order.
        assert [pk for _, pk in index._entries[1:-1]] == list(range(5000))
        for key in range(5000):
            index.remove(key, {"room": 5})
        assert time.perf_counter() - started < 1.0
        assert index.range() == {"low", "high"}
        assert len(index) == 2

    def test_range_results_over_mixed_brackets(self):
        index = OrderedIndex("v")
        values = [None, float("nan"), -1, 0, 0.0, 2**60, "a", "b", [1], True]
        for key, value in enumerate(values):
            index.add(key, {"v": value})
        assert index.range() == set(range(len(values)))
        assert index.range(lower=0) == {3, 4, 5}          # numbers only
        assert index.range(upper=0, include_upper=False) == {1, 2}  # NaN too
        assert index.range(lower="a", upper="b") == {6, 7}
        assert index.range(lower=0, upper="zzz") == {3, 4, 5}  # lower's bracket
        index.remove(4, {"v": 0.0})                        # 0 == 0.0: one run
        assert index.range(lower=0, upper=0) == {3}


class TestIndexedFindEquivalence:
    """An indexed find must return exactly what a full scan returns."""

    @pytest.fixture
    def pair(self):
        plain = Collection("plain")
        indexed = Collection("indexed")
        indexed.ensure_index("v", "ordered")
        indexed.ensure_index("color", "hash")
        for i in range(100):
            doc = {"_id": i, "v": i % 17, "color": f"c{i % 5}"}
            plain.insert(dict(doc))
            indexed.insert(dict(doc))
        return plain, indexed

    @pytest.mark.parametrize(
        "filter_doc",
        [
            {"v": 5},
            {"v": {"$gte": 10}},
            {"v": {"$gt": 3, "$lt": 9}},
            {"color": "c2"},
            {"color": {"$in": ["c1", "c3"]}},
            {"v": {"$gte": 4}, "color": "c0"},
            {"v": {"$lte": 2}, "other": {"$exists": False}},
        ],
    )
    def test_equivalence(self, pair, filter_doc):
        plain, indexed = pair
        expected = {d["_id"] for d in plain.find(filter_doc)}
        actual = {d["_id"] for d in indexed.find(filter_doc)}
        assert actual == expected

    def test_index_created_after_inserts_backfills(self):
        collection = Collection("late")
        for i in range(20):
            collection.insert({"_id": i, "v": i})
        collection.ensure_index("v", "ordered")
        assert {d["_id"] for d in collection.find({"v": {"$gte": 15}})} == {
            15, 16, 17, 18, 19,
        }


class TestOplog:
    def test_sequences_are_monotonic(self):
        oplog = Oplog()
        first = oplog.append("c", WriteKind.INSERT, 1, 1, {"_id": 1})
        second = oplog.append("c", WriteKind.DELETE, 1, 2, None)
        assert second.sequence == first.sequence + 1

    def test_read_from(self):
        oplog = Oplog()
        for i in range(5):
            oplog.append("c", WriteKind.INSERT, i, 1, {"_id": i})
        entries = oplog.read_from(3)
        assert [e.sequence for e in entries] == [3, 4, 5]
        assert oplog.read_from(3, limit=1)[0].sequence == 3

    def test_capped_log_truncates(self):
        oplog = Oplog(capacity=3)
        for i in range(10):
            oplog.append("c", WriteKind.INSERT, i, 1, {"_id": i})
        assert len(oplog) == 3
        assert oplog.horizon == 8

    def test_stale_cursor(self):
        oplog = Oplog(capacity=2)
        for i in range(5):
            oplog.append("c", WriteKind.INSERT, i, 1, {"_id": i})
        with pytest.raises(StaleCursorError):
            oplog.read_from(1)

    def test_push_subscription(self):
        oplog = Oplog()
        seen = []
        unsubscribe = oplog.subscribe(seen.append)
        oplog.append("c", WriteKind.INSERT, 1, 1, {"_id": 1})
        unsubscribe()
        oplog.append("c", WriteKind.INSERT, 2, 1, {"_id": 2})
        assert len(seen) == 1

    def test_entry_converts_to_after_image(self):
        oplog = Oplog()
        entry = oplog.append("c", WriteKind.INSERT, 1, 3, {"_id": 1, "v": 2})
        after = entry.to_after_image()
        assert after.key == 1 and after.version == 3
        assert after.document == {"_id": 1, "v": 2}


class TestAfterImageIsTheCallers:
    """A write returns a copy of what it stored and logged: the caller
    may change it without rewriting the store, the oplog entry or what
    a log-tailing subscriber was sent."""

    def test_mutating_an_after_image_changes_nothing_else(self):
        collection = Collection("items")
        seen = Collector()
        provider = LogTailingProvider(collection)
        provider.subscribe({"v": {"$gte": 0}}, on_change=seen)
        inserted = collection.insert({"_id": 1, "v": 1, "tags": ["a"]})
        updated = collection.update(1, {"$set": {"v": 2}})
        for after in (inserted, updated):
            after.document["v"] = 999
            after.document["tags"].append("z")
        stored = {"_id": 1, "v": 2, "tags": ["a"]}
        assert collection.find_one({"_id": 1}) == stored
        entries = collection.oplog.read_from(1)
        assert [entry.after_image for entry in entries] == [
            {"_id": 1, "v": 1, "tags": ["a"]}, stored,
        ]
        assert [(n.match_type, n.document) for n in seen] == [
            (MatchType.ADD, {"_id": 1, "v": 1, "tags": ["a"]}),
            (MatchType.CHANGE, stored),
        ]
        provider.close()

    def test_a_tailer_hands_out_copies_of_the_stored_document(self):
        collection = Collection("items")
        seen = Collector()
        provider = LogTailingProvider(collection)
        provider.subscribe({"v": {"$gte": 0}}, on_change=seen)
        collection.insert({"_id": 1, "v": 1})
        seen[0].document["v"] = 999
        assert collection.find_one({"_id": 1}) == {"_id": 1, "v": 1}
        assert collection.oplog.read_from(1)[0].after_image == {"_id": 1, "v": 1}
        provider.close()

    def test_an_entry_converts_to_a_copy_of_the_stored_document(self):
        collection = Collection("items")
        collection.ensure_index("v", "hash")
        collection.ensure_index("w", "ordered")
        collection.insert({"_id": 1, "v": 1, "w": 5, "tags": ["a"]})
        after = collection.oplog.read_from(1)[0].to_after_image()
        after.document["v"] = 999
        after.document["w"] = -1
        after.document["tags"].append("z")
        stored = {"_id": 1, "v": 1, "w": 5, "tags": ["a"]}
        assert collection.find_one({"_id": 1}) == stored
        assert collection.find_one({"v": 1}) == stored
        assert collection.find({"w": {"$gte": 5}}) == [stored]
        assert collection.oplog.read_from(1)[0].after_image == stored


class TestExplain:
    def test_full_scan_without_indexes(self):
        collection = Collection("plain")
        for i in range(10):
            collection.insert({"_id": i, "v": i})
        plan = collection.explain({"v": {"$gte": 5}})
        assert plan["plan"] == "full-scan"
        assert plan["documents_examined"] == 10
        assert plan["indexes_available"] == []

    def test_index_plan_reports_candidates(self):
        collection = Collection("indexed")
        collection.ensure_index("v", "ordered")
        for i in range(10):
            collection.insert({"_id": i, "v": i})
        plan = collection.explain({"v": {"$gte": 5}})
        assert plan["plan"] == "index"
        assert plan["documents_examined"] == 5
        assert plan["documents_total"] == 10
        assert plan["indexes_available"] == ["v"]

    def test_unindexed_predicate_falls_back(self):
        collection = Collection("partial")
        collection.ensure_index("v", "hash")
        collection.insert({"_id": 1, "v": 1, "w": 1})
        plan = collection.explain({"w": 1})
        assert plan["plan"] == "full-scan"

    def test_empty_filter_is_full_scan(self):
        collection = Collection("empty")
        collection.ensure_index("v", "hash")
        assert collection.explain({})["plan"] == "full-scan"
