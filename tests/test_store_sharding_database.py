"""Sharded collection and database namespace tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectionNotFoundError
from repro.store.database import Database
from repro.store.documents import (
    deep_copy,
    get_path,
    set_path,
    validate_document,
    validated_copy,
)
from repro.store.sharding import ShardedCollection
from repro.errors import InvalidDocumentError


class Subclassed(dict):
    pass


SCALARS = (str, int, float, bool, type(None))


def reference_error(value, path="<root>"):
    """The first error in document order, as the store's former
    per-field validator reported it (None: valid)."""
    if isinstance(value, SCALARS):
        return None
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                return f"non-string field name {key!r} under {path}"
            if key.startswith("$"):
                return (f"field name {key!r} under {path} "
                        f"must not start with '$'")
            if "." in key:
                return (f"field name {key!r} under {path} "
                        f"must not contain '.'")
            error = reference_error(item, f"{path}.{key}")
            if error:
                return error
        return None
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            error = reference_error(item, f"{path}[{index}]")
            if error:
                return error
        return None
    return f"unsupported value type {type(value).__name__} under {path}"


#: Field names, valid and not: the validator's every branch.
field_names = st.one_of(st.text(max_size=3),
                        st.sampled_from(["$b", "c.d", "e$", 7, None]))


class TestDocumentsHelpers:
    def test_get_path(self):
        doc = {"a": {"b": [10, {"c": 1}]}}
        assert get_path(doc, "a.b.0") == 10
        assert get_path(doc, "a.b.1.c") == 1
        assert get_path(doc, "a.x", "fallback") == "fallback"

    def test_set_path_creates_intermediates(self):
        doc = {}
        set_path(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}

    def test_deep_copy_rejects_foreign_types(self):
        with pytest.raises(InvalidDocumentError):
            deep_copy({"a": object()})

    def test_deep_copy_is_deep(self):
        original = {"a": [{"b": 1}]}
        clone = deep_copy(original)
        clone["a"][0]["b"] = 2
        assert original["a"][0]["b"] == 1

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=5)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
        ),
        max_leaves=25,
    ))
    @settings(max_examples=150, deadline=None)
    def test_deep_copy_is_equal_and_shares_no_container(self, value):
        document = {"_id": 1, "value": value}
        clone = deep_copy(document)
        assert clone == document
        assert not containers(clone) & containers(document)

    def test_deep_copy_turns_tuples_and_subclasses_into_plain_containers(self):
        class Mapping(dict):
            pass

        class Sequence(list):
            pass

        clone = deep_copy({"t": (1, [2]), "m": Mapping(a=1), "s": Sequence([3])})
        assert clone == {"t": [1, [2]], "m": {"a": 1}, "s": [3]}
        assert [type(clone[key]) for key in ("t", "m", "s")] == [list, dict, list]
        with pytest.raises(InvalidDocumentError):
            deep_copy([1, {"a": (2, object())}])

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.just(object())),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(field_names, children, max_size=3),
            st.dictionaries(field_names, children,
                            max_size=3).map(Subclassed),
        ),
        max_leaves=12,
    ), st.sampled_from([1, "k", None, True]))
    @settings(max_examples=300, deadline=None)
    def test_validated_copy_is_validate_then_deep_copy(self, value, key):
        """The store's one walk over a write's input: the error the
        per-field validator reports, or the copy ``deep_copy`` makes."""
        document = {"_id": key, "value": value}
        error = reference_error(document)
        if key is None or key is True:
            error = f"'_id' must be a string or number, got {type(key)}"
        if error is not None:
            for check in (validate_document, validated_copy):
                with pytest.raises(InvalidDocumentError) as info:
                    check(document)
                assert str(info.value) == error
            return
        validate_document(document)
        expected = deep_copy(document)
        clone = validated_copy(document)
        assert repr(clone) == repr(expected)
        assert not containers(clone) & containers(document)


def containers(value, found=None):
    """The ids of every dict and list reachable from *value*."""
    found = set() if found is None else found
    if isinstance(value, (dict, list)):
        found.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            containers(item, found)
    return found


class TestShardedCollection:
    @pytest.fixture
    def sharded(self):
        collection = ShardedCollection("test", shards=4)
        for i in range(50):
            collection.insert({"_id": i, "v": i % 10})
        return collection

    def test_routing_is_stable(self, sharded):
        assert sharded.shard_for(7) is sharded.shard_for(7)

    def test_all_shards_receive_documents(self, sharded):
        sizes = [len(shard) for shard in sharded.shards]
        assert sum(sizes) == 50
        assert all(size > 0 for size in sizes)

    def test_point_reads(self, sharded):
        assert sharded.get(13)["v"] == 3
        assert 13 in sharded

    def test_scatter_gather_find(self, sharded):
        result = sharded.find({"v": {"$gte": 8}})
        assert {d["_id"] for d in result} == {
            i for i in range(50) if i % 10 >= 8
        }

    def test_global_sort_merge(self, sharded):
        result = sharded.find({}, sort=[("v", 1), ("_id", 1)], limit=5)
        assert [d["_id"] for d in result] == [0, 10, 20, 30, 40]

    def test_skip_applies_after_merge(self, sharded):
        everything = sharded.find({}, sort=[("_id", 1)])
        sliced = sharded.find({}, sort=[("_id", 1)], skip=10, limit=5)
        assert sliced == everything[10:15]

    def test_update_delete_route_to_owner(self, sharded):
        sharded.update(7, {"$set": {"v": 99}})
        assert sharded.get(7)["v"] == 99
        sharded.delete(7)
        assert sharded.get(7) is None
        assert sharded.count() == 49

    def test_write_listener_spans_shards(self, sharded):
        seen = []
        unsubscribe = sharded.on_write(seen.append)
        sharded.insert({"_id": 1000, "v": 1})
        sharded.insert({"_id": 1001, "v": 1})
        assert len(seen) == 2
        unsubscribe()

    def test_versions_tracked_per_shard(self, sharded):
        sharded.update(3, {"$set": {"v": 1}})
        assert sharded.version_of(3) == 2

    def test_single_shard_allowed(self):
        assert len(ShardedCollection(shards=1).shards) == 1
        with pytest.raises(ValueError):
            ShardedCollection(shards=0)


class TestDatabase:
    def test_lazy_collection_creation(self):
        db = Database()
        articles = db.collection("articles")
        assert db.collection("articles") is articles
        assert "articles" in db

    def test_create_false_raises(self):
        db = Database()
        with pytest.raises(CollectionNotFoundError):
            db.collection("missing", create=False)

    def test_shared_oplog_across_collections(self):
        db = Database()
        db["a"].insert({"_id": 1})
        db["b"].insert({"_id": 2})
        entries = db.oplog.read_from(1)
        assert [e.collection for e in entries] == ["a", "b"]

    def test_drop_collection(self):
        db = Database()
        db["temp"].insert({"_id": 1})
        db.drop_collection("temp")
        assert "temp" not in db
        assert db["temp"].count() == 0

    def test_collection_names_sorted(self):
        db = Database()
        db["z"], db["a"]
        assert db.collection_names() == ["a", "z"]
