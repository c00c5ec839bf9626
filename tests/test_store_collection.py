"""Collection CRUD, find, find_and_modify and after-image tests."""

import pytest

from repro.errors import (
    DocumentNotFoundError,
    DuplicateKeyError,
    InvalidDocumentError,
)
from repro.store.collection import Collection
from repro.types import MatchType, WriteKind


@pytest.fixture
def articles(clock):
    collection = Collection("articles", clock=clock)
    rows = [
        ("DB Fun", 2018),
        ("No SQL!", 2018),
        ("BaaS For Dummies", 2017),
        ("Query Languages", 2017),
        ("Streams in Action", 2016),
        ("SaaS For Dummies", 2016),
    ]
    for index, (title, year) in enumerate(rows, start=1):
        collection.insert({"_id": index, "title": title, "year": year})
    return collection


class TestInsert:
    def test_insert_returns_versioned_after_image(self, collection):
        after = collection.insert({"_id": 1, "v": 10})
        assert after.kind is WriteKind.INSERT
        assert after.version == 1
        assert after.document == {"_id": 1, "v": 10}

    def test_duplicate_key(self, collection):
        collection.insert({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert({"_id": 1})

    def test_missing_id(self, collection):
        with pytest.raises(InvalidDocumentError):
            collection.insert({"v": 1})

    def test_invalid_field_names(self, collection):
        with pytest.raises(InvalidDocumentError):
            collection.insert({"_id": 1, "$bad": 1})
        with pytest.raises(InvalidDocumentError):
            collection.insert({"_id": 1, "a.b": 1})

    @pytest.mark.parametrize("document, message", [
        ({"_id": 1, "a": {"b": [{"ok": 1}, {"$x": 1}]}},
         "field name '$x' under <root>.a.b[1] must not start with '$'"),
        ({"_id": 1, "a": {"b": {"c.d": 1}}},
         "field name 'c.d' under <root>.a.b must not contain '.'"),
        ({"_id": 1, "a": [[0, {"e": {3: "x"}}]]},
         "non-string field name 3 under <root>.a[0][1].e"),
        ({"_id": 1, "a$b": {"c": [1, {2}]}, "$later": 1},
         "unsupported value type set under <root>.a$b.c[1]"),
    ])
    def test_nested_errors_name_the_path(self, collection, document,
                                         message):
        """The path is built only when raising; the message is the one
        a per-field formatted path gave, and the first bad field in
        document order is the one reported."""
        with pytest.raises(InvalidDocumentError) as info:
            collection.insert(document)
        assert str(info.value) == message

    def test_insert_copies_the_document(self, collection):
        source = {"_id": 1, "nested": {"v": 1}}
        collection.insert(source)
        source["nested"]["v"] = 99
        assert collection.get(1)["nested"]["v"] == 1


class TestVersioning:
    """Versions increase on every write — the staleness-avoidance basis."""

    def test_version_sequence(self, collection):
        collection.insert({"_id": 1, "v": 0})
        assert collection.version_of(1) == 1
        collection.update(1, {"$set": {"v": 1}})
        assert collection.version_of(1) == 2
        collection.replace({"_id": 1, "v": 2})
        assert collection.version_of(1) == 3
        after = collection.delete(1)
        assert after.version == 4

    def test_unknown_key_has_version_zero(self, collection):
        assert collection.version_of("nope") == 0

    def test_reinsert_after_delete_stays_monotone(self, collection):
        """A re-insert must outrank the delete tombstone's version, or the
        staleness protocol drops the re-insert on every downstream stage."""
        collection.insert({"_id": 1, "v": 0})
        collection.delete(1)
        after = collection.insert({"_id": 1, "v": 1})
        assert after.version == 3
        assert collection.version_of(1) == 3


class TestUpdateAndDelete:
    def test_update_applies_operators(self, collection):
        collection.insert({"_id": 1, "count": 1})
        after = collection.update(1, {"$inc": {"count": 4}})
        assert after.document["count"] == 5
        assert after.kind is WriteKind.UPDATE

    def test_update_missing_document(self, collection):
        with pytest.raises(DocumentNotFoundError):
            collection.update(9, {"$set": {"a": 1}})

    def test_delete_after_image_is_null(self, collection):
        collection.insert({"_id": 1})
        after = collection.delete(1)
        assert after.kind is WriteKind.DELETE
        assert after.document is None
        assert 1 not in collection

    def test_delete_missing(self, collection):
        with pytest.raises(DocumentNotFoundError):
            collection.delete(1)

    def test_save_upserts(self, collection):
        first = collection.save({"_id": 1, "v": 1})
        second = collection.save({"_id": 1, "v": 2})
        assert first.kind is WriteKind.INSERT
        assert second.kind is WriteKind.UPDATE
        assert collection.get(1)["v"] == 2


class TestFindAndModify:
    """The paper uses findAndModify to retrieve after-images on writes."""

    def test_update_document_form(self, collection):
        collection.insert({"_id": 1, "v": 1})
        after = collection.find_and_modify(1, {"$set": {"v": 2}})
        assert after.document == {"_id": 1, "v": 2}

    def test_replacement_form(self, collection):
        collection.insert({"_id": 1, "v": 1})
        after = collection.find_and_modify(1, {"_id": 1, "w": 9})
        assert after.document == {"_id": 1, "w": 9}

    def test_upsert_with_operators(self, collection):
        after = collection.find_and_modify(5, {"$set": {"v": 1}}, upsert=True)
        assert after.kind is WriteKind.INSERT
        assert after.document == {"_id": 5, "v": 1}

    def test_upsert_replacement(self, collection):
        after = collection.find_and_modify(5, {"v": 3}, upsert=True)
        assert after.document == {"_id": 5, "v": 3}

    def test_remove(self, collection):
        collection.insert({"_id": 1})
        after = collection.find_and_modify(1, remove=True)
        assert after.kind is WriteKind.DELETE

    def test_replacement_id_mismatch(self, collection):
        collection.insert({"_id": 1})
        with pytest.raises(InvalidDocumentError):
            collection.find_and_modify(1, {"_id": 2, "v": 1})

    def test_requires_update_or_remove(self, collection):
        with pytest.raises(InvalidDocumentError):
            collection.find_and_modify(1)


class TestFind:
    def test_filter(self, articles):
        result = articles.find({"year": 2017})
        assert {d["_id"] for d in result} == {3, 4}

    def test_find_returns_copies(self, articles):
        articles.find({"year": 2017})[0]["title"] = "mutated"
        assert articles.get(3)["title"] == "BaaS For Dummies"

    def test_paper_example_query(self, articles):
        """Figure 3: ORDER BY year DESC OFFSET 2 LIMIT 3."""
        result = articles.find({}, sort=[("year", -1)], skip=2, limit=3)
        assert [d["_id"] for d in result] == [3, 4, 5]

    def test_sort_limit(self, articles):
        result = articles.find({}, sort=[("year", -1)], limit=2)
        assert [d["_id"] for d in result] == [1, 2]

    def test_find_one(self, articles):
        assert articles.find_one({"year": 2016})["_id"] == 5
        assert articles.find_one({"year": 1999}) is None

    def test_count(self, articles):
        assert articles.count() == 6
        assert articles.count({"year": {"$gte": 2017}}) == 4

    def test_execute_parsed_query(self, articles):
        from repro.query.engine import Query

        query = Query({}, collection="articles", sort=[("year", -1)],
                      limit=3, offset=2)
        assert [d["_id"] for d in articles.execute(query)] == [3, 4, 5]


class TestWriteListeners:
    def test_listener_receives_every_write(self, collection):
        seen = []
        unsubscribe = collection.on_write(seen.append)
        collection.insert({"_id": 1})
        collection.update(1, {"$set": {"a": 1}})
        collection.delete(1)
        assert [a.kind for a in seen] == [
            WriteKind.INSERT, WriteKind.UPDATE, WriteKind.DELETE,
        ]
        unsubscribe()
        collection.insert({"_id": 2})
        assert len(seen) == 3

    def test_oplog_records_every_write(self, collection):
        collection.insert({"_id": 1, "v": 0})
        collection.update(1, {"$inc": {"v": 1}})
        collection.delete(1)
        entries = collection.oplog.read_from(1)
        assert [e.kind for e in entries] == [
            WriteKind.INSERT, WriteKind.UPDATE, WriteKind.DELETE,
        ]
        assert [e.version for e in entries] == [1, 2, 3]
