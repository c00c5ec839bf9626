"""The write record: one validated ``AfterImage`` from store to cell.

A write is built once, by the store, and reaches every matching cell
as that object: the broker and the grid pass it by reference, and the
process wire pickles it into the batch's one stream.  It is a
``NamedTuple`` validated at construction; like ``ChangeNotification``,
its trailing ``trace`` rides along without taking part in equality,
hash or repr.
"""

import pytest

from repro.event.wire import BinaryCodec
from repro.obs.tracing import trace_of
from repro.store.collection import Collection
from repro.types import AfterImage, WriteKind

TRACE = {"id": "t-1", "kind": "write", "key": 1, "start": 0.0,
         "spans": ["publish", 0.0, None]}


def image(**overrides):
    fields = dict(key=1, version=2, kind=WriteKind.UPDATE,
                  document={"_id": 1, "v": 3}, collection="items",
                  timestamp=4.5, store_id=6, sequence=7)
    fields.update(overrides)
    return AfterImage(**fields)


class TestValidation:
    def test_a_delete_carries_no_document(self):
        with pytest.raises(ValueError,
                           match="^delete after-image must carry no document$"):
            AfterImage(1, 1, WriteKind.DELETE, {"_id": 1})

    @pytest.mark.parametrize("kind", [WriteKind.INSERT, WriteKind.UPDATE])
    def test_any_other_kind_needs_one(self, kind):
        with pytest.raises(ValueError,
                           match=f"^{kind.value} after-image needs a document$"):
            AfterImage(1, 1, kind, None)

    def test_positional_and_keyword_forms_agree(self):
        assert image() == AfterImage(1, 2, WriteKind.UPDATE, {"_id": 1, "v": 3},
                                     "items", 4.5, 6, 7)

    def test_defaults(self):
        after = AfterImage("k", 1, WriteKind.DELETE, None)
        assert (after.collection, after.timestamp, after.store_id,
                after.sequence, after.trace) == ("default", 0.0, 0, 0, None)
        assert after._fields == ("key", "version", "kind", "document",
                                 "collection", "timestamp", "store_id",
                                 "sequence", "trace")


class TestValue:
    def test_immutable(self):
        after = image()
        with pytest.raises(AttributeError):
            after.version = 3
        with pytest.raises(AttributeError):
            after.extra = 1

    def test_is_delete(self):
        assert AfterImage(1, 1, WriteKind.DELETE, None).is_delete
        assert not image().is_delete

    def test_replace_derives_an_after_image(self):
        copy = image()._replace(document={"_id": 1, "v": 9})
        assert type(copy) is AfterImage
        assert copy.document == {"_id": 1, "v": 9}
        assert copy.sequence == 7

    def test_trace_is_left_out_of_equality_hash_and_repr(self):
        plain, traced = image(), image(trace=TRACE)
        assert traced == plain and not traced != plain
        assert hash(AfterImage(1, 1, WriteKind.DELETE, None, trace=TRACE)) \
            == hash(AfterImage(1, 1, WriteKind.DELETE, None))
        assert repr(traced) == repr(plain)
        assert "trace" not in repr(traced)
        assert repr(plain).startswith("AfterImage(key=1, version=2, ")
        assert tuple(traced) != tuple(plain)
        assert trace_of(traced) is TRACE and trace_of(plain) is None

    def test_fields_other_than_trace_count(self):
        assert image(version=3) != image()
        assert image(sequence=8) != image()

    def test_never_equals_a_plain_tuple(self):
        after = image()
        as_tuple = tuple(after)
        assert after != as_tuple and as_tuple != after
        assert not after == as_tuple and not as_tuple == after

    def test_a_corrupt_trace_reads_as_none(self):
        assert trace_of(image(trace="\x00corrupted")) is None


class TestOverTheWire:
    def batch(self):
        collection = Collection("items")
        images = []
        collection.on_write(images.append)
        for key in range(4):
            collection.insert({"_id": key, "name": f"n{key}", "score": key})
        collection.update(0, {"$set": {"score": 10}})
        collection.delete(1)
        images[0] = images[0]._replace(trace=TRACE)
        return images

    def test_a_batch_round_trip_returns_equal_after_images(self):
        codec = BinaryCodec()
        images = self.batch()
        decoded = codec.decode_batch(codec.encode_batch(images))
        assert decoded == images
        assert all(type(after) is AfterImage for after in decoded)
        assert [tuple(after) for after in decoded] == \
            [tuple(after) for after in images]
        assert decoded[0].trace == TRACE
        assert decoded[-1].is_delete

    def test_the_documents_of_a_batch_share_field_names(self):
        codec = BinaryCodec()
        decoded = codec.decode_batch(codec.encode_batch(self.batch()))
        first, second = (after.document for after in decoded[:2])
        for name in ("_id", "name", "score"):
            (mine,) = [key for key in first if key == name]
            (theirs,) = [key for key in second if key == name]
            assert mine is theirs
