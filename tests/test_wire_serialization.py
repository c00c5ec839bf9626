"""Wire-format round-trip tests for everything crossing the event layer.

"The event layer ... handles data transmissions with entirely opaque
payloads" (Section 5.3) — so every message must survive JSON encoding.
"""

import pytest

from repro.core.cluster import deserialize_query, serialize_query
from repro.core.remote import deserialize_after_image, serialize_after_image
from repro.core.notifications import QueryChange
from repro.event.codec import JsonCodec
from repro.query.engine import Query
from repro.types import AfterImage, MatchType, WriteKind

CODEC = JsonCodec()


def json_roundtrip(payload):
    return CODEC.decode(CODEC.encode(payload))


class TestQuerySerialization:
    @pytest.mark.parametrize(
        "query",
        [
            Query({"a": 1}),
            Query({"a": {"$gte": 1, "$lt": 9}}, collection="articles"),
            Query({"$or": [{"a": 1}, {"b": {"$in": [1, 2]}}]}),
            Query({}, sort=[("year", -1), ("title", 1)], limit=3, offset=2),
            Query({"name": {"$regex": "^a", "$options": "i"}}),
            Query({"$text": {"$search": "real time"}}),
            Query({"loc": {"$geoWithin": {"$box": [[0, 0], [1, 1]]}}}),
        ],
    )
    def test_roundtrip_preserves_identity(self, query):
        wire = json_roundtrip(serialize_query(query))
        restored = deserialize_query(wire)
        assert restored == query
        assert restored.hash == query.hash
        assert restored.query_id == query.query_id

    def test_sort_directions_survive(self):
        query = Query({}, sort=[("a", -1)], limit=1)
        restored = deserialize_query(json_roundtrip(serialize_query(query)))
        assert restored.sort.fields == query.sort.fields


class TestAfterImageSerialization:
    def test_update_roundtrip(self):
        after = AfterImage(7, 3, WriteKind.UPDATE,
                           {"_id": 7, "v": [1, {"x": None}]},
                           collection="c", timestamp=12.5)
        restored = deserialize_after_image(
            json_roundtrip(serialize_after_image(after))
        )
        assert restored == after

    def test_delete_roundtrip(self):
        after = AfterImage("key", 9, WriteKind.DELETE, None)
        restored = deserialize_after_image(
            json_roundtrip(serialize_after_image(after))
        )
        assert restored.is_delete and restored.version == 9

    def test_wire_form_is_tagged_as_write(self):
        after = AfterImage(1, 1, WriteKind.INSERT, {"_id": 1})
        assert serialize_after_image(after)["kind"] == "write"


class TestChangeSerialization:
    """A change crosses the worker channel as the NamedTuple it is."""

    @staticmethod
    def worker_roundtrip(change):
        from repro.event.wire import BinaryCodec

        codec = BinaryCodec()
        return codec.decode(codec.encode(change))

    @pytest.mark.parametrize(
        "change",
        [
            QueryChange("q1", MatchType.ADD, key=1, document={"_id": 1},
                        index=0),
            QueryChange("q1", MatchType.CHANGE_INDEX, key="k",
                        document={"_id": "k"}, index=2, old_index=5,
                        timestamp=1.25),
            QueryChange("q1", MatchType.REMOVE, key=1,
                        document={"_id": 1, "v": 2}),
            QueryChange("q1", MatchType.ERROR, key=None,
                        error="slack exhausted"),
        ],
    )
    def test_roundtrip(self, change):
        restored = self.worker_roundtrip(change)
        assert restored == change
        assert type(restored) is QueryChange

    def test_error_flag_survives(self):
        change = QueryChange("q1", MatchType.ERROR, error="x")
        assert self.worker_roundtrip(change).is_error


class TestJsonCodecStrictness:
    """Round-trip fidelity regression: non-string keys must fail the
    encode instead of coming back silently stringified."""

    def test_non_string_key_raises(self):
        from repro.errors import CodecError

        with pytest.raises(CodecError):
            JsonCodec().encode({"versions": {1: 3}})

    def test_nested_non_string_key_raises(self):
        from repro.errors import CodecError

        with pytest.raises(CodecError):
            JsonCodec().encode([{"ok": [{"deep": {(1, 2): "x"}}]}])

    def test_permissive_mode_restores_seed_behavior(self):
        wire = JsonCodec(strict=False).encode({1: "a"})
        assert JsonCodec().decode(wire) == {"1": "a"}

    def test_string_keys_pass(self):
        payload = {"versions": {"1": 3}, "items": [1, 2, {"k": None}]}
        assert json_roundtrip(payload) == payload


class TestBinaryCodec:
    """The process model's compact wire format."""

    def test_envelope_roundtrip_preserves_key_types(self):
        from repro.event.wire import BinaryCodec

        codec = BinaryCodec()
        payload = {"versions": {1: 3, "a": 4}, "pair": (1, 2)}
        restored = codec.decode(codec.encode(payload))
        assert restored == payload
        assert restored["pair"] == (1, 2)

    def test_lazy_document_defers_decode(self):
        from repro.event.wire import BinaryCodec, LazyDocument, WireStats

        stats = WireStats()
        codec = BinaryCodec(lazy_documents=True, stats=stats)
        envelope = {"kind": "write", "key": 1, "version": 2,
                    "collection": "c", "document": {"_id": 1, "v": 9}}
        restored = codec.decode(codec.encode(envelope))
        document = restored["document"]
        assert isinstance(document, LazyDocument)
        assert not document.materialized
        assert stats.lazy_materialized == 0
        assert document["v"] == 9  # first access materializes
        assert document.materialized
        assert stats.lazy_materialized == 1
        assert dict(document) == envelope["document"]

    def test_lazy_document_reencodes_from_raw(self):
        from repro.event.wire import BinaryCodec, WireStats

        stats = WireStats()
        codec = BinaryCodec(lazy_documents=True, stats=stats)
        envelope = {"kind": "write", "key": 1, "version": 1,
                    "collection": "c", "document": {"_id": 1, "v": 1}}
        hop1 = codec.decode(codec.encode(envelope))
        hop2 = codec.decode(codec.encode(hop1))
        assert stats.lazy_materialized == 0
        assert dict(hop2["document"]) == envelope["document"]

    def test_corrupt_header_raises(self):
        from repro.errors import CodecError
        from repro.event.wire import BinaryCodec

        codec = BinaryCodec()
        with pytest.raises(CodecError):
            codec.decode(b"")
        with pytest.raises(CodecError):
            codec.decode(b"\x00\x01garbage")
        wire = bytearray(codec.encode({"a": 1}))
        wire[0] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decode(bytes(wire))

    def test_batch_and_single_are_distinct(self):
        from repro.errors import CodecError
        from repro.event.wire import BinaryCodec

        codec = BinaryCodec()
        with pytest.raises(CodecError):
            codec.decode_batch(codec.encode({"a": 1}))
        with pytest.raises(CodecError):
            codec.decode(codec.encode_batch([{"a": 1}]))

    def test_batch_interns_repeated_keys(self):
        """The batch pickle stream's memo table interns repeated
        collection/field names: N similar envelopes cost far less than
        N single-message encodings."""
        from repro.event.wire import BinaryCodec

        codec = BinaryCodec()
        envelopes = [
            {"kind": "write", "collection": "shared-collection-name",
             "key": i, "version": 1,
             "document": {"field_one": i, "field_two": "x" * 5}}
            for i in range(32)
        ]
        batched = len(codec.encode_batch(envelopes))
        singles = sum(len(codec.encode(e)) for e in envelopes)
        assert batched < 0.8 * singles


class TestFrameBounds:
    """``recv_frame`` on a hostile stream: always ``FrameError``, never
    a hang.  The far end stays open in every case except the truncated
    ones, so a reader that trusted the header would block forever — the
    socket timeout turns that into a failure instead of a stuck suite."""

    @pytest.fixture
    def channel(self):
        import socket

        near, far = socket.socketpair()
        near.settimeout(2.0)
        yield near, far
        near.close()
        far.close()

    def test_roundtrip(self, channel):
        from repro.event.wire import MSG_BATCH, recv_frame, send_frame

        near, far = channel
        assert send_frame(far, MSG_BATCH, 7, 9, b"payload") == 13 + 7
        assert recv_frame(near) == (MSG_BATCH, 7, 9, b"payload")
        send_frame(far, MSG_BATCH, 1, 2, b"")
        assert recv_frame(near) == (MSG_BATCH, 1, 2, b"")

    def test_payload_arriving_in_pieces_is_reassembled(self, channel):
        from repro.event.wire import FRAME_HEADER, MSG_REPLY, recv_frame

        near, far = channel
        payload = bytes(range(256)) * 64
        wire = FRAME_HEADER.pack(MSG_REPLY, 1, 2, len(payload)) + payload
        for start in range(0, len(wire), 1000):
            far.sendall(wire[start:start + 1000])
        assert recv_frame(near) == (MSG_REPLY, 1, 2, payload)

    def test_truncated_header_raises(self, channel):
        from repro.event.wire import FRAME_HEADER, MSG_REPLY, FrameError, recv_frame

        near, far = channel
        far.sendall(FRAME_HEADER.pack(MSG_REPLY, 1, 2, 0)[:5])
        far.close()
        with pytest.raises(FrameError, match="5/13"):
            recv_frame(near)

    def test_truncated_body_raises(self, channel):
        from repro.event.wire import FRAME_HEADER, MSG_REPLY, FrameError, recv_frame

        near, far = channel
        far.sendall(FRAME_HEADER.pack(MSG_REPLY, 1, 2, 10) + b"short")
        far.close()
        with pytest.raises(FrameError, match="5/10"):
            recv_frame(near)

    @pytest.mark.parametrize("kind", [0, 8, 255])
    def test_unknown_kind_raises_before_the_body_is_read(self, channel, kind):
        from repro.event.wire import FRAME_HEADER, FrameError, recv_frame

        near, far = channel
        # Declares 100 bytes and sends none: only a reader that checks
        # the kind first comes back.
        far.sendall(FRAME_HEADER.pack(kind, 1, 2, 100))
        with pytest.raises(FrameError, match="unknown kind"):
            recv_frame(near)

    def test_oversized_length_raises_before_the_body_is_read(self, channel):
        from repro.event.wire import (
            FRAME_HEADER,
            MAX_FRAME_BYTES,
            MSG_REPLY,
            FrameError,
            recv_frame,
        )

        near, far = channel
        far.sendall(FRAME_HEADER.pack(MSG_REPLY, 1, 2, MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            recv_frame(near)
        far.sendall(FRAME_HEADER.pack(MSG_REPLY, 1, 2, 2 ** 32 - 1))
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            recv_frame(near)

    def test_oversized_payload_is_refused_at_the_sender(self, channel,
                                                        monkeypatch):
        from repro.event import wire

        near, far = channel
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        with pytest.raises(wire.FrameError, match="MAX_FRAME_BYTES"):
            wire.send_frame(far, wire.MSG_BATCH, 1, 2, b"x" * 17)
        # Nothing went out: the channel is still in sync.
        wire.send_frame(far, wire.MSG_BATCH, 1, 3, b"x" * 16)
        assert wire.recv_frame(near) == (wire.MSG_BATCH, 1, 3, b"x" * 16)
