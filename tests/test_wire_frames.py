"""The binary codec's frames: one pickle stream each.

A message is a three-byte header (magic, version, flags) and one
pickle; a batch is that header, the envelope count and one pickle of
the whole list.  Hypothesis draws write envelopes shaped like the
benchmark harness's: the after-image of an evaluation document (five
10-character strings, four ints and a unique int), as a store's write
listener receives it and the grid ships it, with deletes in between.
The suite checks that a broken frame fails as
:class:`~repro.errors.CodecError` and as nothing else, that a batch
decodes in one unpickling call back into after-images, and that the
documents of one batch share their field-name strings.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.event import wire
from repro.event.wire import BinaryCodec
from repro.store.collection import Collection
from repro.types import AfterImage

FIELD_NAMES = ["_id", "s0", "s1", "s2", "s3", "s4",
               "i0", "i1", "i2", "i3", "random"]

words = st.text(alphabet=string.ascii_letters, min_size=10, max_size=10)
ints = st.integers(0, 999_999)


@st.composite
def evaluation_documents(draw, key):
    return {
        "_id": key,
        "s0": draw(words), "s1": draw(words), "s2": draw(words),
        "s3": draw(words), "s4": draw(words),
        "i0": draw(ints), "i1": draw(ints), "i2": draw(ints),
        "i3": draw(ints), "random": draw(ints),
    }


@st.composite
def write_envelopes(draw, min_size=0, max_size=12):
    """What an app server publishes for a run of saves and deletes."""
    collection = Collection("test")
    images = []
    collection.on_write(images.append)
    steps = draw(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                          min_size=min_size, max_size=max_size))
    for key, delete in steps:
        key = f"w{key}"
        if delete and key in collection:
            collection.delete(key)
        else:
            collection.save(draw(evaluation_documents(key)))
    return images


def header_size(frame):
    """The header bytes of *frame*: magic, version, flags and, for a
    batch, the varint envelope count."""
    if not frame[2]:
        return 3
    size = 3
    while frame[size] & 0x80:
        size += 1
    return size + 1


def frames(codec, envelopes):
    single = [codec.encode(envelope) for envelope in envelopes[:2]]
    return [(codec.decode, frame) for frame in single] + [
        (codec.decode_batch, codec.encode_batch(envelopes))
    ]


class TestBrokenFrames:
    @given(envelopes=write_envelopes())
    @settings(max_examples=30, deadline=None)
    def test_every_strict_prefix_raises_codec_error(self, envelopes):
        codec = BinaryCodec()
        for decode, frame in frames(codec, envelopes):
            for end in range(len(frame)):
                with pytest.raises(CodecError):
                    decode(frame[:end])

    @given(envelopes=write_envelopes(), mask=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_every_corrupted_header_byte_raises_codec_error(self, envelopes,
                                                            mask):
        codec = BinaryCodec()
        for decode, frame in frames(codec, envelopes):
            for position in range(header_size(frame)):
                corrupted = bytearray(frame)
                corrupted[position] ^= mask
                with pytest.raises(CodecError):
                    decode(bytes(corrupted))

    def test_a_frame_of_the_former_layout_is_refused(self):
        frame = bytearray(BinaryCodec().encode({"kind": "write"}))
        frame[1] = 1
        with pytest.raises(CodecError, match="version 1"):
            BinaryCodec().decode(bytes(frame))


class TestBatchDecode:
    @given(envelopes=write_envelopes(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_decode_batch_yields_after_images(self, envelopes):
        codec = BinaryCodec()
        decoded = codec.decode_batch(codec.encode_batch(envelopes))
        assert decoded == envelopes
        assert type(decoded) is list
        for envelope in decoded:
            assert type(envelope) is AfterImage
            assert type(envelope.document) in (dict, type(None))

    @given(envelopes=write_envelopes(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_the_documents_of_a_batch_share_their_field_names(self,
                                                             envelopes):
        codec = BinaryCodec()
        decoded = codec.decode_batch(codec.encode_batch(envelopes))
        documents = [e.document for e in decoded if e.document]
        names = {}
        for document in documents:
            assert sorted(document) == sorted(FIELD_NAMES)
            for name in document:
                assert names.setdefault(name, name) is name

    @given(envelopes=write_envelopes())
    @settings(max_examples=20, deadline=None)
    def test_a_batch_frame_is_decoded_by_one_unpickling_call(self,
                                                             envelopes):
        codec = BinaryCodec()
        frame = codec.encode_batch(envelopes)
        calls = []
        loads = wire._pickle_loads

        def counting(data):
            calls.append(len(data))
            return loads(data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wire, "_pickle_loads", counting)
            assert codec.decode_batch(frame) == envelopes
        assert len(calls) == 1

    def test_the_stats_count_messages(self):
        codec = BinaryCodec()
        envelopes = [{"kind": "write", "key": key} for key in range(3)]
        codec.decode_batch(codec.encode_batch(envelopes))
        codec.decode(codec.encode(envelopes[0]))
        assert codec.stats.messages_encoded == 4
        assert codec.stats.messages_decoded == 4
