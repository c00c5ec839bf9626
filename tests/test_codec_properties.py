"""Property-based round-trip suites for every wire codec.

Hypothesis generates BSON-ish payloads (nested dicts/arrays, unicode
keys, version fields) and asserts the round-trip contract of each
codec: the JSON codec must preserve every JSON-representable payload
exactly, and the binary codec must additionally preserve what JSON
cannot (non-string map keys, tuples-as-tuples is NOT promised — the
binary format pickles, so tuples survive too) in both eager and lazy
modes, single-message and batch.
"""

from hypothesis import given, settings, strategies as st

from repro.event.codec import JsonCodec, NoopCodec
from repro.event.wire import (
    BinaryCodec,
    LazyDocument,
    WireStats,
    decode_batch,
    encode_batch,
    materialize,
)

# JSON-safe scalars: ints bounded to avoid json's float coercion edge
# cases being conflated with codec bugs; floats without NaN/inf (NaN
# breaks equality, inf is not strict JSON).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)

#: A representative after-image envelope: what actually crosses the
#: wire on the write path.
envelopes = st.fixed_dictionaries({
    "kind": st.just("write"),
    "key": st.one_of(st.integers(), st.text(max_size=10)),
    "version": st.integers(min_value=0, max_value=2 ** 31),
    "op": st.sampled_from(["insert", "update", "delete"]),
    "collection": st.text(min_size=1, max_size=12),
    "timestamp": st.floats(min_value=0, max_value=2e9,
                           allow_nan=False),
    "document": st.one_of(
        st.none(),
        st.dictionaries(st.text(min_size=1, max_size=10), json_values,
                        max_size=6),
    ),
})

# Beyond JSON: non-string dict keys and tuples, which only the binary
# (pickle-based) codec can carry faithfully.
binary_only_values = st.recursive(
    st.one_of(
        json_scalars,
        st.binary(max_size=16),
        st.tuples(st.integers(), st.text(max_size=5)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers()),
            children, max_size=4,
        ),
    ),
    max_leaves=20,
)


class TestJsonCodecProperties:
    @given(payload=json_values)
    @settings(max_examples=60)
    def test_roundtrip_identity(self, payload):
        codec = JsonCodec()
        assert codec.decode(codec.encode(payload)) == payload

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_envelope_roundtrip(self, payload):
        codec = JsonCodec()
        assert codec.decode(codec.encode(payload)) == payload


class TestNoopCodecProperties:
    @given(payload=json_values)
    @settings(max_examples=20)
    def test_identity(self, payload):
        codec = NoopCodec()
        assert codec.decode(codec.encode(payload)) is payload


class TestBinaryCodecProperties:
    @given(payload=binary_only_values)
    @settings(max_examples=60)
    def test_roundtrip_identity(self, payload):
        codec = BinaryCodec()
        assert codec.decode(codec.encode(payload)) == payload

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_envelope_roundtrip_eager(self, payload):
        codec = BinaryCodec(lazy_documents=False)
        restored = codec.decode(codec.encode(payload))
        assert restored == payload
        assert type(restored.get("document")) in (dict, type(None))

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_envelope_roundtrip_lazy(self, payload):
        codec = BinaryCodec(lazy_documents=True)
        restored = codec.decode(codec.encode(payload))
        document = restored.pop("document")
        expected = dict(payload)
        expected_doc = expected.pop("document")
        assert restored == expected
        assert materialize(document) == expected_doc
        if isinstance(document, LazyDocument):
            assert dict(document) == expected_doc

    @given(payloads=st.lists(envelopes, max_size=8))
    @settings(max_examples=40)
    def test_batch_roundtrip(self, payloads):
        codec = BinaryCodec(lazy_documents=True)
        restored = codec.decode_batch(codec.encode_batch(payloads))
        assert len(restored) == len(payloads)
        for got, want in zip(restored, payloads):
            assert materialize(got) == want

    @given(payloads=st.lists(envelopes, min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_reencode_without_materializing(self, payloads):
        """A lazy document re-encodes from its raw slice: routing a
        write onward never forces the after-image decode."""
        stats = WireStats()
        codec = BinaryCodec(lazy_documents=True, stats=stats)
        restored = codec.decode_batch(codec.encode_batch(payloads))
        rewired = codec.decode_batch(codec.encode_batch(restored))
        assert stats.lazy_materialized == 0
        for got, want in zip(rewired, payloads):
            assert materialize(got) == want


class TestCodecAgreement:
    """All codecs agree on JSON-safe payloads (modulo laziness)."""

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_binary_and_json_decode_equal(self, payload):
        json_codec = JsonCodec()
        binary = BinaryCodec()
        via_json = json_codec.decode(json_codec.encode(payload))
        via_binary = materialize(binary.decode(binary.encode(payload)))
        assert via_binary == via_json

    @given(payloads=st.lists(envelopes, max_size=5))
    @settings(max_examples=30)
    def test_batch_helpers_work_for_every_codec(self, payloads):
        for codec in (JsonCodec(), BinaryCodec(), NoopCodec()):
            restored = decode_batch(codec, encode_batch(codec, payloads))
            assert [materialize(p) for p in restored] == payloads
