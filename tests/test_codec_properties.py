"""Property-based round-trip suites for every wire codec.

Hypothesis generates BSON-ish payloads (nested dicts/arrays, unicode
keys, version fields) and asserts the round-trip contract of each
codec: the JSON codec must preserve every JSON-representable payload
exactly, and the binary codec must additionally preserve what JSON
cannot (non-string map keys, tuples-as-tuples is NOT promised — the
binary format pickles, so tuples survive too), single-message and
batch.  The broker calls no codec: it passes the published object
itself (``tests/test_payload_ownership.py`` pins what that asks of
publishers and subscribers).
"""

from hypothesis import given, settings, strategies as st

from repro.event.codec import JsonCodec
from repro.event.wire import BinaryCodec

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


class TestBinaryCodecProperties:
    @given(payload=binary_only_values)
    @settings(max_examples=60)
    def test_roundtrip_identity(self, payload):
        codec = BinaryCodec()
        assert codec.decode(codec.encode(payload)) == payload

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_envelope_roundtrip_eager(self, payload):
        codec = BinaryCodec()
        restored = codec.decode(codec.encode(payload))
        assert restored == payload
        assert type(restored.get("document")) in (dict, type(None))

    @given(payloads=st.lists(envelopes, max_size=8))
    @settings(max_examples=40)
    def test_batch_roundtrip(self, payloads):
        codec = BinaryCodec()
        restored = codec.decode_batch(codec.encode_batch(payloads))
        assert restored == payloads


class TestCodecAgreement:
    """All codecs agree on JSON-safe payloads."""

    @given(payload=envelopes)
    @settings(max_examples=40)
    def test_binary_and_json_decode_equal(self, payload):
        json_codec = JsonCodec()
        binary = BinaryCodec()
        via_json = json_codec.decode(json_codec.encode(payload))
        via_binary = binary.decode(binary.encode(payload))
        assert via_binary == via_json
