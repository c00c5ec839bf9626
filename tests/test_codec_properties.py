"""Property-based round-trip suites for every wire codec.

Hypothesis generates BSON-ish payloads (nested dicts/arrays, unicode
keys, version fields) and asserts the round-trip contract of each
codec: the JSON codec must preserve every JSON-representable payload
exactly, and the binary codec must additionally preserve what JSON
cannot (non-string map keys, tuples-as-tuples is NOT promised — the
binary format pickles, so tuples survive too), single-message and
batch.  A :class:`Broker` on the binary codec must hand every
subscriber an equal, independent copy with the published container
types (the default broker passes the published
object itself; ``tests/test_payload_ownership.py`` pins what that
asks of publishers and subscribers).
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.notifications import ChangeEnvelope, QueryChange
from repro.event.broker import Broker
from repro.event.codec import JsonCodec, NoopCodec
from repro.event.wire import BinaryCodec
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import MatchType

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


# ----------------------------------------------------------------------
# The default broker: what is published is what every subscriber gets
# ----------------------------------------------------------------------

broker_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()),
                        children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def change_envelope_payloads(draw):
    """``ChangeEnvelope.payload()`` as the cluster publishes it: rows
    that share document slots, rare fields in a trailing dict."""
    pool = draw(st.lists(
        st.dictionaries(st.text(min_size=1, max_size=6), json_values,
                        max_size=4),
        min_size=1, max_size=3,
    ))
    envelope = ChangeEnvelope()
    for _ in range(draw(st.integers(0, 6))):
        match_type = draw(st.sampled_from(list(MatchType)))
        error = match_type is MatchType.ERROR
        envelope.add(QueryChange(
            query_id=draw(st.sampled_from(["q1", "q2", "q3"])),
            match_type=match_type,
            key=None if error else draw(st.one_of(st.integers(),
                                                  st.text(max_size=6))),
            document=None if error else draw(st.sampled_from(pool)),
            index=draw(st.one_of(st.none(), st.integers(0, 40))),
            old_index=draw(st.one_of(st.none(), st.integers(0, 40))),
            error=draw(st.text(max_size=8)) if error else None,
            timestamp=draw(st.floats(0, 2e9, allow_nan=False)),
            version=draw(st.integers(0, 2 ** 31)),
        ))
    return envelope.payload()


def same_types(left, right):
    """``==`` plus identical container types at every level."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            same_types(value, right[key]) for key, value in left.items())
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            same_types(a, b) for a, b in zip(left, right))
    return left == right


def deep_mutate(value):
    """Change every container reachable from *value* in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            deep_mutate(item)
        value["\x00mutated"] = True
    elif isinstance(value, list):
        for item in value:
            deep_mutate(item)
        value.append("\x00mutated")
    elif isinstance(value, tuple):
        for item in value:
            deep_mutate(item)


class TestDefaultBrokerFidelity:
    """The former default, a binary-codec broker, as an explicit choice."""

    @given(payload=st.one_of(broker_values, envelopes,
                             change_envelope_payloads()))
    @settings(max_examples=80, deadline=None)
    def test_subscribers_get_exactly_what_was_published(self, payload):
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        broker = Broker(codec=BinaryCodec(), execution=model)
        expected = copy.deepcopy(payload)
        first, second = [], []

        def mutating(channel, received):
            first.append(copy.deepcopy(received))
            deep_mutate(received)

        broker.subscribe("ch", mutating)
        broker.subscribe("ch", lambda channel, received:
                         second.append(received))
        broker.publish("ch", payload)
        assert broker.drain()
        broker.close()
        model.shutdown()
        # Each subscriber decodes its own copy: the first one's
        # mutations reach neither the second nor the publisher.
        assert same_types(first[0], expected)
        assert same_types(second[0], expected)
        assert same_types(payload, expected)
