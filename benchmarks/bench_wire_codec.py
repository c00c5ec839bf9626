"""Wire-codec microbenchmark: the process boundary's encode/decode cost.

The paper attributes the write path's lower matching throughput to
"the overhead for (de-)serializing and parsing after-images" (Section
6.3) — which is exactly the cost a process-per-partition deployment
pays on every hop.  This bench measures the binary wire format against
the JSON codec on a representative write envelope (the evaluation's
5-string/5-int document) and gates the headline claim: **a binary
encode + decode must clear at least 3x the JSON round-trip**.

Batch mode is reported alongside: a batch is one pickle stream, whose
memo table writes repeated keys once, so per-message cost and bytes
drop further.
"""

import random
import time

from repro.event.codec import JsonCodec
from repro.event.wire import BinaryCodec
from repro.sim.workload import generate_document

ROUNDS = 5
MESSAGES = 2_000
BATCH = 64


def representative_envelope(index: int = 0) -> dict:
    rng = random.Random(1 + index)
    document = generate_document(rng, 123456 + index, 987654)
    return {
        "kind": "write",
        "key": 123456 + index,
        "version": 3,
        "op": "update",
        "collection": "items",
        "timestamp": 1718000000.25,
        "document": document,
    }


def best_of(func, rounds=ROUNDS):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_binary_codec_beats_json(emit):
    """Acceptance gate: >= 3x on single-message encode + decode."""
    json_codec = JsonCodec()
    binary = BinaryCodec()
    envelope = representative_envelope()

    def json_roundtrip():
        for _ in range(MESSAGES):
            json_codec.decode(json_codec.encode(envelope))

    def binary_roundtrip():
        for _ in range(MESSAGES):
            binary.decode(binary.encode(envelope))

    t_json = best_of(json_roundtrip)
    t_binary = best_of(binary_roundtrip)

    per = 1e6 / MESSAGES
    emit("Wire codec round-trip, representative write envelope")
    emit("(5x10-char strings + 5 ints, single message):")
    emit(f"  json   : {t_json * per:8.2f} us/msg")
    emit(f"  binary : {t_binary * per:8.2f} us/msg "
         f"({t_json / t_binary:.2f}x)")
    assert t_json / t_binary >= 3.0, (
        f"binary round-trip only {t_json / t_binary:.2f}x over JSON "
        f"(required: >= 3x)"
    )
    assert binary.decode(binary.encode(envelope)) == envelope


def test_batch_mode_amortizes_further(emit):
    """Batch framing interns repeated keys: faster AND smaller."""
    json_codec = JsonCodec()
    binary = BinaryCodec()
    batch = [representative_envelope(i) for i in range(BATCH)]
    rounds = max(1, MESSAGES // BATCH)

    def json_batch():
        for _ in range(rounds):
            for payload in batch:  # JSON has no batch frame: N messages
                json_codec.decode(json_codec.encode(payload))

    def binary_batch():
        for _ in range(rounds):
            binary.decode_batch(binary.encode_batch(batch))

    t_json = best_of(json_batch)
    t_binary = best_of(binary_batch)
    json_bytes = sum(len(json_codec.encode(p)) for p in batch)
    binary_bytes = len(binary.encode_batch(batch))

    count = rounds * BATCH
    emit(f"Batch round-trip ({BATCH} envelopes/batch):")
    emit(f"  json   : {t_json * 1e6 / count:8.2f} us/msg, "
         f"{json_bytes / BATCH:7.1f} B/msg")
    emit(f"  binary : {t_binary * 1e6 / count:8.2f} us/msg, "
         f"{binary_bytes / BATCH:7.1f} B/msg "
         f"({t_json / t_binary:.2f}x faster)")
    assert t_json / t_binary >= 3.0
    assert binary_bytes < json_bytes
