"""Spatio-textual access-path benchmarks: the moving-objects workload.

N objects perform a seeded random walk over the sphere while carrying
short text payloads; M subscriptions mix ``$geoWithin`` boxes,
``$nearSphere`` radii and ``$text`` term searches.  Without the spatial
grid and inverted token index every geo/text subscription is residual —
each write scans all M predicates, which is what the baseline, a
filtering node with ``use_index=False``, does.  With them, a write probes one grid
cell and its few tokens, so per-write cost stays near-constant as M
grows.  The sweep and the committed report quantify that gap; the gate
test is the CI smoke floor.
"""

import itertools
import random
import time

import pytest

from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.query.engine import Query
from repro.types import AfterImage, WriteKind

# A compact vocabulary: real payloads repeat tokens heavily, and the
# term<->note overlap rate controls how many text candidates a write
# produces (3 note words / 200 vocab words ~= 1.5% of text queries).
VOCAB = [f"term{i:03d}" for i in range(200)]

SUBSCRIPTION_COUNTS = [100, 1_000, 5_000, 10_000]


def _subscription(rng: random.Random, slot: int) -> Query:
    """One subscription: geo box, spherical radius or token search."""
    kind = slot % 3
    if kind == 0:
        # Small box at a random spot: ~2x2 degrees.
        lon = rng.uniform(-178.0, 176.0)
        lat = rng.uniform(-88.0, 86.0)
        return Query({"loc": {"$geoWithin": {
            "$box": [[lon, lat], [lon + 2.0, lat + 2.0]],
        }}})
    if kind == 1:
        # 100-300 km radius around a random center.
        center = [rng.uniform(-180.0, 180.0), rng.uniform(-85.0, 85.0)]
        return Query({"loc": {"$nearSphere": {
            "$geometry": {"type": "Point", "coordinates": center},
            "$maxDistance": rng.uniform(100_000.0, 300_000.0),
        }}})
    terms = " ".join(rng.sample(VOCAB, 2))
    return Query({"$text": {"$search": terms}})


def _node(subscriptions: int, indexed: bool, seed: int = 3) -> FilteringNode:
    """A filtering node loaded with the mixed subscription set.

    ``indexed=False`` is the linear scan (``use_index=False``).  Every
    subscription here is a geo or text query, which the index without
    its spatial grid and token buckets would hold as residual, so the
    scan is exactly what the residual path costs.
    """
    node = FilteringNode(NodeCoordinates(0, 0), use_index=indexed)
    rng = random.Random(seed)
    for slot in range(subscriptions):
        node.register_query(_subscription(rng, slot), [], {}, now=0.0)
    return node


class _Walk:
    """Seeded random walk of N objects with rotating text payloads."""

    def __init__(self, objects: int = 500, seed: int = 17):
        self.rng = random.Random(seed)
        self.positions = [
            [self.rng.uniform(-180.0, 180.0), self.rng.uniform(-85.0, 85.0)]
            for _ in range(objects)
        ]

    def step(self, index: int) -> dict:
        pos = self.positions[index % len(self.positions)]
        pos[0] = ((pos[0] + self.rng.uniform(-0.5, 0.5) + 180.0)
                  % 360.0) - 180.0
        pos[1] = max(-85.0, min(85.0, pos[1] + self.rng.uniform(-0.5, 0.5)))
        note = " ".join(self.rng.sample(VOCAB, 3))
        return {"loc": [pos[0], pos[1]], "note": note}


def _drive(node: FilteringNode, writes: list, key_base: int) -> int:
    events = 0
    for offset, document in enumerate(writes):
        key = key_base + offset
        image = AfterImage(key, 1, WriteKind.INSERT,
                           {**document, "_id": key})
        events += len(node.process_write(image, now=0.0))
    return events


def _measure_per_write_seconds(subscriptions: int, indexed: bool,
                               writes: int, repeats: int = 3) -> float:
    """Best-of-N wall time per write through a loaded filtering node."""
    node = _node(subscriptions, indexed)
    walk = _Walk()
    documents = [walk.step(i) for i in range(writes)]
    fresh_keys = itertools.count()
    _drive(node, documents, key_base=next(fresh_keys) * writes)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        key_base = next(fresh_keys) * writes
        started = time.perf_counter()
        _drive(node, documents, key_base=key_base)
        best = min(best, time.perf_counter() - started)
    return best / writes


@pytest.mark.parametrize("mode", ["indexed", "scan"])
@pytest.mark.parametrize("subscriptions", [100, 1_000, 5_000])
def test_spatio_textual_scaling(benchmark, subscriptions, mode):
    """Per-write matching cost under the moving-objects workload."""
    node = _node(subscriptions, indexed=(mode == "indexed"))
    walk = _Walk()
    writes = 20 if subscriptions >= 5_000 else 50
    documents = [walk.step(i) for i in range(writes)]
    fresh_keys = itertools.count()

    def run():
        return _drive(node, documents, key_base=next(fresh_keys) * writes)

    benchmark(run)


def test_spatio_textual_scaling_report(emit):
    """The committed scaling table: writes/s, indexed vs the scan."""
    emit("Spatio-textual access paths: moving-objects workload")
    emit("500 walkers; subscriptions = 1/3 $geoWithin boxes (~2x2 deg), "
         "1/3 $nearSphere (100-300 km), 1/3 $text (2 of 200 terms)")
    emit("baseline: FilteringNode(use_index=False), the linear scan")
    emit()
    emit(f"{'subs':>8} | {'scan wr/s':>14} | {'indexed wr/s':>13} "
         f"| {'speedup':>8}")
    emit("-" * 54)
    floor_10k = None
    for subscriptions in SUBSCRIPTION_COUNTS:
        writes = 20 if subscriptions >= 5_000 else 50
        residual = _measure_per_write_seconds(subscriptions, False, writes)
        indexed = _measure_per_write_seconds(subscriptions, True, writes)
        speedup = residual / indexed
        if subscriptions == 10_000:
            floor_10k = speedup
        emit(f"{subscriptions:>8} | {1 / residual:>14,.0f} | "
             f"{1 / indexed:>13,.0f} | {speedup:>7.1f}x")
    emit()
    emit("indexed per-write cost is near-constant: one grid-cell probe")
    emit("+ a token-set intersection, independent of subscription count")
    assert floor_10k is not None and floor_10k >= 10.0, (
        f"only {floor_10k:.1f}x at 10k subscriptions (need >= 10x)"
    )


def test_spatio_textual_speedup_gate():
    """CI smoke gate: the spatio-textual access paths must beat the
    scan by >= 5x at 5,000 mixed subscriptions (acceptance floor;
    typical is far higher).

    Runs without the pytest-benchmark fixture so it still measures
    under ``--benchmark-disable``.
    """
    residual = _measure_per_write_seconds(5_000, False, writes=20)
    indexed = _measure_per_write_seconds(5_000, True, writes=20)
    speedup = residual / indexed
    assert speedup >= 5.0, (
        f"spatio-textual matching only {speedup:.1f}x faster than the "
        f"scan"
    )
