"""Micro-benchmarks of the pure-Python matching engine.

Measures the real (not simulated) cost constants behind the cluster
model's calibration: matching one after-image against N parsed queries,
query parsing, canonical hashing, and sorted-window maintenance — plus
the query-count scaling axis of the filtering stage (indexed candidate
matching vs the naive scan over every registered query).
Run on the paper's evaluation workload (Section 6.1).
"""

import itertools
import random
import time

import pytest

from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.query.engine import MongoQueryEngine, Query
from repro.query.normalize import query_hash
from repro.sim.workload import (
    PaperWorkload,
    generate_document,
    generate_range_query,
)
from repro.types import AfterImage, WriteKind


@pytest.fixture(scope="module")
def workload():
    return PaperWorkload(total_queries=1000, matching_queries=100, seed=3)


@pytest.fixture(scope="module")
def parsed_queries(workload):
    return [Query(filter_doc) for filter_doc in workload.queries()]


def test_match_one_write_against_1000_queries(benchmark, parsed_queries):
    """The inner loop of a matching node: one after-image vs its whole
    query partition."""
    rng = random.Random(5)
    document = generate_document(rng, "probe", 42)

    def match_all():
        return sum(1 for query in parsed_queries if query.matches(document))

    hits = benchmark(match_all)
    assert hits == 1  # the workload guarantees exactly one match


def test_single_predicate_match(benchmark):
    query = Query({"random": {"$gte": 10, "$lt": 20}})
    document = generate_document(random.Random(5), "probe", 15)
    assert benchmark(query.matches, document)


def test_complex_predicate_match(benchmark):
    query = Query({
        "$or": [
            {"random": {"$gte": 10, "$lt": 20}},
            {"s0": {"$regex": "^a"}},
            {"i1": {"$in": [1, 2, 3]}},
        ],
        "i0": {"$exists": True},
    })
    document = generate_document(random.Random(5), "probe", 15)
    benchmark(query.matches, document)


def test_query_parse_cost(benchmark, workload):
    filters = workload.queries()[:100]

    def parse_all():
        return [Query(filter_doc) for filter_doc in filters]

    parsed = benchmark(parse_all)
    assert len(parsed) == 100


def test_canonical_hash_cost(benchmark):
    filter_doc = {"random": {"$gte": 10, "$lt": 20}}
    value = benchmark(query_hash, filter_doc)
    assert value == query_hash(filter_doc)


# ---------------------------------------------------------------------------
# Query-count scaling: indexed candidate matching vs the naive scan
# ---------------------------------------------------------------------------

QUERY_COUNTS = [10, 100, 1_000, 10_000]


def _scaling_node(query_count: int, use_index: bool) -> FilteringNode:
    """A filtering node loaded with the paper's unit-interval queries."""
    node = FilteringNode(NodeCoordinates(0, 0), use_index=use_index)
    for slot in range(query_count):
        node.register_query(Query(generate_range_query(slot, slot + 1)),
                            [], {}, now=0.0)
    return node


def _write_documents(query_count: int, writes: int, seed: int = 11):
    """Evaluation documents whose ``random`` falls into some query slot."""
    rng = random.Random(seed)
    return [
        generate_document(rng, index, rng.randrange(query_count))
        for index in range(writes)
    ]


def _drive(node: FilteringNode, documents, key_base: int) -> int:
    events = 0
    for offset, document in enumerate(documents):
        key = key_base + offset
        image = AfterImage(key, 1, WriteKind.INSERT,
                           {**document, "_id": key})
        events += len(node.process_write(image, now=0.0))
    return events


@pytest.mark.parametrize("mode", ["indexed", "naive"])
@pytest.mark.parametrize("query_count", QUERY_COUNTS)
def test_filtering_query_count_scaling(benchmark, query_count, mode):
    """Per-write cost of the filtering stage as queries grow.

    The naive scan grows linearly with the query count; the predicate
    index holds per-write cost near-constant (one interval stab).
    """
    node = _scaling_node(query_count, use_index=(mode == "indexed"))
    writes = 20 if query_count >= 10_000 else 100
    documents = _write_documents(query_count, writes)
    fresh_keys = itertools.count()

    def run():
        return _drive(node, documents, key_base=next(fresh_keys) * writes)

    events = benchmark(run)
    assert events == writes  # every write matches exactly one query


def _measure_per_write_seconds(query_count: int, use_index: bool,
                               writes: int, repeats: int = 3) -> float:
    """Best-of-N wall time per write through a loaded filtering node."""
    node = _scaling_node(query_count, use_index)
    documents = _write_documents(query_count, writes)
    fresh_keys = itertools.count()
    _drive(node, documents, key_base=next(fresh_keys) * writes)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        key_base = next(fresh_keys) * writes
        started = time.perf_counter()
        _drive(node, documents, key_base=key_base)
        best = min(best, time.perf_counter() - started)
    return best / writes


def test_query_count_scaling_report(emit):
    """The committed scaling table: writes/s, indexed vs naive."""
    emit("Filtering-stage query-count scaling (per-write matching cost)")
    emit("paper workload: random >= i AND random < i+1, one hit per write")
    emit()
    emit(f"{'queries':>8} | {'naive wr/s':>12} | {'indexed wr/s':>12} "
         f"| {'speedup':>8}")
    emit("-" * 52)
    for query_count in QUERY_COUNTS:
        writes = 20 if query_count >= 10_000 else 100
        naive = _measure_per_write_seconds(query_count, False, writes)
        indexed = _measure_per_write_seconds(query_count, True, writes)
        emit(f"{query_count:>8} | {1 / naive:>12,.0f} | "
             f"{1 / indexed:>12,.0f} | {naive / indexed:>7.1f}x")
    emit()
    emit("indexed per-write cost is near-constant: one interval-tree")
    emit("stab + candidate evaluation, independent of the query count")


def test_indexed_vs_naive_speedup_gate():
    """CI smoke gate: the index must beat the scan by >= 3x at 1,000
    registered queries (the acceptance floor; typical is far higher).

    Runs without the pytest-benchmark fixture so it still measures
    under ``--benchmark-disable``.
    """
    naive = _measure_per_write_seconds(1_000, False, writes=100)
    indexed = _measure_per_write_seconds(1_000, True, writes=100)
    speedup = naive / indexed
    assert speedup >= 3.0, (
        f"indexed matching only {speedup:.1f}x faster than naive scan"
    )


def test_sort_1000_documents(benchmark):
    engine = MongoQueryEngine()
    query = engine.parse({}, sort=[("random", -1)])
    rng = random.Random(9)
    documents = [generate_document(rng, i, rng.randrange(10**6))
                 for i in range(1000)]
    ordered = benchmark(engine.sort, query, documents)
    assert len(ordered) == 1000
