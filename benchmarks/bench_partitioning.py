"""Partitioning micro-benchmarks and balance report.

Measures the stable-hash routing cost (paid once per write at the
cluster's intake) and reports grid balance for the paper's workload —
the "as even as possible" claim of Section 5.1.
"""

import pytest

from repro.core.partitioning import PartitioningScheme, stable_hash
from repro.query.normalize import query_hash
from repro.sim.workload import PaperWorkload


def test_stable_hash_throughput(benchmark):
    keys = [f"document-{index}" for index in range(1000)]

    def hash_all():
        return [stable_hash(key) for key in keys]

    values = benchmark(hash_all)
    assert len(set(values)) == 1000


def test_write_routing_cost(benchmark):
    scheme = PartitioningScheme(4, 4)

    def route():
        return scheme.nodes_for_write("some-primary-key")

    nodes = benchmark(route)
    assert len(nodes) == 4


def test_query_routing_cost(benchmark):
    scheme = PartitioningScheme(4, 4)
    q_hash = query_hash({"random": {"$gte": 10, "$lt": 20}})

    def route():
        return scheme.nodes_for_query(q_hash)

    nodes = benchmark(route)
    assert len(nodes) == 4


def test_grid_balance_report(benchmark, emit):
    """Distribute the paper's workload over a 4x4 grid and report the
    per-node query/write balance."""
    scheme = PartitioningScheme(4, 4)
    workload = PaperWorkload(total_queries=2000, matching_queries=500)

    def distribute():
        query_load = [0] * scheme.query_partitions
        for filter_doc in workload.queries():
            query_load[scheme.query_partition_of(query_hash(filter_doc))] += 1
        write_load = [0] * scheme.write_partitions
        for document in workload.write_stream(4000):
            write_load[scheme.write_partition_of(document["_id"])] += 1
        return query_load, write_load

    query_load, write_load = benchmark.pedantic(distribute, rounds=1,
                                                iterations=1)
    emit("Grid balance on the paper workload (4 QP x 4 WP)")
    emit("=" * 52)
    emit(f"queries per query partition: {query_load}")
    emit(f"writes  per write partition: {write_load}")
    spread_q = max(query_load) / (sum(query_load) / len(query_load))
    spread_w = max(write_load) / (sum(write_load) / len(write_load))
    emit(f"max/mean spread: queries {spread_q:.2f}, writes {spread_w:.2f}")
    assert spread_q < 1.25 and spread_w < 1.25
