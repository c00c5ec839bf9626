"""Shared multi-query execution benchmarks (PR 7).

Measures the SharedDB-style shared predicate DAG against deciding each
query on its own:

* filtering — the filtering node (shared predicate DAG, its only
  matching path) vs a per-query ``Query.matches`` loop over the same
  index candidates, swept across query-population overlap (0%..100% of
  the population being sort-order variants of one hot filter) at 1k
  and 10k registered queries;
* the cluster's DAG counters and ``dag_share_ratio`` as the snapshot
  reports them.

``test_shared_dag_speedup_gate`` is the CI smoke gate: the node must
beat the per-query loop by >= 3x at 10k fully-overlapping queries.
"""

from __future__ import annotations

import itertools
import time

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.query.engine import Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import AfterImage, WriteKind

# A deep production-shaped feed filter: an $or of three conjunctions
# plus a top-level guard.  Roughly 17% of the write stream below
# matches it, so neither path degenerates into pure event construction.
def _hot_filter(salt: int = 0):
    return {
        "$or": [
            {"$and": [{"category": "news"},
                      {"score": {"$gte": 80 + salt}}]},
            {"$and": [{"category": "sports"},
                      {"score": {"$gte": 60 + salt}},
                      {"region": "eu"}]},
            {"$and": [{"author.verified": True},
                      {"score": {"$gte": 90 + salt}}]},
        ],
        "hidden": {"$ne": True},
    }


def _sort_variant(index: int):
    """A sort order of its own: each query is its own sort core, so the
    filtering node holds one entry per query.  (Pages of one filter +
    sort would share a single entry and leave the DAG nothing to
    share.)"""
    return [("score", -1), (f"rank{index}", 1)]


def _population(total: int, overlap: float):
    """*total* queries; ``overlap`` of them are sort-order variants of
    the hot filter, the rest carry per-query thresholds."""
    hot = int(total * overlap)
    queries = []
    for index in range(total):
        salt = 0 if index < hot else 1 + index
        queries.append(Query(
            _hot_filter(salt), sort=_sort_variant(index), limit=10,
        ))
    return queries


def _write_documents(writes: int):
    categories = ["news", "sports", "opinion", "local"]
    documents = []
    for index in range(writes):
        documents.append({
            "category": categories[index % len(categories)],
            "score": (index * 37) % 100,
            "region": "eu" if index % 3 else "apac",
            "author": {"verified": index % 5 == 0},
            "hidden": index % 7 == 0,
        })
    return documents


def _loaded_node(queries) -> FilteringNode:
    node = FilteringNode(NodeCoordinates(0, 0))
    for query in queries:
        node.register_query(query, [], {}, now=0.0)
    return node


def _drive(node: FilteringNode, documents, key_base: int) -> int:
    events = 0
    for offset, document in enumerate(documents):
        key = key_base + offset
        image = AfterImage(key, 1, WriteKind.INSERT,
                           {**document, "_id": key})
        events += len(node.process_write(image, now=0.0))
    return events


def _per_write_seconds(node, documents, repeats: int = 2):
    fresh_keys = itertools.count()
    events = _drive(node, documents, next(fresh_keys) * len(documents))
    best = float("inf")
    for _ in range(repeats):
        key_base = next(fresh_keys) * len(documents)
        started = time.perf_counter()
        _drive(node, documents, key_base)
        best = min(best, time.perf_counter() - started)
    return best / len(documents), events


def _per_query_seconds(node, queries, documents, repeats: int = 2):
    """The baseline: every index candidate decided by its own
    ``Query.matches`` walk — decisions only, so it is charged none of
    the node's event construction or result bookkeeping."""
    by_id = {query.core_id: query for query in queries}
    collection = queries[0].collection
    best = float("inf")
    for _ in range(repeats + 1):
        matched = 0
        started = time.perf_counter()
        for document in documents:
            for query_id in node.index.candidates(document, collection):
                matched += by_id[query_id].matches(document)
        best = min(best, time.perf_counter() - started)
    return best / len(documents), matched


def test_shared_dag_overlap_sweep(emit):
    """The committed table: per-write matching cost, per-query loop vs
    the DAG node, as the population's structural overlap grows."""
    emit("Shared predicate DAG vs a per-query Query.matches loop")
    emit("population: sort-order variants of one hot feed filter "
         "(overlap%) +")
    emit("per-query-threshold variants (rest); ~17% of writes match")
    emit()
    emit(f"{'queries':>8} | {'overlap':>7} | {'loop wr/s':>10} | "
         f"{'dag wr/s':>10} | {'speedup':>8} | {'share':>6}")
    emit("-" * 64)
    for total in (1_000, 10_000):
        writes = 40 if total <= 1_000 else 20
        documents = _write_documents(writes)
        for overlap in (0.0, 0.25, 0.5, 0.75, 1.0):
            queries = _population(total, overlap)
            dag_node = _loaded_node(queries)
            loop_cost, loop_matches = _per_query_seconds(
                dag_node, queries, documents)
            dag_cost, dag_events = _per_write_seconds(dag_node, documents)
            assert dag_events == loop_matches
            share = dag_node.dag.share_ratio
            emit(f"{total:>8} | {overlap:>6.0%} | "
                 f"{1 / loop_cost:>10,.0f} | {1 / dag_cost:>10,.0f} | "
                 f"{loop_cost / dag_cost:>7.1f}x | {share:>6.3f}")
    emit()
    emit("speedup and share track overlap: at 100% every decision rides")
    emit("one evaluated root; at 0% the DAG still shares common subtrees")


def test_shared_dag_speedup_gate():
    """CI smoke gate: >= 3x over the per-query loop at 10k
    fully-overlapping queries (acceptance floor).

    Runs without the pytest-benchmark fixture so it still measures
    under ``--benchmark-disable``.

    Both sides run the same compiled predicates (``compile_node``), so
    the ratio measures sharing alone.  It read ~10.5x while both sides
    interpreted the AST; compiling made the loop ~3x cheaper (~140 ->
    40-50 ms per write here) and the DAG pass ~1.4x (13 -> 8-10 ms),
    since at full overlap the pass is mostly root-cache hits and event
    construction — hence 4.4-5.1x now, with the floor unchanged.
    """
    queries = _population(10_000, overlap=1.0)
    documents = _write_documents(40)
    dag_node = _loaded_node(queries)
    loop_cost, loop_matches = _per_query_seconds(
        dag_node, queries, documents)
    dag_cost, dag_events = _per_write_seconds(dag_node, documents)
    assert dag_events == loop_matches
    speedup = loop_cost / dag_cost
    assert speedup >= 3.0, (
        f"shared DAG only {speedup:.1f}x faster than per-query matching"
    )
    assert dag_node.dag.fallbacks == 0
    assert dag_node.dag.share_ratio > 0.99


# ---------------------------------------------------------------------------
# Cluster metrics side-by-side
# ---------------------------------------------------------------------------


def test_cluster_sharing_metrics_side_by_side(emit):
    """The DAG counters as ``cluster.snapshot()`` reports them."""
    emit("Cluster sharing counters (inline model, default config, "
         "200 writes, 60 queries)")
    emit()
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=13))
    broker = Broker(execution=model)
    config = InvaliDBConfig(query_partitions=1, write_partitions=1)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("bench-app", broker, config=config)
    try:
        for index in range(60):
            app.subscribe("feed", _hot_filter(0),
                          sort=_sort_variant(index), limit=10)
        broker.drain()
        for key, document in enumerate(_write_documents(200)):
            app.insert("feed", {**document, "_id": key})
        broker.drain()
        totals = cluster.snapshot()["matching_totals"]
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()
    emit(f"{'dag served':>10} | {'node hits':>9} | {'dag nodes':>9} | "
         f"{'share':>6}")
    emit("-" * 44)
    emit(f"{totals['dag_queries_served']:>10,} | "
         f"{totals['dag_node_hits']:>9,} | "
         f"{totals['dag_nodes_evaluated']:>9,} | "
         f"{totals['dag_share_ratio']:>6.3f}")
    emit()
    emit("60 sort-order variants share one ~12-node tree: per candidate")
    emit("write at most ~12 node evaluations, 59 decisions are root hits")
    assert totals["dag_queries_served"] > 0
    assert totals["dag_share_ratio"] > 0.75
