"""Equivalence suite: shared multi-query matching vs per-query matching.

The shared predicate DAG is the filtering stage's only matching path.
Sharing is a pure optimization: every observable stream must be
byte-identical to deciding each query on its own.

* node level — a default-config filtering node emits exactly the
  match-event stream of a test-local per-query reference built on plain
  ``Query.matches``;
* cluster level — the inline transcript is pinned to the hash recorded
  before the per-leaf memo path was deleted and is identical with and
  without a crash + retained-write replay; threaded and process
  clusters converge to the pull query.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.query import operators as ops
from repro.query.ast import FieldPredicate
from repro.query.engine import Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.types import AfterImage, MatchType, WriteKind

from tests.conftest import Collector, settle
from tests.test_sorting_equivalence import (
    _apply_cluster_op,
    _notification_fingerprint as _fingerprint,
    _run_threaded_cluster,
    cluster_operations,
)


# ----------------------------------------------------------------------
# Filtering: the shared predicate DAG vs a per-query reference
# ----------------------------------------------------------------------

# A small fragment pool makes structural overlap the common case, like
# production populations of look-alike feed queries.
FRAGMENTS = [
    {"tags": "hot"},
    {"score": {"$gte": 50}},
    {"score": {"$lt": 20}},
    {"author.verified": True},
    {"hidden": {"$ne": True}},
    {"region": {"$in": ["eu", "us"]}},
    {"score": {"$not": {"$gte": 80}}},
    {"$text": {"$search": "flash sale"}},
    {"loc": {"$geoWithin": {"$box": [[0, 0], [10, 10]]}}},
]


def _combine(shape, picks):
    parts = [FRAGMENTS[i] for i in picks]
    if shape == "single" or len(parts) == 1:
        return dict(parts[0])
    if shape == "and":
        return {"$and": [dict(p) for p in parts]}
    if shape == "or":
        return {"$or": [dict(p) for p in parts]}
    if shape == "nor":
        return {"$nor": [dict(p) for p in parts]}
    # nested: an $or over an $and pair plus a plain fragment
    return {"$or": [{"$and": [dict(p) for p in parts[:-1]]},
                    dict(parts[-1])]}


@st.composite
def dag_workloads(draw):
    n_queries = draw(st.integers(4, 10))
    specs = []
    for index in range(n_queries):
        shape = draw(st.sampled_from(
            ["single", "and", "and", "or", "or", "nor", "nested"]
        ))
        picks = draw(st.lists(st.integers(0, len(FRAGMENTS) - 1),
                              min_size=1, max_size=3, unique=True))
        # limit variants keep query ids distinct even for equal filters;
        # the sort direction splits them over two sort cores
        specs.append((shape, tuple(picks), index + 1))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, 9),                        # key
            st.sampled_from(["up", "up", "up", "rm", "stale"]),
            st.integers(0, 100),                      # score
            st.booleans(),                            # hot tag
            st.booleans(),                            # verified
        ),
        min_size=4, max_size=25,
    ))
    drop_at = draw(st.integers(0, max(0, len(steps) - 1)))
    late_at = draw(st.integers(0, max(0, len(steps) - 1)))
    # Queries from this index on register late, against retained writes
    # (0 = all of them: a replacement node rebuilding after a crash).
    late_from = draw(st.integers(0, n_queries - 1))
    exotic = draw(st.booleans())
    return specs, steps, drop_at, late_at, late_from, exotic


class _UnhashableGte(ops.Gte):
    """An operator whose canonical form the DAG cannot intern."""

    def canonical(self):
        return ("$gte", [self.value])


def _dag_queries(specs, exotic):
    queries = [
        Query(_combine(shape, picks), sort=[("score", 1 - 2 * (limit % 2))],
              limit=limit)
        for shape, picks, limit in specs
    ]
    if exotic:
        # A sort core of its own: no spec query sorts by title.
        query = Query({"score": {"$gte": 50}}, sort=[("title", 1)],
                      limit=len(specs) + 1)
        query.node = FieldPredicate("score", _UnhashableGte(50))
        queries.insert(0, query)
    return queries


class _PerQueryReference:
    """What the filtering stage must emit, decided one sort core at a
    time by plain ``Query.matches`` (the pull store's matcher: no index,
    no sharing); add/change/remove falls out of the key's previous
    membership.  Like the node it retains the latest after-image per
    key, drops stale versions and replays onto every registration; a
    core lives while one of its pages is registered."""

    def __init__(self):
        # core id -> (first page's query, {key: last document}, page ids)
        self._queries = {}
        self._retained = {}     # key -> latest after-image

    def register(self, query):
        entry = self._queries.setdefault(query.core_id, (query, {}, set()))
        entry[2].add(query.query_id)
        return [event for after in self._retained.values()
                for event in self._decide(query.core_id, *entry[:2], after)]

    def deactivate(self, query_id):
        for core_id, (_, _, pages) in self._queries.items():
            if query_id in pages:
                pages.discard(query_id)
                if not pages:
                    del self._queries[core_id]
                return True
        return False

    def write(self, after):
        seen = self._retained.get(after.key)
        if after.version <= (seen.version if seen is not None else 0):
            return []
        self._retained[after.key] = after
        return [event for core_id, (query, members, _) in self._queries.items()
                for event in self._decide(core_id, query, members, after)]

    @staticmethod
    def _decide(core_id, query, members, after):
        was_member = after.key in members
        if not after.is_delete and query.matches(after.document):
            members[after.key] = document = after.document
            match_type = MatchType.CHANGE if was_member else MatchType.ADD
        elif was_member:
            last = members.pop(after.key)
            document = after.document if after.document is not None else last
            match_type = MatchType.REMOVE
        else:
            return []
        return [MatchEvent(core_id, match_type, after.key, document,
                           after.version, after.timestamp,
                           query.needs_sorting_stage)]


def _after_images(steps):
    versions = dict.fromkeys(range(10), 0)
    for step, (key, kind, score, hot, verified) in enumerate(steps):
        versions[key] += kind != "stale"
        yield AfterImage(
            key=key, version=versions[key], timestamp=float(step),
            kind=WriteKind.DELETE if kind == "rm" else WriteKind.INSERT,
            document=None if kind == "rm" else {
                "_id": key, "score": score,
                "tags": ["hot"] if hot else ["misc"],
                "author": {"verified": verified},
                "hidden": not verified and not hot,
                "region": "eu" if hot else "apac",
                "title": "flash sale" if score % 3 == 0 else "restock",
                "loc": [score % 20, key],
            })


@settings(max_examples=80, deadline=None)
@given(workload=dag_workloads())
def test_filtering_stream_equals_per_query_reference(workload):
    """The default-config node emits bit-for-bit the per-query stream:
    late-registration replay, mid-stream deregistration, dropped stale
    versions and a query decided outside the DAG included."""
    specs, steps, drop_at, late_at, late_from, exotic = workload
    queries = _dag_queries(specs, exotic)
    late_from += exotic                    # the exotic query leads
    node = FilteringNode((0, 0), retention_seconds=1e9)
    reference = _PerQueryReference()
    for query in queries[:late_from]:
        assert (node.register_query(query, [], {}, now=0.0)
                == reference.register(query))
    for step, after in enumerate(_after_images(steps)):
        if step == drop_at:
            dropped = queries[0].query_id
            assert (node.deactivate_query(dropped)
                    == reference.deactivate(dropped))
        if step == late_at:         # replays the retained writes
            for query in queries[late_from:]:
                assert (node.register_query(query, [], {}, now=float(step))
                        == reference.register(query))
        assert (node.process_write(after, now=float(step))
                == reference.write(after))
    # Only the exotic query (dropped mid-stream) ever fell back.
    assert node.dag.fallbacks == int(exotic)
    assert all(query_id in node.dag for query_id in node.active_queries())


def test_share_ratio_moves_with_the_sharing_it_reports():
    """``share_ratio`` = cached node lookups / all node lookups."""
    def ratio(queries):
        node = FilteringNode((0, 0))
        for query in queries:
            node.register_query(query, [], {}, now=0.0)
        events = node.process_write(AfterImage(
            key=1, version=1, kind=WriteKind.INSERT,
            document={"_id": 1, "topic": 3, "score": 50}), now=0.0)
        assert len(events) == len(queries)       # all were candidates
        return node.dag.share_ratio

    def page(i, filter_doc):
        # One sort core per query (pages of one core share its event).
        return Query(filter_doc, sort=[(f"rank{i}", 1)], limit=1)

    # Disjoint single-leaf queries: every lookup is an evaluation.
    assert ratio([Query({"score": {"$gte": t}}) for t in range(8)]) == 0.0
    # N queries riding one filter: one evaluation, N-1 cache hits.
    assert ratio([page(i, {"topic": 3}) for i in range(8)]) == 7 / 8
    # Multi-node queries never drive it negative and it rises with the
    # overlapping share (0..100%); at 100%: one $and + two leaves
    # evaluated, seven root hits.
    sweep = [
        ratio([page(i, {"topic": 3,
                        "score": {"$gte": 0 if i < shared else -1 - i}})
               for i in range(8)])
        for shared in (0, 2, 4, 6, 8)
    ]
    assert sweep == sorted(sweep) and sweep[0] >= 0.0
    assert sweep[-1] == 7 / 10


def test_dag_refcounting_frees_exclusive_subtrees():
    node = FilteringNode((0, 0))
    q1 = Query({"$and": [{"a": 1}, {"b": 2}]})
    q2 = Query({"$and": [{"a": 1}, {"b": 2}]}, limit=None, collection="c2")
    q3 = Query({"a": 1})
    for q in (q1, q2, q3):
        node.register_query(q, [], {}, now=0.0)
    dag = node.dag
    size_full = len(dag)
    node.deactivate_query(q2.query_id)
    # q1 still holds the whole $and subtree.
    assert len(dag) == size_full
    node.deactivate_query(q1.query_id)
    # The $and node and the exclusive {"b": 2} leaf are freed; the
    # {"a": 1} leaf survives because q3 still references it.
    assert len(dag) == 1
    node.deactivate_query(q3.query_id)
    assert len(dag) == 0


# ----------------------------------------------------------------------
# Cluster level: default config, inline byte-equivalence and convergence
# ----------------------------------------------------------------------

def _run_inline_cluster(ops, plan=None):
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=13, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=1, write_partitions=1,
        retention_seconds=3600.0, default_slack=2,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("equiv-app", broker, config=config)
    try:
        live = set()
        half = len(ops) // 2
        for key, op, value in ops[:half]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        # Same filter+sort, different geometry: the DAG shares their
        # identical predicate tree.
        top_seen, paged_seen, flat_seen = (
            Collector(), Collector(), Collector())
        top = app.subscribe("items", {"v": {"$gte": 0}},
                            sort=[("v", -1)], limit=3, on_change=top_seen)
        paged = app.subscribe("items", {"v": {"$gte": 0}},
                              sort=[("v", -1)], limit=2, offset=1,
                              on_change=paged_seen)
        flat = app.subscribe("items", {"v": {"$gte": 10}},
                             on_change=flat_seen)
        assert broker.drain()
        mid = half + max(1, (len(ops) - half) // 2)
        for key, op, value in ops[half:mid]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        app.unsubscribe(paged)          # deregistration mid-stream
        assert broker.drain()
        for key, op, value in ops[mid:]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        if plan is not None and model.fault_injector is not None:
            model.fault_injector.disarm()
            assert broker.drain()
        return (
            [d["_id"] for d in (top.initial.documents or [])],
            _fingerprint(top_seen), _fingerprint(paged_seen),
            _fingerprint(flat_seen),
            json.dumps(top.result(), sort_keys=True),
            json.dumps(flat.result(), sort_keys=True),
            cluster.queries_renewed,
        )
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


#: sha256 of the transcript below as emitted by the commit before the
#: DAG became the only matching path (6516b4c, default config: per-leaf
#: memo matching), with and without the crash plan.
PARENT_TRANSCRIPT = (
    "e5e495657a65a1017a58d9a966318a3cf32fdcfe6dd2f336a49d7261f5c6e346"
)


def test_inline_cluster_crash_replay_identical_across_gates():
    """Supervised crash + retained-write replay: the recovery stream is
    byte-identical to the undisturbed one and to what the deleted memo
    path emitted."""
    ops = [(i % 6, "insert", i * 7 % 50) for i in range(12)] + \
          [(i % 6, "delete" if i % 3 == 0 else "update", i * 11 % 50)
           for i in range(12)]
    baseline = _run_inline_cluster(ops)
    assert hashlib.sha256(json.dumps(
        baseline, default=lambda match_type: match_type.value
    ).encode()).hexdigest() == PARENT_TRANSCRIPT
    plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[10])
    assert _run_inline_cluster(ops, plan=plan) == baseline


@settings(max_examples=6, deadline=None)
@given(ops=cluster_operations)
def test_threaded_cluster_converges_identically_across_gates(ops):
    """Default config, threaded model: sorted, paged and flat
    subscriptions converge to the pull query."""
    top, t_top, paged, t_paged, flat, t_flat = _run_threaded_cluster(ops, {})
    assert top == t_top
    assert paged == t_paged
    assert flat == t_flat


def test_process_cluster_converges_with_gates_on():
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
        retention_seconds=3600.0, default_slack=3,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("app-1", broker, config=config)
    try:
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        paged = app.subscribe("items", {}, sort=[("v", -1)], limit=2,
                              offset=1)
        flat = app.subscribe("items", {"v": {"$gte": 10}})
        for i in range(20):
            app.insert("items", {"_id": i, "v": (i * 13) % 40})
        for i in range(0, 20, 3):
            app.update("items", i, {"$set": {"v": (i * 7) % 40}})
        for i in range(0, 20, 5):
            app.delete("items", i)
        settle(cluster, broker, rounds=6)
        # The writes above may all race registration and arrive through
        # retained replay, which bypasses the DAG; these arrive after it.
        for i in (1, 7, 13, 19):
            app.update("items", i, {"$set": {"v": (i * 5) % 40}})
        settle(cluster, broker, rounds=6)
        assert [d["_id"] for d in top.result()] == [
            d["_id"] for d in app.find("items", {}, sort=[("v", -1)],
                                       limit=3)]
        assert [d["_id"] for d in paged.result()] == [
            d["_id"] for d in app.find("items", {}, sort=[("v", -1)],
                                       limit=3)][1:3]
        assert {d["_id"] for d in flat.result()} == {
            d["_id"] for d in app.find("items", {"v": {"$gte": 10}})}
        # Worker-hosted cells report the DAG block inline ones do; every
        # served decision is a root lookup: a hit or an evaluation.
        snapshot = cluster.snapshot()
        assert all("dag" in row for row in snapshot["matching"])
        totals = snapshot["matching_totals"]
        assert 0 < totals["dag_queries_served"] <= (
            totals["dag_node_hits"] + totals["dag_nodes_evaluated"])
    finally:
        app.close()
        cluster.stop()
        broker.close()
