"""Equivalence suite: shared multi-query execution vs per-query paths.

The shared predicate DAG is the filtering stage's only matching path;
shared sorted-window views (``shared_sorted_windows``) and
churn-adaptive slack (``adaptive_slack``) are gated sorting-stage
layers.  Sharing is a pure optimization: every observable stream must
be byte-identical to deciding each query on its own.

* node level — a default-config filtering node emits exactly the
  match-event stream of a test-local per-query reference built on plain
  ``Query.matches``; sorting nodes emit identical per-query streams
  with windows shared or solo (maintenance errors, renewal deltas and
  deactivation included);
* cluster level — the inline transcript is pinned to the hash recorded
  before the per-leaf memo path was deleted and is identical with
  windows shared or solo, crash + retained-write replay included;
  threaded and process clusters converge to the pull query;
* adaptive slack — the advisor grows preemptively for delete-heavy
  queries, backs off for stable ones, and the grow hint rides error
  notifications end to end.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.server import AppServer
from repro.core.sorting import SlackAdvisor, SortingNode
from repro.event.broker import Broker
from repro.query import operators as ops
from repro.query.ast import FieldPredicate
from repro.query.engine import Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.types import AfterImage, MatchType, WriteKind

from tests.conftest import settle
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
        # limit variants keep query ids distinct even for equal filters
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
        Query(_combine(shape, picks), sort=[("score", -1)], limit=limit)
        for shape, picks, limit in specs
    ]
    if exotic:
        query = Query({"score": {"$gte": 50}}, sort=[("score", -1)],
                      limit=len(specs) + 1)
        query.node = FieldPredicate("score", _UnhashableGte(50))
        queries.insert(0, query)
    return queries


class _PerQueryReference:
    """What the filtering stage must emit, decided one query at a time
    by plain ``Query.matches`` (the pull store's matcher: no index, no
    sharing); add/change/remove falls out of the key's previous
    membership.  Like the node it retains the latest after-image per
    key, drops stale versions and replays onto a new registration."""

    def __init__(self):
        self._queries = {}      # query id -> (query, {key: last document})
        self._retained = {}     # key -> latest after-image

    def register(self, query):
        members = {}
        self._queries[query.query_id] = (query, members)
        return [event for after in self._retained.values()
                for event in self._decide(query, members, after)]

    def deactivate(self, query_id):
        return self._queries.pop(query_id, None) is not None

    def write(self, after):
        seen = self._retained.get(after.key)
        if after.version <= (seen.version if seen is not None else 0):
            return []
        self._retained[after.key] = after
        return [event for query, members in self._queries.values()
                for event in self._decide(query, members, after)]

    @staticmethod
    def _decide(query, members, after):
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
        return [MatchEvent(query.query_id, match_type, after.key, document,
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
        return Query(filter_doc, sort=[("score", 1)], limit=i + 1)

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
# Sorting: shared window views vs solo states
# ----------------------------------------------------------------------

def _view_event(query_id, kind, key, score, version, ts):
    if kind == "rm":
        return MatchEvent(query_id, MatchType.REMOVE, key, None,
                          version, ts, True)
    return MatchEvent(query_id, MatchType.ADD, key,
                      {"_id": key, "score": score}, version, ts, True)


def _register_sorted(node, query, documents, slack):
    rewritten = query.rewritten_for_subscription(slack)
    bootstrap = sorted(documents, key=query.sort.key)
    if rewritten.limit is not None:
        bootstrap = bootstrap[: rewritten.limit]
    versions = {doc["_id"]: 1 for doc in bootstrap}
    return node.register_query(query, [dict(d) for d in bootstrap],
                               versions, slack=slack)


@st.composite
def window_workloads(draw):
    slack = draw(st.sampled_from([1, 2, 3]))
    total = draw(st.integers(2, 6))          # offset + limit per view
    offsets = draw(st.lists(st.integers(0, total - 1), min_size=2,
                            max_size=4, unique=True))
    views = [(off, total - off, slack) for off in offsets]
    if draw(st.booleans()):
        # A different capacity: must land in its own group.
        views.append((0, total + 2, slack))
    bootstrap_scores = draw(st.lists(st.integers(0, 30), min_size=0,
                                     max_size=10))
    steps = draw(st.lists(
        st.tuples(st.integers(0, 11),
                  st.sampled_from(["up", "up", "rm"]),
                  st.integers(0, 30)),
        min_size=2, max_size=25,
    ))
    drop_at = draw(st.integers(0, max(0, len(steps) - 1)))
    return views, bootstrap_scores, steps, drop_at


def _run_sorting(shared, workload):
    views, bootstrap_scores, steps, drop_at = workload
    documents = [{"_id": f"k{i}", "score": score}
                 for i, score in enumerate(bootstrap_scores)]
    queries = [
        (Query({"score": {"$gte": 0}}, collection="c",
               sort=[("score", 1)], limit=lim, offset=off), slk)
        for off, lim, slk in views
    ]
    node = SortingNode(shared_windows=shared)
    stream = []
    for query, slk in queries:
        stream.append(("register", query.query_id,
                       _register_sorted(node, query, documents, slk)))
    versions = {f"k{i}": 1 for i in range(12)}
    for step, (key_index, kind, score) in enumerate(steps):
        if step == drop_at:
            stream.append(("drop",
                           node.deactivate_query(queries[0][0].query_id)))
        key = f"k{key_index}"
        versions[key] += 1
        for query, slk in queries:
            if node.state_of(query.query_id) is None:
                # Renewal after error or deactivation, fixed bootstrap.
                stream.append(("renew", query.query_id,
                               _register_sorted(node, query, documents,
                                                slk)))
            event = _view_event(query.query_id, kind, key, score,
                                versions[key], float(step))
            stream.append((kind, query.query_id,
                           node.handle_event(event)))
    stream.append(("renewals", node.renewals_requested))
    return stream, node


@settings(max_examples=80, deadline=None)
@given(workload=window_workloads())
def test_sorting_streams_identical_across_window_gate(workload):
    """Shared-window views emit bit-for-bit the solo per-query streams
    — including per-view maintenance errors (siblings survive), renewal
    deltas and mid-stream deactivation — while same-capacity views
    actually share one maintained core."""
    baseline, _ = _run_sorting(False, workload)
    shared, node = _run_sorting(True, workload)
    assert shared == baseline
    # At least the equal-capacity views grouped at initial bootstrap.
    assert node.shared_attach >= len(set(
        off for off, lim, slk in workload[0][:2]
    )) - 1


def test_shared_window_group_formation_and_cleanup():
    docs = [{"_id": i, "score": i} for i in range(10)]
    node = SortingNode(shared_windows=True)
    a = Query({}, collection="c", sort=[("score", 1)], limit=3)
    b = Query({}, collection="c", sort=[("score", 1)], limit=2, offset=1)
    c = Query({}, collection="c", sort=[("score", 1)], limit=5)  # cap !=
    for q in (a, b, c):
        _register_sorted(node, q, docs, slack=2)
    assert node.shared_group_count == 2
    assert node.shared_attach == 1           # b joined a's core
    node.deactivate_query(a.query_id)
    assert node.shared_group_count == 2      # b still holds the core
    node.deactivate_query(b.query_id)
    assert node.shared_group_count == 1      # empty core dropped
    node.deactivate_query(c.query_id)
    assert node.shared_group_count == 0


def test_shared_window_drifted_bootstrap_falls_back_solo():
    """A bootstrap that disagrees with the live core (lagging database
    snapshot) must not attach — the query runs solo instead."""
    docs = [{"_id": i, "score": i} for i in range(8)]
    node = SortingNode(shared_windows=True)
    a = Query({}, collection="c", sort=[("score", 1)], limit=3)
    _register_sorted(node, a, docs, slack=2)
    # Advance the core past the would-be bootstrap.
    node.handle_event(_view_event(a.query_id, "up", 0, 25, 2, 1.0))
    b = Query({}, collection="c", sort=[("score", 1)], limit=2, offset=1)
    _register_sorted(node, b, docs, slack=2)   # stale: pre-update docs
    assert node.shared_miss == 1
    assert node.shared_attach == 0
    # And the solo fallback still behaves: identical event handling.
    changes = node.handle_event(
        _view_event(b.query_id, "up", 0, 25, 2, 2.0))
    assert isinstance(changes, list)


def test_shared_window_interleaved_delivery_follows_apply_order():
    """Cross-partition interleaving: when a view's events arrive out of
    the core's apply order, earlier buffered results drain first so the
    view's stream still reads like a solo state applying the writes in
    core order."""
    docs = [{"_id": i, "score": i * 10} for i in range(6)]
    shared = SortingNode(shared_windows=True)
    a = Query({}, collection="c", sort=[("score", 1)], limit=3)
    b = Query({}, collection="c", sort=[("score", 1)], limit=2, offset=1)
    for q in (a, b):
        _register_sorted(shared, q, docs, slack=2)
    assert shared.shared_attach == 1
    w1 = lambda qid: _view_event(qid, "up", 9, 5, 1, 1.0)   # noqa: E731
    w2 = lambda qid: _view_event(qid, "up", 8, 15, 1, 2.0)  # noqa: E731
    # Interleaved: a@w1, a@w2, b@w2 (out of order for b), b@w1.
    out_a1 = shared.handle_event(w1(a.query_id))
    out_a2 = shared.handle_event(w2(a.query_id))
    out_b2 = shared.handle_event(w2(b.query_id))
    out_b1 = shared.handle_event(w1(b.query_id))
    # Solo twin of b applying the writes in core order (w1 then w2):
    solo = SortingNode(shared_windows=False)
    _register_sorted(solo, b, docs, slack=2)
    solo_1 = solo.handle_event(w1(b.query_id))
    solo_2 = solo.handle_event(w2(b.query_id))
    # b@w2 drained w1's buffered changes first, then emitted w2's.
    assert out_b2 == solo_1 + solo_2
    assert out_b1 == []          # already consumed via the drain
    # a saw plain in-order delivery.
    solo_a = SortingNode(shared_windows=False)
    _register_sorted(solo_a, a, docs, slack=2)
    assert out_a1 == solo_a.handle_event(w1(a.query_id))
    assert out_a2 == solo_a.handle_event(w2(a.query_id))


# ----------------------------------------------------------------------
# Adaptive slack: the advisor and the end-to-end grow hint
# ----------------------------------------------------------------------

class TestSlackAdvisor:
    def test_grows_aggressively_for_delete_heavy_queries(self):
        advisor = SlackAdvisor(growth_factor=4.0)
        for i in range(20):
            advisor.observe("q", MatchType.REMOVE if i % 2 else
                            MatchType.ADD, slack_remaining=1)
        advisor.observe_error("q")
        assert advisor.grow("q", 4) == 16

    def test_grows_gently_for_stable_queries(self):
        advisor = SlackAdvisor()
        for _ in range(40):
            advisor.observe("q", MatchType.ADD, slack_remaining=5)
        advisor.observe_error("q")
        # A fluke error on a stable query: one step, not a blind jump.
        assert advisor.grow("q", 8) == 9

    def test_shrinks_stable_queries_on_reexecution(self):
        advisor = SlackAdvisor(min_events=32)
        for _ in range(40):
            advisor.observe("q", MatchType.ADD, slack_remaining=9)
        assert advisor.shrink("q", 10) == 5

    def test_never_shrinks_below_floor(self):
        advisor = SlackAdvisor(min_events=1, floor=1)
        advisor.observe("q", MatchType.ADD, slack_remaining=1)
        assert advisor.shrink("q", 1) == 1

    def test_keeps_slack_when_low_water_dipped(self):
        advisor = SlackAdvisor(min_events=4)
        for _ in range(10):
            advisor.observe("q", MatchType.ADD, slack_remaining=2)
        # Low-water 2 < 10/2: the budget was actually needed.
        assert advisor.shrink("q", 10) == 10

    def test_keeps_slack_after_errors_or_churn(self):
        advisor = SlackAdvisor(min_events=4)
        for _ in range(10):
            advisor.observe("e", MatchType.ADD, slack_remaining=8)
        advisor.observe_error("e")
        assert advisor.shrink("e", 8) == 8
        for _ in range(10):
            advisor.observe("d", MatchType.REMOVE, slack_remaining=8)
        assert advisor.shrink("d", 8) == 8

    def test_unknown_query_is_conservative(self):
        advisor = SlackAdvisor()
        assert advisor.grow("ghost", 3) == 4
        assert advisor.shrink("ghost", 3) == 3


def test_error_change_carries_grow_hint():
    """With the gate on, the maintenance-error change recommends a
    slack sized to the observed churn (delete-heavy here)."""
    docs = [{"_id": i, "score": i} for i in range(8)]
    node = SortingNode(adaptive_slack=True)
    query = Query({}, collection="c", sort=[("score", 1)], limit=4)
    _register_sorted(node, query, docs, slack=2)
    version = 1
    error_changes = []
    for key in range(8):
        version += 1
        changes = node.handle_event(_view_event(
            query.query_id, "rm", key, 0, version, float(key)))
        error_changes.extend(c for c in changes if c.is_error)
        if error_changes:
            break
    assert error_changes, "delete storm must force a maintenance error"
    hint = error_changes[0].suggested_slack
    assert hint is not None and hint >= 8  # aggressive: 2 * factor


def test_adaptive_slack_gate_off_carries_no_hint():
    docs = [{"_id": i, "score": i} for i in range(8)]
    node = SortingNode()
    query = Query({}, collection="c", sort=[("score", 1)], limit=4)
    _register_sorted(node, query, docs, slack=2)
    version = 1
    for key in range(8):
        version += 1
        changes = node.handle_event(_view_event(
            query.query_id, "rm", key, 0, version, float(key)))
        for change in changes:
            if change.is_error:
                assert change.suggested_slack is None
                return
    pytest.fail("delete storm must force a maintenance error")


# ----------------------------------------------------------------------
# Cluster level: default config and the window gate, inline byte-equivalence
# ----------------------------------------------------------------------

GATES = [{}, {"shared_sorted_windows": True}]


def _run_inline_cluster(ops, gates, plan=None):
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=13, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=1, write_partitions=1,
        retention_seconds=3600.0, default_slack=2,
        **gates,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("equiv-app", broker, config=config)
    try:
        live = set()
        half = len(ops) // 2
        for key, op, value in ops[:half]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        # Same filter+sort, same capacity, different geometry: the
        # shared-window gate groups these; the DAG shares their
        # identical predicate tree.
        top = app.subscribe("items", {"v": {"$gte": 0}},
                            sort=[("v", -1)], limit=3)
        paged = app.subscribe("items", {"v": {"$gte": 0}},
                              sort=[("v", -1)], limit=2, offset=1)
        flat = app.subscribe("items", {"v": {"$gte": 10}})
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
            _fingerprint(top), _fingerprint(paged), _fingerprint(flat),
            json.dumps(top.result(), sort_keys=True),
            json.dumps(flat.result(), sort_keys=True),
            cluster.queries_renewed,
        )
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


@settings(max_examples=12, deadline=None)
@given(ops=cluster_operations)
def test_inline_cluster_streams_identical_across_gates(ops):
    baseline = _run_inline_cluster(ops, GATES[0])
    for gates in GATES[1:]:
        assert _run_inline_cluster(ops, gates) == baseline, gates


#: sha256 of the transcript below as emitted by the commit before the
#: DAG became the only matching path (6516b4c, default config: per-leaf
#: memo matching), with and without the crash plan.
PARENT_TRANSCRIPT = (
    "e5e495657a65a1017a58d9a966318a3cf32fdcfe6dd2f336a49d7261f5c6e346"
)


def test_inline_cluster_crash_replay_identical_across_gates():
    """Supervised crash + retained-write replay: the recovery stream is
    byte-identical to the undisturbed one, to what the deleted memo path
    emitted, and with windows shared or solo."""
    ops = [(i % 6, "insert", i * 7 % 50) for i in range(12)] + \
          [(i % 6, "delete" if i % 3 == 0 else "update", i * 11 % 50)
           for i in range(12)]
    baseline = _run_inline_cluster(ops, GATES[0])
    assert hashlib.sha256(json.dumps(
        baseline, default=lambda match_type: match_type.value
    ).encode()).hexdigest() == PARENT_TRANSCRIPT
    for gates in GATES:
        plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[10])
        assert _run_inline_cluster(ops, gates, plan=plan) == baseline, gates


@settings(max_examples=6, deadline=None)
@given(ops=cluster_operations)
def test_threaded_cluster_converges_identically_across_gates(ops):
    for gates in GATES:
        top, t_top, paged, t_paged, flat, t_flat = _run_threaded_cluster(
            ops, gates
        )
        assert top == t_top, gates
        assert paged == t_paged, gates
        assert flat == t_flat, gates


def test_process_cluster_converges_with_gates_on():
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
        shared_sorted_windows=True,
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


def test_adaptive_slack_hint_travels_to_client():
    """End to end under the inline model: a delete-heavy workload hits
    a maintenance error; the error notification carries the sorting
    stage's grow hint and the client's renewal slack honors it."""
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=7))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=1, write_partitions=1,
        retention_seconds=3600.0, default_slack=1,
        adaptive_slack=True, renewal_min_interval=0.0,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("adaptive-app", broker, config=config)
    try:
        for i in range(12):
            app.insert("items", {"_id": i, "v": i})
        assert broker.drain()
        sub = app.subscribe("items", {}, sort=[("v", 1)], limit=4)
        assert broker.drain()
        for i in range(12):
            app.delete("items", i)
        assert broker.drain()
        errors = [n for n in sub.notifications if n.is_error]
        assert errors
        hints = [n.suggested_slack for n in errors
                 if n.suggested_slack is not None]
        assert hints, "adaptive gate must attach grow hints"
        assert cluster.queries_renewed >= 1
        qid = sub.query.query_id
        assert app.client._slacks[qid] >= 2
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()
