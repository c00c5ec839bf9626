"""Equivalence suite: batch coalescing leaves client results unchanged.

The ``notification_coalescing`` batch optimization must leave client
materialization unchanged: replaying the coalesced stream yields the
same visible result as replaying the full stream; at cluster level the
inline model (per-tuple dispatch) emits identical client-visible
streams and the threaded model converges to the database truth for
both values of the gate.  (Sorted-window maintenance itself is checked
against a recomputation oracle in ``test_core_properties.py``.)
"""

from __future__ import annotations

import json
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import MatchEvent
from repro.core.notifications import coalesce_events
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import MatchType

from tests.conftest import Collector, settle


# ----------------------------------------------------------------------
# Cluster level: client-visible streams under both execution models
# ----------------------------------------------------------------------

cluster_operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=30,
)


def _apply_cluster_op(app, live, key, op, value):
    if op == "insert":
        if key in live:
            app.update("items", key, {"$set": {"v": value}})
        else:
            app.insert("items", {"_id": key, "v": value})
            live.add(key)
    elif op == "update":
        if key in live:
            app.update("items", key, {"$set": {"v": value}})
    elif op == "delete":
        if key in live:
            app.delete("items", key)
            live.discard(key)


def _notification_fingerprint(seen):
    return [
        (n.match_type, n.key, json.dumps(n.document, sort_keys=True),
         n.index, n.old_index, n.error)
        for n in seen
    ]


def _run_inline_cluster(ops, coalescing):
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=13))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=3600.0, default_slack=2,
        notification_coalescing=coalescing,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("equiv-app", broker, config=config)
    try:
        # Pre-populate, then subscribe: the bootstrap + retention-replay
        # registration path runs under both gate values.
        live = set()
        half = len(ops) // 2
        for key, op, value in ops[:half]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        top_seen, flat_seen = Collector(), Collector()
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3,
                            on_change=top_seen)
        flat = app.subscribe("items", {"v": {"$gte": 10}},
                             on_change=flat_seen)
        assert broker.drain()
        for key, op, value in ops[half:]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        return (
            [d["_id"] for d in (top.initial.documents or [])],
            _notification_fingerprint(top_seen),
            _notification_fingerprint(flat_seen),
            json.dumps(top.result(), sort_keys=True),
            json.dumps(flat.result(), sort_keys=True),
            list(top.errors),
            cluster.queries_renewed,
        )
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


@settings(max_examples=20, deadline=None)
@given(ops=cluster_operations)
def test_inline_cluster_streams_identical_across_gates(ops):
    """Under the deterministic inline model the full client-visible
    notification streams (sorted and unsorted subscriptions, renewal
    counts included) are identical with batch coalescing on or off: the
    inline model dispatches per tuple, so there is nothing to collapse."""
    assert _run_inline_cluster(ops, True) == _run_inline_cluster(ops, False)


def _run_threaded_cluster(ops, gates):
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=3600.0, default_slack=3,
        **gates,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("equiv-app", broker, config=config)
    try:
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        paged = app.subscribe("items", {}, sort=[("v", -1)], limit=2,
                              offset=1)
        flat = app.subscribe("items", {"v": {"$gte": 10}})
        live = set()
        for key, op, value in ops:
            _apply_cluster_op(app, live, key, op, value)
        settle(cluster, broker, rounds=5)
        truth_top = [d["_id"] for d in
                     app.find("items", {}, sort=[("v", -1)], limit=3)]
        truth_paged = [d["_id"] for d in
                       app.find("items", {}, sort=[("v", -1)],
                                limit=3)][1:3]
        truth_flat = {d["_id"] for d in app.find("items",
                                                 {"v": {"$gte": 10}})}
        return (
            [d["_id"] for d in top.result()], truth_top,
            [d["_id"] for d in paged.result()], truth_paged,
            {d["_id"] for d in flat.result()}, truth_flat,
        )
    finally:
        app.close()
        cluster.stop()
        broker.close()


@settings(max_examples=8, deadline=None)
@given(ops=cluster_operations)
def test_threaded_cluster_converges_identically_across_gates(ops):
    """Under the threaded (batched) model both values of the coalescing
    gate converge to the database truth."""
    for coalescing in (True, False):
        top, truth_top, paged, truth_paged, flat, truth_flat = (
            _run_threaded_cluster(
                ops, {"notification_coalescing": coalescing}))
        assert top == truth_top, coalescing
        assert paged == truth_paged, coalescing
        assert flat == truth_flat, coalescing


# ----------------------------------------------------------------------
# Coalescer semantics: batch-collapsed streams materialize identically
# ----------------------------------------------------------------------

@st.composite
def legal_batches(draw):
    """A batch of per-key-consistent unsorted match events.

    The filtering stage emits, per (query, key), an alternating
    membership sequence: ``add`` only when the key was absent,
    ``change``/``remove`` only while present.  Versions strictly
    increase per key (retention drops stale writes before matching).
    """
    n_keys = draw(st.integers(1, 4))
    known = {k: draw(st.booleans()) for k in range(n_keys)}
    initial = {k for k, present in known.items() if present}
    version = {k: 1 for k in range(n_keys)}
    events = []
    for _ in range(draw(st.integers(1, 12))):
        key = draw(st.integers(0, n_keys - 1))
        if known[key]:
            match_type = draw(st.sampled_from(
                [MatchType.CHANGE, MatchType.REMOVE]
            ))
        else:
            match_type = MatchType.ADD
        known[key] = match_type is not MatchType.REMOVE
        version[key] += 1
        document = (
            None if match_type is MatchType.REMOVE
            else {"_id": key, "v": version[key]}
        )
        events.append(MatchEvent("q", match_type, key, document,
                                 version[key], 0.0, False))
    return initial, events


def _materialize(initial, events):
    """Replicate RealTimeSubscription._apply for unsorted streams."""
    documents = {key: {"_id": key, "v": 1} for key in initial}
    order = list(initial)
    for event in events:
        if event.match_type is MatchType.REMOVE:
            documents.pop(event.key, None)
            if event.key in order:
                order.remove(event.key)
        elif event.match_type is MatchType.ADD:
            documents[event.key] = event.document
            if event.key not in order:
                order.append(event.key)
        else:  # CHANGE updates the document but never enters the order.
            documents[event.key] = event.document
    return {key: documents[key] for key in order}


@settings(max_examples=150, deadline=None)
@given(batch=legal_batches())
def test_coalesced_batch_materializes_identically(batch):
    initial, events = batch
    entries, dropped = coalesce_events(
        [(event, None) for event in events]
    )
    coalesced = [event for event, _ in entries]
    assert _materialize(initial, coalesced) == _materialize(initial, events)
    # At most one surviving notification per key.
    keys = [event.key for event in coalesced]
    assert len(keys) == len(set(keys))
    assert dropped == len(events) - len(coalesced)
