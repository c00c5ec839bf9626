"""Property-based tests: replay of retained versioned writes is inert.

The recovery protocol leans on one invariant everywhere — a cell's
retained replay into a re-registration, event-layer redelivery after a
reconnect, duplicated publishes from client retries: *re-delivering any
suffix of the versioned write stream to a caught-up cluster must not
produce new notifications*, because every after-image is at or below
the version the filtering stage already processed.  Hypothesis drives
arbitrary workloads (inserts, updates, deletes over a small key space)
and arbitrary replay suffixes through the deterministic inline model
and checks the client never sees a duplicate or out-of-order effect.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import write_channel
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel

from tests.conftest import Collector


class SteppingClock:
    def __init__(self, start: float = 1000.0, step: float = 0.001):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


#: One workload step: (key, operation). Updates and deletes of absent
#: keys degrade to no-ops at the app server, which is fine — the
#: generated stream stays arbitrary.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["insert", "update", "delete"]),
    ),
    min_size=1,
    max_size=25,
)


def apply_operation(app, live, step, key, op):
    if op == "insert":
        if key in live:
            app.update("items", key, {"$set": {"v": step}})
        else:
            app.insert("items", {"_id": key, "v": step})
            live.add(key)
    elif op == "update":
        if key in live:
            app.update("items", key, {"$set": {"v": step + 1000}})
    elif op == "delete":
        if key in live:
            app.delete("items", key)
            live.discard(key)


@settings(max_examples=30, deadline=None)
@given(ops=operations, suffix=st.integers(min_value=0, max_value=24),
       data=st.data())
def test_replaying_any_suffix_of_retained_writes_is_inert(
    ops, suffix, data
):
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=7))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=3600.0, clock=SteppingClock(),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("prop-app", broker, config=config)
    # A second subscriber on the write channel keeps the stream as the
    # cluster received it.
    published = []
    recorder = broker.subscribe(
        write_channel(), lambda channel, payload: published.append(
            dict(payload)))
    try:
        flat_seen = Collector()
        flat = app.subscribe("items", {"v": {"$gte": 0}}, on_change=flat_seen)
        top_seen = Collector()
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3,
                            on_change=top_seen)
        assert broker.drain()
        live = set()
        for step, (key, op) in enumerate(ops):
            apply_operation(app, live, step, key, op)
        assert broker.drain()
        recorder.close()

        before_flat = json.dumps(flat.result(), sort_keys=True)
        before_top = json.dumps(top.result(), sort_keys=True)
        notifications_before = (
            len(flat_seen), len(top_seen)
        )

        # Simulated reconnect: the event layer redelivers an arbitrary
        # suffix of the write stream.
        for payload in published[min(suffix, len(published)):]:
            broker.publish(write_channel(), payload)
        assert broker.drain()

        # No duplicate, no reordering, no effect at all: the replayed
        # after-images are all stale by version.
        assert json.dumps(flat.result(), sort_keys=True) == before_flat
        assert json.dumps(top.result(), sort_keys=True) == before_top
        assert (len(flat_seen),
                len(top_seen)) == notifications_before
        # Materialized orders contain each key at most once.
        for handle in (flat, top):
            assert len(handle._order) == len(set(handle._order))
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_client_version_gate_never_regresses(ops):
    """Per-key versions observed by a subscription never decrease."""
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=3))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=3600.0, clock=SteppingClock(),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("prop-app", broker, config=config)
    try:
        flat_seen = Collector()
        app.subscribe("items", {"v": {"$gte": 0}}, on_change=flat_seen)
        assert broker.drain()
        live = set()
        for step, (key, op) in enumerate(ops):
            apply_operation(app, live, step, key, op)
        assert broker.drain()
        seen = {}
        for notification in flat_seen:
            if not notification.version:
                continue
            assert notification.version >= seen.get(notification.key, 0)
            seen[notification.key] = notification.version
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()
