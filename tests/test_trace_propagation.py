"""Property tests: every delivered notification carries a full trace.

The write-path tracing contract (DESIGN.md §9): with telemetry enabled
and every write sampled, each notification a client materializes must
carry a trace whose span chain covers the pipeline —
``publish -> filter -> [sort] -> deliver -> materialize`` for write
notifications, ``publish -> [filter|sort] -> deliver -> materialize``
for subscription results — with every span closed and all timestamps
monotonically non-decreasing in pipeline order.  The one exception is
the catch-up delta a client computes itself when it answers a resync
after a crash: those rows never crossed the pipeline and carry no
trace (nor a version).  Hypothesis drives arbitrary workloads through
the deterministic inline model (including a scripted matching-node
crash, so the resync's renewal traffic is covered too) and a fixed
workload exercises the threaded model under wall-clock time.  Same-seed
inline runs must produce byte-identical trace transcripts.
"""

import glob
import json
import os
import signal
import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.partitioning import PartitioningScheme
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.obs.telemetry import TelemetryConfig
from repro.obs.tracing import STAGES, is_complete, span_names, spans_of
from repro.query.engine import Query
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan


class SteppingClock:
    def __init__(self, start: float = 1000.0, step: float = 0.001):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def assert_valid_trace(notification, slack: float = 0.0) -> None:
    """One notification's trace is present, complete, ordered, monotone.

    ``slack`` loosens the cross-span monotonicity check by that many
    seconds: worker-side spans under ``execution_model="process"`` are
    stamped with a calibrated clock whose residual offset error is
    bounded by half the calibration round-trip, so adjacent spans from
    different processes may overlap by a few microseconds.
    """
    trace = notification.trace
    assert trace is not None, "notification arrived without a trace"
    assert is_complete(trace), f"open span in {trace}"
    names = span_names(trace)
    assert len(names) >= 4, f"expected >= 4 spans, got {names}"
    assert len(set(names)) == len(names), f"repeated stage in {names}"
    ranks = [STAGES.index(name) for name in names]  # unknown name raises
    assert ranks == sorted(ranks), f"stages out of pipeline order: {names}"
    assert names[0] == "publish" and names[-1] == "materialize"
    assert "deliver" in names
    # Monotonic timestamps: start <= end within a span, and nothing
    # starts before the previous span ended (modulo calibration slack).
    previous_end = trace["start"]
    for name, start, end in spans_of(trace):
        assert start >= previous_end - slack, \
            f"{name} starts before previous end"
        assert end >= start, f"{name} ends before it starts"
        previous_end = end


def assert_all_traced(*subscriptions, slack: float = 0.0,
                      resynced: int = 0) -> int:
    """Every notification is fully traced; after a resync (*resynced*
    queries), the client's own catch-up rows — untraced, unversioned —
    are the only exception.  Returns the traced count."""
    checked = 0
    for subscription in subscriptions:
        for notification in subscription.notifications:
            if resynced and notification.trace is None:
                assert notification.version == 0, \
                    f"untraced pipeline notification {notification}"
                continue
            assert_valid_trace(notification, slack=slack)
            checked += 1
    return checked


def by_id(documents):
    return sorted(documents, key=lambda document: document["_id"])


FLAT = {"v": {"$gte": 0}}


def flat_row_task(wp: int = 0) -> int:
    """The matching task at write partition *wp* of the 2x2 grid row
    that holds the ``FLAT`` query on ``items``."""
    scheme = PartitioningScheme(2, 2)
    qp = scheme.query_partition_of(Query(FLAT, collection="items")
                                   .partition_hash)
    return qp * scheme.write_partitions + wp


operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["insert", "update", "delete"]),
    ),
    min_size=1,
    max_size=20,
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


def run_workload(app, ops):
    live = set()
    for step, (key, op) in enumerate(ops):
        apply_operation(app, live, step, key, op)


@settings(max_examples=25, deadline=None)
@given(ops=operations, crash_at=st.one_of(
    st.none(), st.integers(min_value=1, max_value=15)))
def test_inline_notifications_carry_complete_span_chains(ops, crash_at):
    """Arbitrary inline workloads — optionally crashing one matching
    node mid-stream so the resync's renewal is on the path — deliver
    only fully-traced notifications, apart from the client's catch-up
    rows, and converge to the pull query."""
    plan = None
    if crash_at is not None:
        plan = FaultPlan().rule("mailbox", "matching*", "crash",
                                at=[crash_at])
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=11, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=3600.0, clock=SteppingClock(),
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("trace-prop", broker, config=config)
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        assert broker.drain()
        run_workload(app, ops)
        assert broker.drain()
        snap = cluster.snapshot()
        assert_all_traced(flat, top,
                          resynced=snap["supervisor"]["resynced_queries"])
        # Small workloads may end before the scripted crash point is
        # reached; when the crash did fire, recovery must have run.
        if snap["faults"]["crashes"] >= 1:
            assert snap["supervisor"]["restarts"] >= 1
        assert by_id(flat.result()) == by_id(app.find("items", FLAT))
        assert top.result() == app.find("items", {}, sort=[("v", -1)],
                                        limit=3)
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def test_threaded_notifications_carry_complete_span_chains():
    """The same contract under real threads and wall-clock spans."""
    model = ThreadedExecutionModel(ExecutionConfig())
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("trace-threaded", broker, config=config)
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        assert broker.drain(timeout=10.0)
        for i in range(40):
            app.insert("items", {"_id": i, "v": i})
        for i in range(0, 40, 2):
            app.update("items", i, {"$set": {"v": i + 100}})
        for i in range(0, 40, 5):
            app.delete("items", i)
        assert broker.drain(timeout=10.0)
        assert assert_all_traced(flat, top) >= 40
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_threaded_crash_recovery_keeps_notifications_traced():
    """Crash a matching cell of the query's row mid-stream under the
    threaded model: the supervisor restarts it and has the query
    renewed, and every write after the restart reaches the handle fully
    traced, through the fresh cell's ``filter`` span."""
    import time

    plan = FaultPlan().rule("mailbox", glob.escape(
        f"matching[{flat_row_task()}]"), "crash", at=[5])
    model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=300.0, supervisor_backoff_base=0.01,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("trace-crash", broker, config=config)
    try:
        flat = app.subscribe("items", FLAT)
        assert broker.drain(timeout=10.0)
        for i in range(20):
            app.insert("items", {"_id": i, "v": i})
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if cluster.supervisor.stats()["resynced_queries"] >= 1:
                break
            time.sleep(0.05)
        assert broker.drain(timeout=10.0)
        for i in range(20, 40):
            app.insert("items", {"_id": i, "v": i})
        assert broker.drain(timeout=10.0)
        snap = cluster.snapshot()
        assert snap["supervisor"]["restarts"] >= 1
        assert snap["supervisor"]["resynced_queries"] >= 1
        assert_all_traced(flat, resynced=1)
        live = [n for n in flat.notifications if n.key >= 20]
        assert sorted(n.key for n in live) == list(range(20, 40))
        assert all("filter" in span_names(n.trace) for n in live)
        assert by_id(flat.result()) == by_id(app.find("items", FLAT))
    finally:
        app.close()
        cluster.stop()
        broker.close()


def transcript_bytes(seed: int) -> bytes:
    """Serialize one inline run's complete trace transcript."""
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=seed))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        clock=SteppingClock(),
        telemetry=TelemetryConfig(trace_sample_rate=1.0,
                                  transcript_capacity=4096),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("transcript", broker, config=config)
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        assert broker.drain()
        for i in range(40):
            app.insert("items", {"_id": i, "v": (i * 7) % 23})
        for i in range(0, 40, 3):
            app.update("items", i, {"$inc": {"v": 100}})
        for i in range(0, 40, 8):
            app.delete("items", i)
        assert broker.drain()
        checked = assert_all_traced(flat, top)
        assert checked >= 40
        transcripts = list(cluster.telemetry.tracer.transcripts)
        assert len(transcripts) == checked
        return json.dumps(transcripts, sort_keys=True).encode()
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


@pytest.mark.parametrize("seed", [3, 11])
def test_same_seed_inline_runs_produce_identical_transcripts(seed):
    assert transcript_bytes(seed) == transcript_bytes(seed)


# --------------------------------------------------------------------------
# Process model: spans must survive the wire.  Worker-side stages run in
# forked processes whose perf_counter domain differs from the parent's;
# the pool calibrates a per-worker offset at fork, so merged chains stay
# monotone within a small slack (residual error <= calibration RTT / 2).

process_model = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "AF_UNIX")),
    reason="process model needs fork + AF_UNIX socketpairs",
)

#: Generous bound on calibration error for same-host socketpair pings.
CLOCK_SLACK = 0.005


def settle(cluster, broker, rounds: int = 4, timeout: float = 10.0):
    """Alternate broker and cluster drains until both report idle."""
    for _ in range(rounds):
        broker.drain(timeout)
        cluster.drain(timeout)


def process_cluster(**overrides):
    broker = Broker()
    kwargs = dict(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
        notification_coalescing=False,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    )
    kwargs.update(overrides)
    config = InvaliDBConfig(**kwargs)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("trace-process", broker, config=config)
    return broker, cluster, app


@process_model
def test_process_notifications_carry_complete_span_chains():
    """The tracing contract of DESIGN.md §9 holds when matching and
    sorting cells live in forked worker processes: worker-side filter /
    sort spans ride the wire envelopes out, completed spans ride the
    REPLY frames back, and the merged chain is complete."""
    broker, cluster, app = process_cluster()
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        settle(cluster, broker)
        for i in range(30):
            app.insert("items", {"_id": i, "v": i})
        for i in range(0, 30, 2):
            app.update("items", i, {"$set": {"v": i + 100}})
        for i in range(0, 30, 5):
            app.delete("items", i)
        settle(cluster, broker)
        assert assert_all_traced(flat, top, slack=CLOCK_SLACK) >= 30
        filtered = [n for n in flat.notifications
                    if "filter" in span_names(n.trace)]
        assert filtered, "no notification carried a worker-side filter span"
        sorted_spans = [n for n in top.notifications
                        if "sort" in span_names(n.trace)]
        assert sorted_spans, "no notification carried a worker-side sort span"
    finally:
        app.close()
        cluster.stop()
        broker.close()


@process_model
@settings(max_examples=5, deadline=None)
@given(ops=operations)
def test_process_span_chain_property(ops):
    """Hypothesis variant: arbitrary workloads through forked workers
    still deliver only fully-traced notifications."""
    broker, cluster, app = process_cluster()
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        settle(cluster, broker)
        run_workload(app, ops)
        settle(cluster, broker)
        assert_all_traced(flat, top, slack=CLOCK_SLACK)
    finally:
        app.close()
        cluster.stop()
        broker.close()


@process_model
def test_process_worker_kill9_replay_keeps_traces():
    """kill -9 the worker hosting a cell of the query's row: the
    supervisor restarts the cell in a fresh (freshly calibrated) worker
    and has the query renewed — writes after the respawn carry the
    worker-side ``filter`` span and every notification stays fully
    traced, apart from the client's catch-up rows."""
    broker, cluster, app = process_cluster(
        retention_seconds=300.0, supervisor_backoff_base=0.05,
    )
    try:
        flat = app.subscribe("items", FLAT)
        settle(cluster, broker)
        for i in range(20):
            app.insert("items", {"_id": i, "v": i})
        settle(cluster, broker)
        victim = cluster._cells[("matching", flat_row_task())].pid
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline:
            if cluster.supervisor.stats()["resynced_queries"] >= 1:
                break
            time.sleep(0.05)
        settle(cluster, broker)
        for i in range(20, 30):
            app.insert("items", {"_id": i, "v": i})
        settle(cluster, broker)
        snap = cluster.snapshot()
        assert snap["supervisor"]["restarts"] >= 1
        assert snap["supervisor"]["resynced_queries"] >= 1
        assert_all_traced(flat, slack=CLOCK_SLACK, resynced=1)
        live = [n for n in flat.notifications if n.key >= 20]
        assert sorted(n.key for n in live) == list(range(20, 30))
        for notification in live:
            assert "filter" in span_names(notification.trace), \
                "a write after the respawn lost its worker-side filter span"
        assert by_id(flat.result()) == by_id(app.find("items", FLAT))
    finally:
        app.close()
        cluster.stop()
        broker.close()
