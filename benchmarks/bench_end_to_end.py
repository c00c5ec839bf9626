"""End-to-end latency of the functional InvaliDB stack.

Complements the simulated figures with real measurements of this
repository's running system: wall-clock time from executing a write at
the app server until the subscribed client receives the change
notification, through broker -> intake -> matching grid -> broker.

The ``stack`` fixture is parametrized over the execution substrate —
batched threaded, seed-equivalent unbatched threaded, and the
deterministic inline model — so every figure carries the
executor-comparison axis.
"""

import threading
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.obs.telemetry import TelemetryConfig
from repro.runtime.execution import ExecutionConfig

EXECUTORS = {
    "threaded-batched": lambda: ExecutionConfig(max_batch=128),
    "threaded-unbatched": lambda: ExecutionConfig(max_batch=1),
    "inline": lambda: ExecutionConfig(mode="inline"),
    # Grid cells in forked workers behind the binary wire codec; the
    # figure then carries the cross-process round-trip cost.
    "process": lambda: ExecutionConfig(mode="process", worker_processes=2),
}


def build_stack(executor: str, telemetry=None):
    broker = Broker(execution=EXECUTORS[executor]())
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            telemetry=telemetry)
    # The cluster shares the broker's model: one substrate, end to end.
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("bench-app", broker, config=config)
    return broker, cluster, app


@pytest.fixture(params=sorted(EXECUTORS))
def stack(request):
    broker, cluster, app = build_stack(request.param)
    yield broker, cluster, app
    app.close()
    cluster.stop()
    broker.close()


@pytest.fixture(params=sorted(EXECUTORS))
def traced_stack(request):
    """Same stack with telemetry enabled and *every* write traced
    (sample rate 1.0 — this fixture measures the latency distribution,
    so it wants all the points, not the production sampling default)."""
    broker, cluster, app = build_stack(
        request.param, telemetry=TelemetryConfig(trace_sample_rate=1.0))
    yield request.param, broker, cluster, app
    app.close()
    cluster.stop()
    broker.close()


def test_notification_roundtrip_latency(benchmark, stack, emit):
    """One write -> one notification, measured end to end."""
    broker, cluster, app = stack
    arrival = threading.Event()

    def on_change(notification):
        arrival.set()

    app.subscribe("items", {"v": {"$gte": 0}}, on_change=on_change)
    counter = {"n": 0}

    def roundtrip():
        arrival.clear()
        counter["n"] += 1
        app.insert("items", {"_id": counter["n"], "v": counter["n"]})
        assert arrival.wait(timeout=5.0)

    benchmark.pedantic(roundtrip, rounds=30, iterations=1, warmup_rounds=3)
    emit("end-to-end write->notification roundtrips completed: "
         f"{counter['n']}")


def test_burst_throughput_with_100_queries(benchmark, stack, emit):
    """A 200-write burst against 100 live queries, to quiescence."""
    broker, cluster, app = stack
    received = []
    lock = threading.Lock()

    def on_change(notification):
        with lock:
            received.append(notification)

    for bound in range(100):
        app.subscribe("stream", {"v": {"$gte": bound * 10_000_000}},
                      on_change=on_change)
    # Only the bound-0 query can match (v is small): 1 notification/write.
    state = {"base": 0}

    def burst():
        base = state["base"]
        state["base"] += 200
        for index in range(200):
            app.insert("stream", {"_id": base + index, "v": 1 + index % 5})
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with lock:
                if len(received) >= state["base"]:
                    return
            time.sleep(0.005)
        raise AssertionError("burst did not drain in time")

    benchmark.pedantic(burst, rounds=3, iterations=1)
    with lock:
        total = len(received)
    emit(f"notifications delivered across bursts: {total}")
    assert total == state["base"]


def test_notification_latency_distribution(benchmark, traced_stack, emit):
    """Latency distribution of 300 sequential write->notify roundtrips
    on the real stack, sourced from the telemetry registry: every
    delivered notification carries a write-path trace whose end-to-end
    duration lands in the ``trace.e2e_seconds`` histogram — no manual
    stopwatching.  Under the inline model spans carry *virtual* time,
    so the distribution legitimately reports ~0 ms (no sleeps anywhere
    on the deterministic path)."""
    executor, broker, cluster, app = traced_stack
    arrival = threading.Event()
    app.subscribe("timed", {"v": {"$gte": 0}},
                  on_change=lambda n: arrival.set())

    def run_all():
        for index in range(300):
            arrival.clear()
            app.insert("timed", {"_id": index, "v": index})
            assert arrival.wait(timeout=5.0)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert broker.drain()
    snap = cluster.telemetry.registry.histogram(
        "trace.e2e_seconds"
    ).snapshot()
    emit("Functional stack write->notification latency (ms), from the")
    emit("trace.e2e_seconds telemetry histogram:")
    emit(f"  n={snap['count']}  avg={snap['average'] * 1000:.2f}  "
         f"p50={snap['p50'] * 1000:.2f}  p99={snap['p99'] * 1000:.2f}  "
         f"max={snap['max'] * 1000:.2f}")
    assert snap["count"] >= 300
    if executor != "inline":  # inline spans use virtual (~0) time
        assert snap["p50"] * 1000 < 250.0  # generous: CI machines vary
