"""Multi-core smoke: the process model must out-scale the GIL.

The point of process-per-partition execution is that matching compute
runs on real cores instead of time-slicing one GIL.  On a machine with
at least 4 cores, a CPU-bound matching workload (many predicate
evaluations per write, residual predicates so every query is
evaluated) must clear **>= 2x** the threaded model's throughput with 4 workers.

On fewer cores the comparison is meaningless (worker round-trips are
pure overhead when everything shares one core), so the gate is
guarded by ``os.cpu_count()``.
"""

import os
import threading
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker

CORES_REQUIRED = 4
QUERIES = 300
WRITES = 600

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < CORES_REQUIRED,
    reason=f"multi-core scaling smoke needs >= {CORES_REQUIRED} cores "
           f"(found {os.cpu_count()})",
)


def measure_throughput(**config_kwargs) -> float:
    """Writes/s to full notification delivery on a compute-heavy grid.

    Every query but one is a distinct ``$mod`` predicate, which the
    index cannot prune (residual) and the shared DAG cannot share, so
    each write evaluates all of them — the CPU-bound regime where
    parallel matching pays.  Only one query can match each write, so
    delivery counting stays simple.
    """
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        **config_kwargs,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("scaling-smoke", broker, config=config)
    try:
        received = []
        lock = threading.Lock()

        def on_change(notification):
            with lock:
                received.append(notification)

        # One matchable query + a wall of never-matching residual
        # predicates that must all be evaluated per write: v is 1..7,
        # below every divisor, so v % divisor == v never equals 8.
        app.subscribe("stream", {"v": {"$gte": 0}}, on_change=on_change)
        for bound in range(1, QUERIES):
            app.subscribe(
                "stream",
                {"v": {"$mod": [bound + 8, 8]},
                 "pad": {"$ne": f"sentinel-{bound}"}},
                on_change=on_change,
            )
        best = None
        for _ in range(3):
            with lock:
                base = len(received)
            start = time.perf_counter()
            for index in range(WRITES):
                app.insert("stream", {"_id": f"{base}-{index}",
                                      "v": 1 + index % 7,
                                      "pad": "payload " * 4})
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                with lock:
                    if len(received) >= base + WRITES:
                        break
                time.sleep(0.002)
            elapsed = time.perf_counter() - start
            with lock:
                assert len(received) >= base + WRITES, (
                    f"only {len(received) - base}/{WRITES} delivered"
                )
            best = elapsed if best is None else min(best, elapsed)
        return WRITES / best
    finally:
        app.close()
        cluster.stop()
        broker.close()


def test_process_outscales_threaded_on_multicore(emit):
    threaded = measure_throughput(execution_model="threaded")
    process = measure_throughput(
        execution_model="process", process_workers=4,
    )
    ratio = process / threaded
    emit(f"CPU-bound matching, {QUERIES} residual queries/write:")
    emit(f"  threaded (GIL-bound) : {threaded:10,.0f} writes/s")
    emit(f"  process (4 workers)  : {process:10,.0f} writes/s")
    emit(f"  speedup: {ratio:.2f}x on {os.cpu_count()} cores")
    assert ratio >= 2.0, (
        f"process model only {ratio:.2f}x over threaded with 4 workers "
        f"on {os.cpu_count()} cores (required: >= 2x)"
    )
