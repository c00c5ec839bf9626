"""Overload control composed with real failures.

Two scenarios the inline property suite cannot cover:

* **process model, sustained overload + hard kill** — shedding stays
  active (cluster pinned degraded) while a worker hosting a matching
  cell is SIGKILLed mid-burst; supervised recovery plus client
  re-subscription must still converge to the database;
* **threaded circuit breaker under sustained rejection** — the broker
  actively fails the write channel while the admission governor is
  rejecting over-budget writes; the breaker must trip open, reject
  fast, probe half-open after the cooldown and close again, and the
  client must reconcile once both storms pass.
"""

import os
import signal
import socket
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, ThreadedExecutionModel
from repro.runtime.faults import FaultPlan


def settle(cluster, broker, rounds=4, timeout=10.0):
    for _ in range(rounds):
        broker.drain(timeout)
        cluster.drain(timeout)


def wait_for(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "AF_UNIX")),
    reason="process execution model requires POSIX fork + socketpair",
)
class TestOverloadedWorkerKill:
    """kill -9 a worker during a shedding write burst; must converge."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_hard_kill_under_shedding_converges(self, seed):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            execution_model="process", process_workers=2,
            retention_seconds=0.75,
            supervisor_backoff_base=0.01,
            overload_control=True,
            shedding=True,
            force_health="degraded",
            shed_coalescing_window=0.02,
            refresh_interval_seconds=0.05,
            client_rng_seed=seed,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer(f"ok-app-{seed}", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
            assert broker.drain(timeout=10.0)
            # A burst several times the usual chaos workload, shed the
            # whole way through (degraded pin keeps the stager and the
            # sorted snapshot-refresh path on for every write).
            for i in range(60):
                app.insert("items", {"_id": i, "v": (i * seed) % 41})
            settle(cluster, broker)

            victim = cluster._cells[("matching", 0)].pid
            os.kill(victim, signal.SIGKILL)
            # Keep the pressure on straight through the outage.
            for i in range(60, 100):
                app.insert("items", {"_id": i, "v": (i * seed) % 41})
            for i in range(0, 100, 3):
                app.update("items", i, {"$inc": {"v": 100}})
            for i in range(0, 100, 9):
                app.delete("items", i)

            assert wait_for(
                lambda: cluster.supervisor.stats()["restarts"] >= 1
            ), cluster.supervisor.stats()
            settle(cluster, broker)
            # Let retention lapse so renewal cannot replay stale state,
            # then reconcile the client against the database.
            time.sleep(config.retention_seconds + 0.3)
            app.client.resubscribe_all()
            settle(cluster, broker, rounds=6)

            expected_flat = sorted(
                app.find("items", {"v": {"$gte": 0}}),
                key=lambda d: d["_id"],
            )
            expected_top = app.find("items", {}, sort=[("v", -1)],
                                    limit=5)
            assert wait_for(
                lambda: sorted(flat.result(), key=lambda d: d["_id"])
                == expected_flat
            )
            assert wait_for(lambda: top.result() == expected_top)

            pool = cluster.snapshot()["workers"]["pool"]
            assert pool["deaths"] >= 1
            health = cluster.snapshot()["health"]
            assert health["state"] == "degraded"
        finally:
            app.close()
            cluster.stop()
            broker.close()


class TestBreakerUnderRejection:
    """Threaded model: broker failures + admission rejections at once."""

    def test_half_open_recovery_while_rejections_flow(self):
        # Fail the first write publishes hard (every attempt, retries
        # included), then stop: the breaker trips, cools down, probes
        # half-open and closes on the first clean publish.
        plan = FaultPlan(seed=5).rule(
            "channel", "invalidb:writes*", "error", max_count=12,
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            overload_control=True,
            force_health="overloaded",
            admission_burst=2,
            admission_initial_rate=25.0,
            admission_min_rate=25.0,
            circuit_breaker_threshold=3,
            circuit_breaker_reset=0.05,
            publish_max_retries=1,
            publish_backoff_base=0.001,
            publish_backoff_max=0.002,
            client_rng_seed=5,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("breaker-app", broker, config=config)
        client = app.client
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain(timeout=10.0)
            failed = 0
            for i in range(40):
                try:
                    app.insert("items", {"_id": i, "v": i})
                except Exception:  # noqa: BLE001 - breaker/publish storm
                    failed += 1
                if client._breaker.state == "open":
                    break
            assert client._breaker.stats()["trips"] >= 1
            assert failed > 0
            # Open breaker rejects instantly — no broker round-trips.
            rejected_fast = 0
            while client._breaker.state == "open" and rejected_fast < 5:
                try:
                    app.insert("items", {"_id": 1000 + rejected_fast,
                                         "v": 1})
                except Exception:  # noqa: BLE001
                    rejected_fast += 1
            # Each cooldown earns one half-open probe; early probes may
            # still hit leftover faults and re-open, but the rule's
            # max_count drains and the first clean probe closes.
            for i in range(40, 80):
                time.sleep(config.circuit_breaker_reset + 0.02)
                try:
                    app.insert("items", {"_id": i, "v": i})
                except Exception:  # noqa: BLE001
                    pass
                if client._breaker.state == "closed":
                    break
            assert client._breaker.state == "closed"
            stats = client._breaker.stats()
            assert stats["rejections"] >= 1  # fast-failed while open
            # With the event layer healthy again, a rapid burst blows
            # straight through the admission budget: the rejection /
            # retry-after / resubmit loop takes over from the breaker.
            for i in range(2000, 2030):
                app.insert("items", {"_id": i, "v": 1})
            assert wait_for(
                lambda: client.writes_rejected > 0
                and client.writes_resubmitted > 0
            ), client.stats()
            assert client.cluster_health == "overloaded"
            # Ride out the resubmit storm, then reconcile.
            assert broker.drain(timeout=10.0)
            settle(cluster, broker)
            time.sleep(0.1)
            client.resubscribe_all()
            settle(cluster, broker, rounds=6)
            expected = sorted(app.find("items", {"v": {"$gte": 0}}),
                              key=lambda d: d["_id"])
            assert wait_for(
                lambda: sorted(flat.result(), key=lambda d: d["_id"])
                == expected
            )
        finally:
            app.close()
            cluster.stop()
            broker.close()
