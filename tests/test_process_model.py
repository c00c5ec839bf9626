"""Process-per-partition execution: behavior, equivalence, recovery.

The process model moves the grid's compute into forked worker
processes behind the binary wire codec; everything observable — the
notification stream, supervised recovery, the cluster snapshot — must
stay equivalent to the in-process substrates.  The equivalence suite
runs one seeded workload on the inline, threaded and process models
and compares normalized transcripts; the chaos test hard-kills a
worker (`SIGKILL`, no cleanup) and asserts supervised recovery
converges to the database.
"""

import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.errors import ClusterConfigError, WorkerDiedError
from repro.event.broker import Broker
from repro.event.wire import MSG_BATCH, MSG_REPLY, recv_frame, send_frame
from repro.obs.export import to_json, to_prometheus
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.process import RemoteCellError, WorkerPool, _Worker
from repro.types import MatchType
from tests.conftest import Collector, worker_leftovers

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "AF_UNIX")),
    reason="process execution model requires POSIX fork + socketpair",
)


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


def apply_workload(app):
    """The chaos suite's deterministic write mix."""
    for i in range(40):
        app.insert("items", {"_id": i, "v": i})
    for i in range(0, 40, 2):
        app.update("items", i, {"$set": {"v": i + 100}})
    for i in range(0, 40, 5):
        app.delete("items", i)


def transcript(seen):
    """Timestamp-free transcript of everything a subscription saw, from
    its ``on_change`` collector."""
    return [
        (
            n.match_type.value, n.key, n.version, n.index, n.old_index,
            json.dumps(n.document, sort_keys=True, default=str),
        )
        for n in seen
    ]


def row_keys(snapshot):
    """Key set of every grid row, per role.  ``pid`` is the one key a
    worker-hosted row adds (it names the hosting process)."""
    return {
        role: [sorted(set(row) - {"pid"}) for row in snapshot[role]]
        for role in ("matching", "sorting")
    }


def run_scenario(**config_kwargs):
    """One seeded workload under the given execution configuration.

    Returns everything observable in serialized form so substrates can
    be compared: final results, the database's view, and the flat
    (unsorted) query's transcript.  Two normalizations make streams
    comparable: in-batch coalescing is disabled so every substrate
    emits one notification per matching write.  The transcripts then
    differ only in cross-task interleaving, which the multiset
    comparison normalizes away.
    """
    execution = config_kwargs.pop("broker_execution", None)
    broker = Broker(execution=execution) if execution else Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        notification_coalescing=False,
        **config_kwargs,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("equivalence-app", broker, config=config)
    try:
        flat_seen = Collector()
        flat = app.subscribe("items", {"v": {"$gte": 0}},
                             on_change=flat_seen)
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        settle(cluster, broker)
        apply_workload(app)
        settle(cluster, broker, rounds=6)
        snapshot = cluster.snapshot()
        return {
            "row_keys": row_keys(snapshot),
            "flat_result": json.dumps(
                sorted(flat.result(), key=lambda d: d["_id"]),
                sort_keys=True,
            ),
            "top_result": json.dumps(top.result(), sort_keys=True),
            "db_flat": json.dumps(
                sorted(app.find("items", {"v": {"$gte": 0}}),
                       key=lambda d: d["_id"]),
                sort_keys=True,
            ),
            "db_top": json.dumps(
                app.find("items", {}, sort=[("v", -1)], limit=5),
                sort_keys=True,
            ),
            "flat_transcript": transcript(flat_seen),
        }
    finally:
        app.close()
        cluster.stop()
        broker.close()


class TestProcessModelBasics:
    def test_unsorted_lifecycle(self):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            execution_model="process", process_workers=2,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker)
        try:
            seen = Collector()
            sub = app.subscribe("items", {"v": {"$gte": 10}},
                                on_change=seen)
            assert sub.initial.documents == []

            app.insert("items", {"_id": 1, "v": 15})
            app.insert("items", {"_id": 2, "v": 5})
            settle(cluster, broker)
            assert wait_for(lambda: len(seen) == 1)
            assert seen[0].match_type is MatchType.ADD

            app.update("items", 1, {"$set": {"v": 20}})
            settle(cluster, broker)
            assert wait_for(
                lambda: seen[-1].match_type is MatchType.CHANGE
            )

            app.update("items", 1, {"$set": {"v": 1}})
            settle(cluster, broker)
            assert wait_for(
                lambda: seen[-1].match_type is MatchType.REMOVE
            )
            assert sub.result() == []
            # Default config: every worker-hosted cell matched via its DAG.
            assert sum(row["dag"]["roots"]
                       for row in cluster.snapshot()["matching"]) == 2
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_sorted_query_in_worker(self):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            execution_model="process", process_workers=2,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker)
        try:
            sub = app.subscribe("items", {"v": {"$gte": 0}},
                                sort=[("v", 1)], limit=3)
            for i in range(10):
                app.insert("items", {"_id": i, "v": (i * 7) % 13})
            settle(cluster, broker, rounds=6)
            expected = app.find("items", {"v": {"$gte": 0}},
                                sort=[("v", 1)], limit=3)
            assert wait_for(lambda: sub.result() == expected)
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_snapshot_merges_worker_state(self):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            execution_model="process", process_workers=2,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app-1", broker)
        try:
            app.subscribe("items", {"v": {"$gte": 0}})
            for i in range(8):
                app.insert("items", {"_id": i, "v": i})
            settle(cluster, broker)
            snap = cluster.snapshot()
            # One row per grid cell, same shape as the in-process rows.
            assert len(snap["matching"]) == 4
            assert len(snap["sorting"]) == 1
            for row in snap["matching"] + snap["sorting"]:
                assert "pid" in row and "wire" not in row
            inline_broker = Broker(execution=InlineExecutionModel(
                ExecutionConfig(mode="inline", seed=5)))
            inline = InvaliDBCluster(inline_broker, InvaliDBConfig(
                query_partitions=2, write_partitions=2)).start()
            try:
                assert row_keys(inline.snapshot()) == row_keys(snap)
            finally:
                inline.stop()
                inline_broker.close()
            assert sum(
                r["writes_processed"] for r in snap["matching"]
            ) > 0
            # Wire counters aggregate the parent and worker sides.
            wire = snap["workers"]["wire"]
            assert wire["frames_sent"] > 0
            assert wire["bytes_sent"] > 0
            assert wire["messages_encoded"] > 0
            pool = snap["workers"]["pool"]
            assert pool["worker_processes"] == 2
            assert pool["spawned"] == 2
            assert len({
                row["coordinates"] for row in snap["matching"]
            }) == 4
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_config_gates(self):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(process_workers=2)  # needs execution_model
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(
                execution_model="process",
                execution=ExecutionConfig(mode="threaded"),
            )
        with pytest.raises(TypeError):  # the process hop is BinaryCodec
            InvaliDBConfig(execution_model="process", wire_codec="json")


class TestTranscriptEquivalence:
    """One seeded workload, three substrates, equivalent streams."""

    def test_substrates_agree(self):
        inline = run_scenario(
            broker_execution=InlineExecutionModel(
                ExecutionConfig(mode="inline", seed=11)
            ),
        )
        threaded = run_scenario(execution_model="threaded")
        process = run_scenario(
            execution_model="process", process_workers=2,
        )
        # Final results are identical everywhere and match the DB.
        for run in (inline, threaded, process):
            assert run["flat_result"] == run["db_flat"]
            assert run["top_result"] == run["db_top"]
        assert inline["flat_result"] == threaded["flat_result"]
        assert inline["flat_result"] == process["flat_result"]
        assert inline["top_result"] == threaded["top_result"]
        assert inline["top_result"] == process["top_result"]
        # The unsorted stream is the same multiset of notifications:
        # substrates may interleave tasks differently but every write
        # produces the same (type, key, version, document) everywhere.
        assert sorted(inline["flat_transcript"]) == \
            sorted(threaded["flat_transcript"])
        assert sorted(inline["flat_transcript"]) == \
            sorted(process["flat_transcript"])
        # One cell, hosted two ways: the snapshot rows have the same
        # keys wherever the cell runs.
        assert inline["row_keys"] == threaded["row_keys"]
        assert inline["row_keys"] == process["row_keys"]
        assert all("node" in keys
                   for rows in process["row_keys"].values()
                   for keys in rows)

    def test_per_key_order_is_versioned(self):
        process = run_scenario(
            execution_model="process", process_workers=2,
        )
        by_key = {}
        for entry in process["flat_transcript"]:
            by_key.setdefault(entry[1], []).append(entry[2])
        for versions in by_key.values():
            assert versions == sorted(versions)


class EchoCellSpec:
    """Minimal picklable cell spec for pool-level tests."""

    def build(self):
        return self

    def handle_batch(self, tuples):
        return {"echo": len(tuples)}


class TokenEchoCellSpec(EchoCellSpec):
    """Echoes the batch back: a caller can tell its reply from any other."""

    def handle_batch(self, tuples):
        return {"tokens": [item["token"] for item in tuples]}


class SleepingCellSpec(EchoCellSpec):
    """Holds the worker long enough for the other callers to queue up."""

    def __init__(self, seconds):
        self.seconds = seconds

    def handle_batch(self, tuples):
        time.sleep(self.seconds)
        return super().handle_batch(tuples)


class PickyCellSpec(EchoCellSpec):
    def handle_batch(self, tuples):
        if tuples[0].get("poison"):
            raise ValueError("poisoned batch")
        time.sleep(0.05)
        return super().handle_batch(tuples)


class Callers:
    """Each zero-argument call on its own thread, started at once."""

    def __init__(self, calls):
        self.outcomes = [None] * len(calls)
        self.threads = [
            threading.Thread(target=self._run, args=(i, call), daemon=True)
            for i, call in enumerate(calls)
        ]
        for thread in self.threads:
            thread.start()

    def _run(self, i, call):
        try:
            self.outcomes[i] = ("ok", call())
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            self.outcomes[i] = ("raised", exc)

    def join(self, timeout=10.0):
        """Per-call ``("ok", value)`` / ``("raised", exception)`` in call
        order; fails if a caller is still blocked after *timeout*."""
        deadline = time.monotonic() + timeout
        for thread in self.threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in self.threads), self.outcomes
        return self.outcomes


class StubProcess:
    """Stands in for the forked process of a hand-driven ``_Worker``."""

    pid = 0


class TestPipelinedChannel:
    """One socket, many requests in flight: the reader thread hands each
    reply to the caller whose request id it carries."""

    def test_concurrent_callers_get_their_own_replies(self):
        pool = WorkerPool(worker_processes=1)
        try:
            cells = [pool.lease(f"echo-{i}", TokenEchoCellSpec())
                     for i in range(4)]
            assert len({cell.pid for cell in cells}) == 1

            def caller(t):
                def call():
                    cell = cells[t % 4]
                    for n in range(200):
                        token = f"{t}:{n}"
                        reply = cell.request_batch([{"token": token}])
                        assert reply == {"tokens": [token]}, (token, reply)
                    return 200
                return call

            # More callers than cores and a short switch interval: a
            # reply handed to the wrong latch fails a caller's assert.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                outcomes = Callers([caller(t) for t in range(8)]).join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert outcomes == [("ok", 200)] * 8
            snap = pool.snapshot()
            assert snap["unmatched_replies"] == 0
            (worker,) = snap["workers"]
            assert worker["in_flight"] == 0
            assert worker["requests"] == 4 + 8 * 200
        finally:
            pool.shutdown()

    def test_replies_in_reverse_order_and_an_unknown_id(self):
        near, far = socket.socketpair()
        far.settimeout(5.0)
        pool = WorkerPool(worker_processes=1)
        worker = _Worker(0, StubProcess(), near)
        pool._start_reader(worker)
        try:
            callers = Callers([
                lambda: pool._request(worker, MSG_BATCH, 1, b"first"),
                lambda: pool._request(worker, MSG_BATCH, 1, b"second"),
            ])
            frames = [recv_frame(far), recv_frame(far)]
            assert sorted(f[3] for f in frames) == [b"first", b"second"]
            assert worker.stats()["in_flight"] == 2
            # A reply nobody asked for, then the real ones, last first.
            send_frame(far, MSG_REPLY, 1, 2 ** 31, b"stray")
            for _, cell_id, request_id, payload in reversed(frames):
                send_frame(far, MSG_REPLY, cell_id, request_id,
                           b"re:" + payload)
            assert callers.join(5.0) == [("ok", b"re:first"),
                                         ("ok", b"re:second")]
            assert pool.snapshot()["unmatched_replies"] == 1
            assert worker.stats()["in_flight"] == 0
            assert worker.stats()["in_flight_high_water"] == 2
        finally:
            far.close()
            worker.reader.join(timeout=5.0)
        # The far end hanging up is a death like any other.
        assert not worker.reader.is_alive()
        assert not worker.alive
        with pytest.raises(WorkerDiedError):
            pool._request(worker, MSG_BATCH, 1, b"late")

    def test_requests_overlap_in_one_worker(self):
        pool = WorkerPool(worker_processes=1)
        try:
            cell = pool.lease("sleepy", SleepingCellSpec(0.1))
            outcomes = Callers(
                [lambda: cell.request_batch([{"n": 1}])] * 4
            ).join()
            assert outcomes == [("ok", {"echo": 1})] * 4
            (worker,) = pool.snapshot()["workers"]
            assert worker["in_flight_high_water"] >= 2
            assert worker["in_flight"] == 0
        finally:
            pool.shutdown()

    def test_error_reply_raises_in_its_caller_only(self):
        pool = WorkerPool(worker_processes=1)
        try:
            cell = pool.lease("picky", PickyCellSpec())
            outcomes = Callers([
                lambda: cell.request_batch([{"n": 1}]),
                lambda: cell.request_batch([{"poison": True}]),
                lambda: cell.request_batch([{"n": 1}, {"n": 2}]),
            ]).join()
            assert outcomes[0] == ("ok", {"echo": 1})
            assert outcomes[2] == ("ok", {"echo": 2})
            status, error = outcomes[1]
            assert status == "raised"
            assert isinstance(error, RemoteCellError)
            assert "poisoned batch" in str(error)
            # The worker survived its handler's error.
            assert cell.alive
            assert cell.request_batch([{"n": 1}]) == {"echo": 1}
        finally:
            pool.shutdown()


class TestDeathInFlight:
    """kill -9 with requests on the wire: nobody is left waiting."""

    def test_every_blocked_caller_raises_and_the_slot_respawns(self):
        pool = WorkerPool(worker_processes=1)
        heard = []
        pool.add_death_listener(
            lambda name, pid, reason: heard.append(name))
        try:
            sleepy = pool.lease("sleepy", SleepingCellSpec(30.0))
            pool.lease("bystander", EchoCellSpec())
            victim = sleepy.pid
            callers = Callers(
                [lambda: sleepy.request_batch([{"n": 1}])] * 3)
            assert wait_for(
                lambda: pool.snapshot()["workers"][0]["in_flight"] == 3)
            os.kill(victim, signal.SIGKILL)
            outcomes = callers.join(2.0)
            assert [status for status, _ in outcomes] == ["raised"] * 3
            assert all(isinstance(error, WorkerDiedError)
                       for _, error in outcomes), outcomes
            # Reader EOF and the sentinel monitor both saw the death;
            # each hosted cell is reported once.
            assert wait_for(lambda: len(heard) == 2)
            time.sleep(0.3)  # a second report would land within a poll
            assert sorted(heard) == ["bystander", "sleepy"]
            snap = pool.snapshot()
            assert snap["deaths"] == 1
            assert snap["workers"][0]["in_flight"] == 0
            with pytest.raises(WorkerDiedError):
                sleepy.request_batch([{"n": 1}])

            # Re-leasing respawns the slot with a reader of its own.
            fresh = pool.lease("sleepy", EchoCellSpec())
            assert fresh.pid != victim
            assert fresh.request_batch([{"n": 1}]) == {"echo": 1}
            assert worker_leftovers() == ["invalidb-worker-0",
                                          "worker-0-reader"]
            assert pool.snapshot()["spawned"] == 2
        finally:
            pool.shutdown()
        assert worker_leftovers() == []
        assert pool.snapshot()["deaths"] == 1  # shutdown is not a death


class TestProcessChaos:
    """kill -9 a worker mid-stream; supervised recovery must converge."""

    def test_raising_death_listener_is_counted_and_monitor_survives(self):
        """The death listener is the only route from a dead worker's
        cells to the supervisor: one that raises is counted, later
        listeners still hear of the death, and the monitor thread keeps
        watching the respawned worker."""
        pool = WorkerPool(worker_processes=1)
        heard = []

        def broken(name, pid, reason):
            raise RuntimeError("listener is broken")

        pool.add_death_listener(broken)
        pool.add_death_listener(lambda name, pid, reason: heard.append(name))
        try:
            for round_ in (1, 2):
                cell = pool.lease("echo", EchoCellSpec())
                assert cell.request_batch([{"n": 1}]) == {"echo": 1}
                os.kill(cell.pid, signal.SIGKILL)
                assert wait_for(lambda: len(heard) == round_)
                assert pool.snapshot()["death_listener_errors"] == round_
                assert pool._monitor.is_alive()
            assert heard == ["echo", "echo"]
            assert pool.snapshot()["deaths"] == 2
        finally:
            pool.shutdown()

    def test_hard_worker_kill_recovers(self):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            execution_model="process", process_workers=2,
            retention_seconds=0.75,
            supervisor_backoff_base=0.01,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("kill-app", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
            assert broker.drain(timeout=10.0)
            for i in range(20):
                app.insert("items", {"_id": i, "v": i * 3 % 17})
            settle(cluster, broker)

            victim = cluster._cells[("matching", 0)].pid
            os.kill(victim, signal.SIGKILL)
            # Keep writing through the outage.
            for i in range(20, 35):
                app.insert("items", {"_id": i, "v": i * 5 % 23})

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
            assert pool["spawned"] >= 3  # replacement worker respawned
        finally:
            app.close()
            cluster.stop()
            broker.close()


GRID_SUMS = (
    "cluster.writes_processed", "cluster.matched_operations",
    "cluster.dag_nodes_evaluated", "cluster.dag_node_hits",
    "cluster.dag_queries_served",
)


class TestProcessGridCounters:
    """Grid counters live in the workers: the snapshot totals come from
    the fetched rows, and the registry collector — which must never
    round-trip to a worker — leaves the sums out instead of exporting a
    wrong 0."""

    def run(self, **config_kwargs):
        broker = Broker()
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2, telemetry=True,
            **config_kwargs,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("counter-app", broker, config=config)
        try:
            app.subscribe("items", {"v": {"$gte": 0}})
            app.subscribe("items", {}, sort=[("v", -1)], limit=3)
            settle(cluster, broker)
            for i in range(12):
                app.insert("items", {"_id": i, "v": i})
            settle(cluster, broker)
            return (
                cluster.snapshot(),
                json.loads(to_json(cluster.telemetry)),
                to_prometheus(cluster.telemetry),
            )
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_collector_omits_grid_sums_when_cells_are_remote(self):
        snap, exported, prometheus = self.run(
            execution_model="process", process_workers=2,
        )
        assert snap["matching_totals"]["matched_operations"] > 0
        assert sum(r["writes_processed"] for r in snap["matching"]) == 24
        for name in GRID_SUMS:
            assert name not in exported, name
        assert "cluster_writes_processed" not in prometheus
        assert exported["cluster.notifications_sent"] > 0

    def test_collector_exports_grid_sums_when_cells_are_local(self):
        snap, exported, _ = self.run(execution_model="threaded")
        assert exported["cluster.writes_processed"] == 24 == sum(
            r["writes_processed"] for r in snap["matching"])
        assert exported["cluster.matched_operations"] == \
            snap["matching_totals"]["matched_operations"] > 0
        assert exported["cluster.dag_queries_served"] == \
            snap["matching_totals"]["dag_queries_served"]
