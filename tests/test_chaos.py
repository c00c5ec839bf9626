"""The chaos suite: fault injection + supervised recovery, end to end.

The paper's availability story (Section 5) is exercised under injected
faults: write messages are dropped, duplicated and delayed at the event
layer, and one matching node is crashed mid-stream.  The claims under
test:

* **convergence** — after the chaos window closes, supervised recovery
  (restart + a resync request the client answers with a renewal) plus
  client re-subscription drive every result set byte-identical to a
  no-fault run of the same workload and to the database ground truth;
* **determinism** — under the inline execution model with a fixed
  seed, repeated runs produce identical fault schedules, notification
  transcripts and counters;
* **observability** — ``stats()`` reports the injected faults, node
  restarts, resynced queries and query renewals; a no-fault run reports
  zeros everywhere.

The threaded variant runs the same scenario against real threads and
wall-clock timers; it asserts convergence only (interleavings are
nondeterministic by nature).
"""

import json
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan


class SteppingClock:
    """Deterministic time source: every read advances a fixed step."""

    def __init__(self, start: float = 1000.0, step: float = 0.001):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def chaos_plan(seed: int) -> FaultPlan:
    """The acceptance scenario: 10% drops, 5% duplicates, 5% delays on
    the write channel, and exactly one matching-node crash mid-stream."""
    return (
        FaultPlan(seed=seed)
        .rule("channel", "invalidb:writes*", "drop", probability=0.10)
        .rule("channel", "invalidb:writes*", "duplicate", probability=0.05)
        .rule("channel", "invalidb:writes*", "delay", delay=0.5, probability=0.05)
        .rule("mailbox", "matching*", "crash", at=[40])
    )


def crash_only_plan() -> FaultPlan:
    """One scripted matching-node crash, nothing else.  The 32nd
    matching tuple lands on a cell of the query partition holding both
    subscriptions (the sorted one routes by its sort core's hash), so
    recovery has queries to resync."""
    return FaultPlan().rule("mailbox", "matching*", "crash", at=[31])


def apply_workload(app: AppServer) -> None:
    """Deterministic write mix: inserts, updates, deletes."""
    for i in range(40):
        app.insert("items", {"_id": i, "v": i})
    for i in range(0, 40, 2):
        app.update("items", i, {"$set": {"v": i + 100}})
    for i in range(0, 40, 5):
        app.delete("items", i)


def transcript(subscription) -> list:
    """Timestamp-free transcript of everything a subscription saw."""
    return [
        (
            n.match_type.value, n.key, n.version, n.index, n.old_index,
            json.dumps(n.document, sort_keys=True, default=str),
        )
        for n in subscription.notifications
    ]


def run_inline_scenario(seed: int, plan=None, resubscribe: bool = False):
    """Run the chaos workload on the deterministic inline model and
    return a fully-serializable snapshot of everything observable."""
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=300.0, clock=SteppingClock(),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("chaos-app", broker, config=config)
    try:
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        assert broker.drain()
        apply_workload(app)
        assert broker.drain()
        injector = model.fault_injector
        if injector is not None:
            injector.disarm()
        assert broker.drain()  # flush delayed copies of the chaos window
        if resubscribe:
            app.client.resubscribe_all()
            assert broker.drain()
        stats = cluster.snapshot()
        partitions = {}
        for index in range(cluster.matching_node_count):
            node = cluster._cells[("matching", index)].node
            partitions[index] = {
                handle.query.query_id: sorted(
                    node.result_partition(handle.query.query_id),
                    key=lambda d: d["_id"])
                for handle in (flat, top)
            }
        page = cluster._cells[("sorting", 0)].node.state_of(
            top.query.query_id)
        scheme = cluster.scheme
        # One resync per restart of a matching task, naming the queries
        # of its query partition.
        resyncs_due = sum(
            task.restarts for task in cluster.grid._tasks["matching"]
            for handle in (flat, top)
            if scheme.coordinates(task.index).query_partition
            == scheme.query_partition_of(handle.query.partition_hash)
        )
        return {
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
            "transcripts": (transcript(flat), transcript(top)),
            "node_partitions": partitions,
            "sort_core_keys": sorted(entry.key for entry in page.core.entries),
            "query_ids": (flat.query.query_id, top.query.query_id),
            "resyncs_due": resyncs_due,
            "faults": stats["faults"],
            "supervisor": stats["supervisor"],
            "queries_renewed": stats["queries_renewed"],
            "client": app.client.stats(),
        }
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


class TestCrashOnlyRecovery:
    """Scripted crash, clean event layer: the resync alone must repair."""

    def test_replay_reconstructs_node_state_byte_identically(self):
        faulted = run_inline_scenario(7, plan=crash_only_plan())
        baseline = run_inline_scenario(7, plan=None)
        # The supervisor detected the crash, restarted the node and had
        # both queries of its query partition renewed.
        assert faulted["supervisor"]["restarts"] == 1
        assert faulted["supervisor"]["resynced_queries"] == 2
        flat_id, top_id = faulted["query_ids"]
        core_keys = set(faulted["sort_core_keys"])
        for index, queries in baseline["node_partitions"].items():
            got = faulted["node_partitions"][index]
            # Every cell holds exactly the no-fault run's partition of
            # the unsorted result.
            assert got[flat_id] == queries[flat_id]
            # A renewal bootstraps a page's ranked prefix only, so the
            # restarted cell holds the sort core's members of its
            # partition, each at the no-fault content, and nothing else.
            wanted = [d for d in queries[top_id] if d["_id"] in core_keys]
            assert [d for d in got[top_id] if d["_id"] in core_keys] == wanted
            assert all(d in queries[top_id] for d in got[top_id])
        # Client-visible results converge without any re-subscription.
        assert faulted["flat_result"] == baseline["flat_result"]
        assert faulted["top_result"] == baseline["top_result"]
        assert faulted["flat_result"] == faulted["db_flat"]
        assert faulted["top_result"] == faulted["db_top"]


class TestChaosConvergence:
    """The full acceptance scenario: drop 10% / duplicate 5% / delay 5%
    of write messages and crash one matching node mid-stream."""

    @pytest.mark.parametrize("seed", range(10))
    def test_converges_to_no_fault_results(self, seed):
        faulted = run_inline_scenario(
            seed, plan=chaos_plan(seed), resubscribe=True
        )
        baseline = run_inline_scenario(seed, plan=None)
        assert (faulted["supervisor"]["resynced_queries"]
                == faulted["resyncs_due"])
        # Result sets and sorted views are byte-identical to the
        # no-fault run and to the database ground truth.
        assert faulted["flat_result"] == baseline["flat_result"]
        assert faulted["top_result"] == baseline["top_result"]
        assert faulted["flat_result"] == faulted["db_flat"]
        assert faulted["top_result"] == faulted["db_top"]

    @pytest.mark.parametrize("seed", range(10))
    def test_same_seed_runs_are_identical(self, seed):
        first = run_inline_scenario(
            seed, plan=chaos_plan(seed), resubscribe=True
        )
        second = run_inline_scenario(
            seed, plan=chaos_plan(seed), resubscribe=True
        )
        assert first["transcripts"] == second["transcripts"]
        assert first["faults"] == second["faults"]
        assert first["supervisor"] == second["supervisor"]
        assert first["flat_result"] == second["flat_result"]
        assert first["top_result"] == second["top_result"]

    def test_counters_nonzero_under_chaos(self):
        faulted = run_inline_scenario(3, plan=chaos_plan(3),
                                      resubscribe=True)
        assert faulted["faults"]["injected"] > 0
        assert faulted["faults"]["dropped"] > 0
        assert faulted["faults"]["crashes"] == 1
        assert faulted["supervisor"]["restarts"] >= 1
        # A restarted cell's queries are resynced (this seed's crash
        # hit a cell whose query partition holds none; the convergence
        # seeds cover both shapes).
        assert (faulted["supervisor"]["resynced_queries"]
                == faulted["resyncs_due"])
        assert faulted["queries_renewed"] >= 2  # both re-subscriptions
        assert faulted["client"]["resubscribes"] == 2

    def test_counters_zero_without_faults(self):
        baseline = run_inline_scenario(3, plan=None)
        assert baseline["faults"]["injected"] == 0
        assert baseline["faults"]["dropped"] == 0
        assert baseline["faults"]["crashes"] == 0
        assert baseline["supervisor"]["restarts"] == 0
        assert baseline["supervisor"]["resynced_queries"] == 0
        assert baseline["queries_renewed"] == 0
        assert baseline["client"]["publish_retries"] == 0
        assert baseline["client"]["publish_failures"] == 0


class TestThreadedChaos:
    """Same scenario on real threads: convergence under wall-clock."""

    def test_threaded_chaos_converges(self):
        plan = (
            FaultPlan(seed=17)
            .rule("channel", "invalidb:writes*", "drop", probability=0.10)
            .rule("channel", "invalidb:writes*", "duplicate", probability=0.05)
            .rule("channel", "invalidb:writes*", "delay", delay=0.05,
                  probability=0.05)
            .rule("mailbox", "matching*", "crash", at=[40])
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        broker = Broker(execution=model)
        # Short retention: the crash recovery replays within the
        # window, and the post-chaos re-subscription happens after it
        # expired — so stale after-images of *lost deletes* (tombstones
        # the cluster never saw) cannot race the client's catch-up diff.
        config = InvaliDBConfig(
            query_partitions=2, write_partitions=2,
            retention_seconds=0.75,
            supervisor_backoff_base=0.01,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("threaded-chaos", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
            assert broker.drain(timeout=10.0)
            apply_workload(app)
            assert broker.drain(timeout=10.0)
            # Wait (wall clock) for the supervisor to restart the
            # crashed node; the backoff timer is untracked by drain().
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if cluster.supervisor.stats()["restarts"] >= 1:
                    break
                time.sleep(0.01)
            assert cluster.supervisor.stats()["restarts"] >= 1
            model.fault_injector.disarm()
            assert broker.drain(timeout=10.0)
            # Let the retention window lapse so renewal does not replay
            # stale state, then reconcile against the database.
            time.sleep(config.retention_seconds + 0.3)
            app.client.resubscribe_all()
            assert broker.drain(timeout=10.0)
            expected_flat = sorted(
                app.find("items", {"v": {"$gte": 0}}),
                key=lambda d: d["_id"],
            )
            expected_top = app.find("items", {}, sort=[("v", -1)],
                                    limit=5)
            assert sorted(flat.result(),
                          key=lambda d: d["_id"]) == expected_flat
            assert top.result() == expected_top
            assert cluster.snapshot()["faults"]["injected"] > 0
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
