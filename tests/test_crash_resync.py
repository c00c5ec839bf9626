"""Crash recovery is a renewal: every restarted task's queries converge.

A restarted matching or sorting task comes back empty.  The supervisor
sends each app server that holds an affected query a resync request;
the client renews those queries (same slack) and delivers each handle
the delta to the fresh result.  The fresh cell takes the bootstrap, the
healthy cells merge it by version, and writes that raced the read
replay from each cell's own retention.

The two probes:

* **a matching crash after the retention window** — no cell's window
  still holds the write that put ``E`` into the result, so only a
  fresh read tells the restarted cell, and ``E``'s exit must emit a
  remove;
* **any sorting crash** — the events the crash lost have no source but
  a fresh read, and the page must not outgrow its limit.

Plus the two shapes a resync adds: a write committed after the resync's
read that reaches a healthy matching cell before the renewal reaches
the fresh sorting task, and a query held by two app servers.  Each
shape runs on the inline model (virtual time, a manual clock shared by
store and cluster), on threads and with the grid in a worker process
(wall clock, a short retention window); crash faults are scripted per
grid tuple.  A worker killed with batches in flight is the last case.
"""

import os
import signal
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.store.database import Database

from tests.conftest import FakeClock, settle

FILTER = {"v": {"$gte": 10}}
SORT = [("v", -1)]
#: Retention window (seconds) of the wall-clock stacks, and a gap past it.
WALL_RETENTION = 0.3
WALL_GAP = 0.6

process_model = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process model needs fork")
MODELS = ["inline", "threaded",
          pytest.param("process", marks=process_model)]


def by_id(documents):
    return sorted(documents, key=lambda document: document["_id"])


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class Stack:
    """A 1x1 grid under *model* with *plan* armed.  Inline: virtual
    time, a manual clock shared by store and cluster, two seconds of
    retention.  Threaded / process: wall clock, ``WALL_RETENTION``."""

    def __init__(self, model, plan, apps=("app-a",),
                 retention=WALL_RETENTION):
        self.inline = model == "inline"
        if self.inline:
            self.clock = FakeClock()
            self.model = InlineExecutionModel(
                ExecutionConfig(mode="inline", seed=1, fault_plan=plan))
            self.broker = Broker(execution=self.model)
            config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                    retention_seconds=2.0, clock=self.clock)
            database = Database(clock=self.clock)
        else:
            # The broker's model applies the channel rules; the grid's
            # (the same one when threaded) the crash rules.
            self.broker = Broker(execution=ExecutionConfig(fault_plan=plan))
            execution = None
            if model == "process":
                execution = ExecutionConfig(mode="process", fault_plan=plan,
                                            worker_processes=1)
            config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                    retention_seconds=retention,
                                    supervisor_backoff_base=0.01,
                                    execution=execution)
            database = Database()
        self.cluster = InvaliDBCluster(self.broker, config).start()
        self.apps = [AppServer(name, self.broker, database=database,
                               config=config) for name in apps]

    def pass_time(self, seconds):
        if self.inline:
            self.clock.advance(seconds)
        else:
            self.settle()
            time.sleep(seconds)

    def settle(self):
        if self.inline:
            assert self.broker.drain()
        else:
            settle(self.cluster, self.broker)

    def converged(self, predicate):
        """Settle, then *predicate* holds (at once inline, within a
        timeout on wall-clock models)."""
        self.settle()
        return predicate() if self.inline else wait_for(predicate)

    def supervisor(self):
        return self.cluster.supervisor.stats()

    def close(self):
        for app in self.apps:
            app.close()
        self.cluster.stop()
        self.broker.close()
        if self.inline:
            self.model.shutdown()


@pytest.mark.parametrize("model,gap", [
    ("inline", 0.5), ("inline", 5.0), ("threaded", WALL_GAP),
    pytest.param("process", WALL_GAP, marks=process_model),
])
def test_a_matching_crash_after_the_window_converges(model, gap):
    """Subscribe, insert E, wait *gap*, crash the matching task at the
    next write; after the restart E leaves the result."""
    plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[2])
    stack = Stack(model, plan)
    (app,) = stack.apps
    try:
        handle = app.subscribe("items", FILTER)            # tuple 0
        app.insert("items", {"_id": "E", "v": 20})         # tuple 1
        stack.pass_time(gap)
        app.insert("items", {"_id": "D", "v": 1})          # tuple 2: crash
        assert stack.converged(lambda: stack.supervisor()["resynced_queries"])
        app.update("items", "E", {"$set": {"v": 5}})
        assert app.find("items", FILTER) == []
        assert stack.converged(lambda: handle.result() == [])
        assert stack.supervisor()["restarts"] == 1
        assert stack.supervisor()["resynced_queries"] == 1
    finally:
        stack.close()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("crash_at", [1, 2, 3, 4])
def test_a_sorting_crash_converges(model, crash_at):
    """``sort v desc, limit 2`` over A, B, C (10/20/30) and D (1), then
    C.v=0 and B.v=-1, with the sorting task crashing at match event
    *crash_at*: the handle ends at the pull query's ``[A, D]``."""
    plan = FaultPlan().rule("mailbox", "sorting*", "crash", at=[crash_at])
    stack = Stack(model, plan)
    (app,) = stack.apps
    try:
        handle = app.subscribe("items", {}, sort=SORT, limit=2)
        for key, value in (("A", 10), ("B", 20), ("C", 30), ("D", 1)):
            app.insert("items", {"_id": key, "v": value})
        app.update("items", "C", {"$set": {"v": 0}})
        app.update("items", "B", {"$set": {"v": -1}})
        expected = app.find("items", {}, sort=SORT, limit=2)
        assert [doc["_id"] for doc in expected] == ["A", "D"]
        assert stack.converged(lambda: handle.result() == expected)
        assert stack.supervisor()["restarts"] == 1
        assert stack.supervisor()["resynced_queries"] == 1
    finally:
        stack.close()


@pytest.mark.parametrize("model", MODELS)
def test_a_write_after_the_resync_read_reaches_the_fresh_sorting_task(
    model,
):
    """The sorted hazard: the renewal's subscribe is held back on the
    query channel, and a write committed after its read reaches the
    healthy matching cell first — its event finds no core on the fresh
    sorting task.  The matching cell replays it into the renewal, as it
    replays any write racing a subscribe that arrives within the
    retention window (the renewal is held 0.5 s, the window is 2 s)."""
    plan = (FaultPlan()
            .rule("mailbox", "sorting*", "crash", at=[3])
            .rule("channel", "invalidb:queries*", "delay", delay=0.5,
                  at=[1]))
    stack = Stack(model, plan, retention=2.0)
    (app,) = stack.apps
    delayed = stack.broker.execution.fault_injector.stats
    try:
        handle = app.subscribe("items", {}, sort=SORT, limit=2)
        for key, value in (("A", 10), ("B", 20), ("C", 30)):
            app.insert("items", {"_id": key, "v": value})  # C: crash
        if stack.inline:
            # Fire the restart; the renewal's subscribe stays held.
            stack.model.advance(0.1)
        # The resync was answered: its read is done, its subscribe held.
        assert wait_for(lambda: delayed()["delayed"] == 1)
        assert stack.supervisor()["resynced_queries"] == 1
        app.update("items", "C", {"$set": {"v": 5}})
        expected = app.find("items", {}, sort=SORT, limit=2)
        assert [doc["_id"] for doc in expected] == ["B", "A"]
        assert stack.converged(lambda: handle.result() == expected)
    finally:
        stack.close()


@pytest.mark.parametrize("model,gap", [
    ("inline", 5.0), ("threaded", WALL_GAP),
    pytest.param("process", WALL_GAP, marks=process_model),
])
def test_a_query_two_app_servers_hold_converges_on_both(model, gap):
    """Both app servers receive the resync and both handles converge,
    the matching crash coming after the retention window."""
    plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[3])
    stack = Stack(model, plan, apps=("app-a", "app-b"))
    app_a, app_b = stack.apps
    try:
        first = app_a.subscribe("items", FILTER)            # tuple 0
        second = app_b.subscribe("items", FILTER)           # tuple 1
        assert first.query.query_id == second.query.query_id
        app_a.insert("items", {"_id": "E", "v": 20})        # tuple 2
        stack.pass_time(gap)
        app_a.insert("items", {"_id": "F", "v": 30})        # tuple 3: crash
        assert stack.converged(
            lambda: stack.supervisor()["resynced_queries"] == 2)
        app_a.update("items", "E", {"$set": {"v": 5}})
        expected = app_a.find("items", FILTER)
        assert [doc["_id"] for doc in expected] == ["F"]
        assert stack.converged(lambda: first.result() == expected
                               and second.result() == expected)
        assert stack.cluster.snapshot()["queries_renewed"] == 2
    finally:
        stack.close()


def test_a_lost_resync_leaves_the_repair_to_a_resubscribe():
    """The resync rides the ordinary notify channel: when it cannot be
    published the handle stays behind (flight-recorded), and only the
    client's own ``resubscribe_all`` — the heartbeat path — repairs it."""
    plan = (FaultPlan()
            .rule("mailbox", "matching*", "crash", at=[2])
            .rule("channel", "invalidb:notify*", "error", at=[1]))
    stack = Stack("inline", plan)
    (app,) = stack.apps
    try:
        handle = app.subscribe("items", FILTER)            # tuple 0
        app.insert("items", {"_id": "E", "v": 20})         # notify 0
        app.insert("items", {"_id": "F", "v": 30})         # crash: lost
        assert stack.broker.drain()                        # resync: error
        assert handle.result() == [{"_id": "E", "v": 20}]
        assert stack.supervisor()["resynced_queries"] == 0
        assert [event["queries"] for event in stack.cluster.flight.events()
                if event["kind"] == "resync-failed"] == [1]
        app.client.resubscribe_all()
        assert stack.broker.drain()
        assert by_id(handle.result()) == by_id(app.find("items", FILTER))
    finally:
        stack.close()


def test_threaded_crash_to_converged_handle_latency():
    """Prints the crash -> converged-handle latency on threads: the
    crashing write is lost, and only the resync's catch-up delta brings
    it to the handle (10 ms restart backoff included)."""
    plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[2])
    stack = Stack("threaded", plan)
    (app,) = stack.apps
    try:
        handle = app.subscribe("items", FILTER)
        app.insert("items", {"_id": "E", "v": 20})
        stack.settle()
        crashed = time.monotonic()
        app.insert("items", {"_id": "F", "v": 30})          # lost
        assert wait_for(lambda: by_id(handle.result())
                        == by_id(app.find("items", FILTER)))
        latency = time.monotonic() - crashed
        print(f"\nthreaded crash -> converged handle: {latency * 1e3:.1f} ms")
        assert stack.supervisor()["resynced_queries"] == 1
    finally:
        stack.close()


@process_model
def test_process_worker_kill_after_the_window_converges():
    """The matching probe with the grid's worker killed with batches in
    flight (the ``TestDeathInFlight`` shape): after the respawn E's exit
    still reaches the handle."""
    broker = Broker()
    config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                            execution_model="process", process_workers=1,
                            retention_seconds=WALL_RETENTION,
                            supervisor_backoff_base=0.01)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("app-a", broker, config=config)
    try:
        handle = app.subscribe("items", FILTER)
        app.insert("items", {"_id": "E", "v": 20})
        settle(cluster, broker)
        time.sleep(WALL_GAP)
        victim = cluster._cells[("matching", 0)].pid
        for key in range(40):
            app.insert("items", {"_id": f"k{key:02}", "v": key})
        os.kill(victim, signal.SIGKILL)
        assert wait_for(
            lambda: cluster.supervisor.stats()["resynced_queries"] >= 1)
        settle(cluster, broker)
        app.update("items", "E", {"$set": {"v": 5}})
        settle(cluster, broker)
        expected = by_id(app.find("items", FILTER))
        assert "E" not in [doc["_id"] for doc in expected]
        assert wait_for(lambda: by_id(handle.result()) == expected)
    finally:
        app.close()
        cluster.stop()
        broker.close()
