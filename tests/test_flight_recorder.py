"""Flight-recorder tests: ring semantics, dump triggers, postmortem.

Covers the :class:`~repro.obs.flight.FlightRecorder` unit behavior
(bounded ring wraparound, dump gating, broken-provider isolation), the
cluster-level dump triggers — supervised restart after a scripted
crash and a ``kill -9``'d worker process — and the ``python -m repro
inspect --postmortem`` analysis view over a committed dump fixture.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.obs.flight import FlightRecorder, load_dump
from repro.obs.inspector import render, render_postmortem
from repro.obs.telemetry import TelemetryConfig
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "flight_postmortem.json"
)

process_model = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "AF_UNIX")),
    reason="process model needs fork + AF_UNIX socketpairs",
)


class SteppingClock:
    """Deterministic time source: every read advances a fixed step."""

    def __init__(self, start: float = 1000.0, step: float = 0.001):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# Unit: the recorder itself
# ---------------------------------------------------------------------------


class TestRecorder:
    def build(self, capacity=4, directory=None):
        ticks = iter(range(10_000))
        return FlightRecorder(
            node="t", capacity=capacity, directory=directory,
            clock=lambda: float(next(ticks)),
        )

    def test_ring_wraparound_keeps_newest(self):
        recorder = self.build(capacity=4)
        for i in range(10):
            recorder.record("tick", i=i)
        events = recorder.events()
        assert [event["i"] for event in events] == [6, 7, 8, 9]
        snap = recorder.snapshot()
        assert snap["events_recorded"] == 10
        assert snap["events_buffered"] == 4

    def test_dump_without_directory_is_a_noop(self):
        recorder = self.build(directory=None)
        recorder.record("tick")
        assert recorder.dump("anything") is None
        assert recorder.snapshot()["dumps_written"] == 0

    def test_broken_provider_does_not_lose_the_dump(self):
        recorder = self.build()

        def broken():
            raise RuntimeError("provider exploded")

        recorder.add_context("ok", lambda: {"fine": 1})
        recorder.add_context("bad", broken)
        document = recorder.build_dump("test")
        assert document["context"]["ok"] == {"fine": 1}
        assert "provider exploded" in document["context"]["bad"]["error"]

    def test_dump_writes_parseable_json(self, tmp_path):
        recorder = self.build(directory=str(tmp_path))
        recorder.record("crash", component="matching", task=1)
        path = recorder.dump("weird reason/with:stuff")
        assert path is not None and os.path.exists(path)
        assert "weird-reason-with-stuff" in os.path.basename(path)
        document = load_dump(path)
        assert document["version"] == 1
        assert document["reason"] == "weird reason/with:stuff"
        assert document["events"][0]["kind"] == "crash"
        # Round-trips through plain json (artifact-upload friendly).
        json.dumps(document)

    def test_dump_failure_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        recorder = self.build(directory=str(blocker / "sub"))
        recorder.record("tick")
        assert recorder.dump("x") is None
        assert recorder.snapshot()["dump_errors"] == 1


# ---------------------------------------------------------------------------
# Cluster integration (deterministic inline model)
# ---------------------------------------------------------------------------


def inline_cluster(fault_plan=None, **overrides):
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=5, fault_plan=fault_plan)
    )
    broker = Broker(execution=model)
    kwargs = dict(
        query_partitions=2, write_partitions=2,
        clock=SteppingClock(),
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    )
    kwargs.update(overrides)
    config = InvaliDBConfig(**kwargs)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("flight-app", broker, config=config)
    return model, broker, cluster, app


def shutdown(model, broker, cluster, app):
    app.close()
    cluster.stop()
    broker.close()
    model.shutdown()


def workload(app, count=40):
    for i in range(count):
        app.insert("items", {"_id": i, "v": i})
    for i in range(0, count, 4):
        app.update("items", i, {"$set": {"v": i + 100}})


class TestClusterIntegration:
    def test_snapshot_and_inspector_carry_slo_and_flight(self):
        model, broker, cluster, app = inline_cluster()
        try:
            app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain()
            workload(app)
            assert broker.drain()
            snap = cluster.snapshot()
            assert snap["flight"]["capacity"] == 256
            slo = snap["slo"]
            assert slo["notifications"] > 0
            assert slo["queries"][0]["notifications"] > 0
            assert "burn_rate" in slo
            text = render(snap)
            assert "SLO: target" in text
            assert "per-query burn rates" in text
            assert "flight recorder:" in text
        finally:
            shutdown(model, broker, cluster, app)

    def test_supervisor_restart_dumps_flight_recorder(self, tmp_path):
        plan = FaultPlan().rule("mailbox", "matching*", "crash", at=[30])
        model, broker, cluster, app = inline_cluster(
            fault_plan=plan,
            retention_seconds=300.0,
            flight_recorder_dir=str(tmp_path),
        )
        try:
            app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain()
            workload(app)
            assert broker.drain()
            assert cluster.supervisor.stats()["restarts"] >= 1
            dumps = sorted(tmp_path.glob("flight-*supervisor-restart.json"))
            assert dumps, "supervised restart must write a flight dump"
            document = load_dump(str(dumps[0]))
            kinds = [event["kind"] for event in document["events"]]
            assert "crash" in kinds
            assert "restart" in kinds
            text = render_postmortem(document)
            assert "supervisor-restart" in text
            assert "crash" in text
        finally:
            shutdown(model, broker, cluster, app)


# ---------------------------------------------------------------------------
# Process model: a kill -9'd worker leaves a parseable dump behind
# ---------------------------------------------------------------------------


@process_model
def test_worker_kill9_writes_flight_dump(tmp_path):
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
        retention_seconds=300.0, supervisor_backoff_base=0.05,
        notification_coalescing=False,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
        flight_recorder_dir=str(tmp_path),
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("flight-kill", broker, config=config)
    try:
        app.subscribe("items", {"v": {"$gte": 0}})
        broker.drain(10.0)
        cluster.drain(10.0)
        for i in range(10):
            app.insert("items", {"_id": i, "v": i})
        broker.drain(10.0)
        cluster.drain(10.0)
        victim = cluster._cells[("matching", 0)].pid
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 8.0
        dumps = []
        while time.monotonic() < deadline:
            dumps = [path for path in tmp_path.iterdir()
                     if "worker-death" in path.name]
            if dumps:
                break
            time.sleep(0.05)
        assert dumps, "no worker-death flight dump was written"
        # Let the supervised restart finish before teardown, so the
        # backoff timer does not fire into a stopped worker pool.
        while time.monotonic() < deadline:
            if cluster.supervisor.stats()["restarts"] >= 1:
                break
            time.sleep(0.05)
        document = load_dump(str(dumps[0]))
        assert document["version"] == 1
        assert document["reason"] == "worker-death"
        kinds = [event["kind"] for event in document["events"]]
        assert "worker-death" in kinds
        assert document["context"]["grid"]["execution_model"] == "process"
        text = render_postmortem(document)
        assert "worker-death" in text
    finally:
        app.close()
        cluster.stop()
        broker.close()


# ---------------------------------------------------------------------------
# Postmortem analysis view over the committed fixture
# ---------------------------------------------------------------------------


class TestPostmortemFixture:
    def test_fixture_renders_every_section(self):
        document = load_dump(FIXTURE)
        text = render_postmortem(document)
        assert "flight recorder postmortem" in text
        assert "reason: supervisor-restart" in text
        assert "event ring" in text
        assert "worker-death" in text
        assert "supervisor" in text
        assert "SLO: target" in text
        assert "recent traces" in text
        assert "replay" in text

    def test_render_tolerates_minimal_dump(self):
        text = render_postmortem({"reason": "x", "events": [],
                                  "context": {}})
        assert "event ring: empty" in text

    def test_postmortem_cli_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["inspect", "--postmortem", FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "flight recorder postmortem" in out
        assert "event ring" in out
