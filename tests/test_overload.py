"""Overload control and graceful degradation, end to end.

The robustness claims under test:

* **zero-cost when clean** — with ``overload_control=True`` but a
  measured-healthy cluster, every overload counter is exactly zero and
  the notification transcript is byte-identical to a gates-off run;
* **convergence-safe shedding** — with the cluster pinned degraded,
  sorted diff streams are replaced by snapshot refreshes and unsorted
  changes ride the pressure coalescer, yet the final client state is
  byte-identical to an unshedded run (hypothesis property, plus a
  crash + retention-replay interleaving);
* **admission control** — a forced-overloaded cluster rejects writes
  over budget with ``overload-rejected`` + retry-after, the client
  resubmits with jittered backoff and abandons after the cap, and the
  AIMD governor reacts to *measured* pressure only;
* **deadline budgets** — stale writes (delayed past their budget) are
  shed deterministically under the inline model;
* **attribution** — ``drop_oldest`` evictions carry stage/partition
  labels and land in the slow-event log as structured records.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.client import InvaliDBClient
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.overload import (
    DEGRADED,
    HEALTHY,
    OVERLOADED,
    AdmissionGovernor,
    HealthMonitor,
    OverloadController,
)
from repro.core.server import AppServer
from repro.errors import ClusterConfigError
from repro.event.broker import Broker
from repro.event.channels import write_channel
from repro.event.wire import BinaryCodec
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    _eviction_logger,
    _mailbox_labels,
)
from repro.runtime.faults import FaultPlan

from tests.conftest import Collector


# ----------------------------------------------------------------------
# Unit: the AIMD admission governor
# ----------------------------------------------------------------------


class TestAdmissionGovernor:
    def build(self, **kwargs):
        defaults = dict(initial_rate=10.0, min_rate=1.0, max_rate=100.0,
                        increase=5.0, decrease=0.5, burst=4, now=0.0)
        defaults.update(kwargs)
        return AdmissionGovernor(**defaults)

    def test_burst_then_reject(self):
        governor = self.build()
        assert [governor.try_admit(0.0) for _ in range(4)] == [True] * 4
        assert governor.try_admit(0.0) is False
        assert governor.admitted == 4
        assert governor.rejected == 1

    def test_tokens_refill_at_rate(self):
        governor = self.build()
        for _ in range(4):
            governor.try_admit(0.0)
        # 10/s * 0.5s = 5 tokens, capped at burst 4.
        assert [governor.try_admit(0.5) for _ in range(4)] == [True] * 4
        assert governor.try_admit(0.5) is False

    def test_retry_after_covers_the_deficit(self):
        governor = self.build()
        for _ in range(4):
            governor.try_admit(0.0)
        hint = governor.retry_after()
        assert hint > 0
        assert governor.try_admit(hint) is True

    def test_aimd_multiplicative_decrease_additive_increase(self):
        governor = self.build()
        governor.on_pressure()
        assert governor.rate == pytest.approx(5.0)
        governor.on_pressure()
        assert governor.rate == pytest.approx(2.5)
        governor.on_clear()
        assert governor.rate == pytest.approx(7.5)
        assert governor.pressure_events == 2

    def test_rate_stays_inside_bounds(self):
        governor = self.build()
        for _ in range(20):
            governor.on_pressure()
        assert governor.rate == pytest.approx(1.0)  # min_rate floor
        for _ in range(100):
            governor.on_clear()
        assert governor.rate == pytest.approx(100.0)  # max_rate ceiling


# ----------------------------------------------------------------------
# Unit: the hysteresis health monitor
# ----------------------------------------------------------------------


class TestHealthMonitor:
    def build(self):
        return HealthMonitor(depth_threshold=100, dwell_threshold=0.5,
                             degraded_fraction=0.5, recovery_ticks=2)

    def test_escalates_immediately(self):
        monitor = self.build()
        assert monitor.observe("m[0]", depth=100, dwell_p99=0.0,
                               drops_delta=0) == OVERLOADED
        assert monitor.cluster_state == OVERLOADED

    def test_degraded_at_fraction(self):
        monitor = self.build()
        assert monitor.observe("m[0]", depth=50, dwell_p99=0.0,
                               drops_delta=0) == DEGRADED

    def test_drops_mean_overloaded(self):
        monitor = self.build()
        assert monitor.observe("m[0]", depth=0, dwell_p99=0.0,
                               drops_delta=3) == OVERLOADED

    def test_recovery_needs_consecutive_clean_ticks(self):
        monitor = self.build()
        monitor.observe("m[0]", depth=200, dwell_p99=0.0, drops_delta=0)
        # One clean tick is not enough (recovery_ticks=2)…
        assert monitor.observe("m[0]", 0, 0.0, 0) == OVERLOADED
        # …the second steps DOWN one level, not straight to healthy…
        assert monitor.observe("m[0]", 0, 0.0, 0) == DEGRADED
        monitor.observe("m[0]", 0, 0.0, 0)
        assert monitor.observe("m[0]", 0, 0.0, 0) == HEALTHY

    def test_relapse_resets_the_recovery_count(self):
        monitor = self.build()
        monitor.observe("m[0]", depth=200, dwell_p99=0.0, drops_delta=0)
        monitor.observe("m[0]", 0, 0.0, 0)
        monitor.observe("m[0]", depth=200, dwell_p99=0.0, drops_delta=0)
        assert monitor.observe("m[0]", 0, 0.0, 0) == OVERLOADED

    def test_cluster_state_is_the_worst_partition(self):
        monitor = self.build()
        monitor.observe("m[0]", 0, 0.0, 0)
        monitor.observe("m[1]", depth=60, dwell_p99=0.0, drops_delta=0)
        assert monitor.states()["m[0]"] == HEALTHY
        assert monitor.states()["m[1]"] == DEGRADED
        assert monitor.cluster_state == DEGRADED

    def test_measured_state_has_no_recovery_damping(self):
        # The hysteresis state holds OVERLOADED through the recovery
        # window, but the instant view — the AIMD governor's feed —
        # must report HEALTHY the moment the queue is measured empty,
        # or the governor keeps multiplying the rate down long after
        # the backlog drained.
        monitor = self.build()
        monitor.observe("m[0]", depth=200, dwell_p99=0.0, drops_delta=0)
        assert monitor.measured_state == OVERLOADED
        monitor.observe("m[0]", 0, 0.0, 0)
        assert monitor.cluster_state == OVERLOADED  # damped
        assert monitor.measured_state == HEALTHY    # instant

    def test_measured_state_is_the_worst_instant_partition(self):
        monitor = self.build()
        monitor.observe("m[0]", 0, 0.0, 0)
        monitor.observe("m[1]", depth=60, dwell_p99=0.0, drops_delta=0)
        assert monitor.measured_state == DEGRADED


# ----------------------------------------------------------------------
# Unit: the governor feed (instant state + decrease cooldown)
# ----------------------------------------------------------------------


class _StubExecution:
    def __init__(self):
        self.depth = 0

    def now(self, clock):
        return clock()

    def stats(self):
        return {"mailboxes": {"matching[0]": {
            "depth": self.depth, "dropped": 0}}}


class _StubTelemetry:
    enabled = False


class _StubCluster:
    def __init__(self, config):
        self.config = config
        self._execution = _StubExecution()
        self.telemetry = _StubTelemetry()


class TestGovernorFeed:
    def build(self):
        config = InvaliDBConfig(
            overload_control=True, shedding=False,
            health_recovery_ticks=50, health_eval_interval=0.0,
            overload_queue_depth=4,
            admission_initial_rate=100.0, admission_min_rate=10.0,
            admission_max_rate=200.0, admission_increase=5.0,
            admission_decrease=0.5, admission_decrease_cooldown=1.0,
            clock=lambda: 0.0,
        )
        return OverloadController(_StubCluster(config))

    def test_one_decrease_per_cooldown_window(self):
        controller = self.build()
        controller.cluster._execution.depth = 100
        controller.evaluate(now=0.0)
        assert controller.governor.rate == pytest.approx(50.0)
        # Still overloaded 100ms later — inside the cooldown, the rate
        # must not be multiplied down again (one cut per congestion
        # event, not per evaluation tick).
        controller.evaluate(now=0.1)
        assert controller.governor.rate == pytest.approx(50.0)
        controller.evaluate(now=1.1)
        assert controller.governor.rate == pytest.approx(25.0)

    def test_rate_recovers_while_hysteresis_still_overloaded(self):
        controller = self.build()
        controller.cluster._execution.depth = 100
        controller.evaluate(now=0.0)
        assert controller.governor.rate == pytest.approx(50.0)
        # Queue drained: the hysteresis state keeps gating admission
        # (recovery_ticks=50), but the instant view is healthy so the
        # additive climb restarts immediately.
        controller.cluster._execution.depth = 0
        controller.evaluate(now=0.2)
        controller.evaluate(now=0.4)
        assert controller.state == OVERLOADED
        assert controller.monitor.measured_state == HEALTHY
        assert controller.governor.rate == pytest.approx(60.0)

    def test_a_backlog_in_front_of_the_intake_counts(self):
        """The intake runs on the broker's dispatch mailbox, so a write
        backlog queues there, in front of the admission edge."""
        controller = self.build()
        controller.cluster._execution.stats = lambda: {"mailboxes": {
            "event-layer-dispatch": {"depth": 100, "dropped": 0},
            "matching[0]": {"depth": 0, "dropped": 0},
        }}
        assert controller.evaluate(now=0.0) == OVERLOADED
        assert controller.monitor.states() == {
            "event-layer-dispatch": OVERLOADED, "matching[0]": HEALTHY,
        }


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestOverloadConfig:
    def test_force_health_requires_overload_control(self):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(force_health="degraded")

    def test_force_health_vocabulary(self):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(overload_control=True, force_health="on fire")

    @pytest.mark.parametrize("kwargs", [
        dict(admission_initial_rate=0.0),
        dict(admission_min_rate=5000.0),  # min > initial (1000)
        dict(admission_decrease=1.0),
        dict(admission_burst=0),
        dict(deadline_budget_seconds=-1.0),
        dict(refresh_interval_seconds=0.0),
        dict(degraded_fraction=0.0),
        dict(health_recovery_ticks=0),
    ])
    def test_rejects_nonsense_knobs(self, kwargs):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(overload_control=True, **kwargs)


# ----------------------------------------------------------------------
# Shared inline harness
# ----------------------------------------------------------------------


def run_workload(writes, seed=0, plan=None, resubscribe=False,
                 **config_kwargs):
    """Run a scripted write mix on the inline model; return everything
    a convergence assertion could want to compare."""
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config_kwargs.setdefault("retention_seconds", 300.0)
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            **config_kwargs)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("ol-app", broker, config=config)
    try:
        flat_seen = Collector()
        flat = app.subscribe("items", {"v": {"$gte": 0}}, on_change=flat_seen)
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        assert broker.drain()
        for op, key, value in writes:
            if op == "insert":
                app.insert("items", {"_id": key, "v": value})
            elif op == "update":
                app.update("items", key, {"$set": {"v": value}})
            else:
                app.delete("items", key)
        assert broker.drain()
        if model.fault_injector is not None:
            model.fault_injector.disarm()
            assert broker.drain()
        if resubscribe:
            app.client.resubscribe_all()
            assert broker.drain()
        # stop() flushes staged notifications and pending refreshes —
        # final state must already include them after drain, but the
        # transcript comparison below runs pre-stop, so flush manually.
        if cluster.overload is not None:
            cluster.overload.flush_refresh()
            if cluster.overload.shed_stager is not None:
                cluster.overload.shed_stager.flush()
            assert broker.drain()
        snapshot = cluster.snapshot()
        return {
            "flat": json.dumps(sorted(flat.result(),
                                      key=lambda d: d["_id"]),
                               sort_keys=True),
            "top": json.dumps(top.result(), sort_keys=True),
            "db_flat": json.dumps(
                sorted(app.find("items", {"v": {"$gte": 0}}),
                       key=lambda d: d["_id"]), sort_keys=True),
            "db_top": json.dumps(app.find("items", {}, sort=[("v", -1)],
                                          limit=5), sort_keys=True),
            "transcript": [
                (n.match_type.value, n.key, n.version,
                 json.dumps(n.document, sort_keys=True, default=str))
                for n in flat_seen
            ],
            "health": snapshot.get("health"),
            "client": app.client.stats(),
            "deadline_shed": sum(
                row["deadline_shed"]
                for row in snapshot["matching"] + snapshot["sorting"]
            ),
        }
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def legalize(writes):
    """Map an arbitrary generated op stream onto a legal one: inserts
    of live keys become updates, updates/deletes of dead keys become
    inserts.  Pure, so both runs of a comparison see the same mix."""
    live = set()
    legal = []
    for op, key, value in writes:
        if op == "insert" and key in live:
            op = "update"
        elif op != "insert" and key not in live:
            op = "insert"
        if op == "insert":
            live.add(key)
        elif op == "delete":
            live.discard(key)
        legal.append((op, key, value))
    return legal


def scripted_mix(n=30):
    writes = [("insert", i, i) for i in range(n)]
    writes += [("update", i, i + 100) for i in range(0, n, 3)]
    writes += [("delete", i, None) for i in range(0, n, 7)]
    return writes


# ----------------------------------------------------------------------
# Zero-cost when clean: counters and transcripts
# ----------------------------------------------------------------------


class TestCleanRuns:
    def test_all_overload_counters_zero_when_healthy(self):
        run = run_workload(scripted_mix(), overload_control=True)
        health = run["health"]
        assert health["state"] == "healthy"
        for key in ("writes_rejected", "writes_dropped",
                    "notifications_shed", "sorted_changes_shed",
                    "refreshes_sent", "deadline_shed"):
            assert health[key] == 0, key
        assert health["admission"]["rejected"] == 0
        assert health["admission"]["pressure_events"] == 0
        assert run["client"]["writes_rejected"] == 0
        assert run["client"]["writes_resubmitted"] == 0
        assert run["client"]["writes_abandoned"] == 0
        assert run["client"]["refreshes_received"] == 0

    def test_gates_on_transcript_identical_to_gates_off(self):
        """Measured-healthy overload control is invisible: the client
        sees the byte-identical notification stream gates-off sees."""
        on = run_workload(scripted_mix(), overload_control=True)
        off = run_workload(scripted_mix())
        assert on["transcript"] == off["transcript"]
        assert on["flat"] == off["flat"]
        assert on["top"] == off["top"]
        assert off["health"] is None  # gates off: no health section at all

    def test_deadline_budget_alone_sheds_nothing_when_fast(self):
        run = run_workload(scripted_mix(), overload_control=True,
                           deadline_budget_seconds=30.0)
        assert run["deadline_shed"] == 0
        assert run["flat"] == run["db_flat"]


# ----------------------------------------------------------------------
# Convergence-safe shedding (the tentpole property)
# ----------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=5, max_size=60,
)


class TestShedConvergence:
    @given(writes=ops, seed=st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_degraded_shedding_converges_byte_identically(self, writes,
                                                          seed):
        """The acceptance property: snapshot-refresh + coalesced
        shedding must leave the final client state byte-identical to an
        unshedded run of the same workload, across seeds."""
        writes = legalize(writes)
        shed = run_workload(writes, seed=seed, overload_control=True,
                            force_health="degraded")
        plain = run_workload(writes, seed=seed)
        assert shed["flat"] == plain["flat"]
        assert shed["top"] == plain["top"]
        assert shed["flat"] == shed["db_flat"]
        assert shed["top"] == shed["db_top"]

    @pytest.mark.parametrize("seed", range(10))
    def test_shedding_survives_crash_and_replay(self, seed):
        """Shedding composes with supervised recovery: crash a matching
        node mid-stream while degraded, let retention replay repair it,
        and still demand byte-identical convergence."""
        plan = FaultPlan(seed=seed).rule("mailbox", "matching*", "crash",
                                         at=[25])
        shed = run_workload(scripted_mix(), seed=seed, plan=plan,
                            resubscribe=True, overload_control=True,
                            force_health="degraded")
        plain = run_workload(scripted_mix(), seed=seed)
        assert shed["flat"] == plain["flat"]
        assert shed["top"] == plain["top"]
        assert shed["flat"] == shed["db_flat"]
        assert shed["top"] == shed["db_top"]

    def test_degraded_run_actually_sheds(self):
        run = run_workload(scripted_mix(60), overload_control=True,
                           force_health="degraded")
        assert run["health"]["sorted_changes_shed"] > 0
        assert run["health"]["refreshes_sent"] > 0
        assert run["client"]["refreshes_received"] > 0

    def test_error_changes_bypass_shedding(self):
        """Renewal-demanding error changes must never be deferred into
        a snapshot refresh — renewal semantics have to go live.  A
        delete-heavy mix with minimal slack underflows the sorted
        window, forcing maintenance errors mid-shed; the run only
        converges if the renewal round-trip still happens live."""
        writes = [("insert", i, i) for i in range(12)]
        writes += [("delete", i, None) for i in range(10)]
        run = run_workload(writes, overload_control=True,
                           force_health="degraded", default_slack=1)
        assert run["top"] == run["db_top"]
        assert run["flat"] == run["db_flat"]


# ----------------------------------------------------------------------
# Admission control under forced overload
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def overloaded_run(self, **kwargs):
        config = dict(overload_control=True, force_health="overloaded",
                      admission_burst=4, admission_initial_rate=100.0,
                      admission_min_rate=100.0, client_rng_seed=7)
        config.update(kwargs)
        return run_workload(scripted_mix(), **config)

    def test_rejections_flow_back_and_client_resubmits(self):
        run = self.overloaded_run()
        health = run["health"]
        assert health["writes_rejected"] > 0
        assert health["writes_dropped"] == 0  # every reject was routed
        client = run["client"]
        assert client["writes_rejected"] == health["writes_rejected"]
        assert client["writes_resubmitted"] > 0
        assert client["cluster_health"] == "overloaded"
        assert client["backoff_waited"] > 0

    def test_resubmits_are_bounded(self):
        run = self.overloaded_run(admission_max_resubmits=2)
        client = run["client"]
        assert client["writes_abandoned"] > 0
        # Each write is resubmitted at most the configured cap.
        assert client["writes_resubmitted"] <= 2 * 95  # writes in mix

    def test_failed_resubmit_is_abandoned_and_later_ones_still_fire(self):
        """A resubmission runs as a timer callback: when its publish
        fails for good the write is lost, which must be visible as an
        abandoned write — and must not cost the next resubmission."""
        model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=3))
        broker = Broker(execution=model)
        config = InvaliDBConfig(circuit_breaker_threshold=100)
        client = InvaliDBClient("app-1", broker, None, config=config)
        arrived = []
        broker.subscribe(write_channel(),
                         lambda channel, payload: arrived.append(payload))
        rejection = {"kind": "overload-rejected", "retry_after": 0.01,
                     "write": {"key": 1, "version": 2}}

        def event_layer_down(channel, payload):
            raise ConnectionError("event layer down")

        publish, broker.publish = broker.publish, event_layer_down
        try:
            client._on_notification("notifications", rejection)
            assert broker.drain()
            stats = client.stats()
            assert stats["writes_resubmitted"] == 1
            assert stats["writes_abandoned"] == 1
            assert stats["publish_failures"] == config.publish_max_retries + 1
            broker.publish = publish
            client._on_notification("notifications", rejection)
            assert broker.drain()
            stats = client.stats()
            assert stats["writes_resubmitted"] == 2
            assert stats["writes_abandoned"] == 1
            assert arrived == [{"key": 1, "version": 2, "resubmits": 1}]
        finally:
            client.close()
            broker.close()
            model.shutdown()

    def test_resubscription_reconciles_after_rejection_loss(self):
        """Abandoned writes are real, *attributed* loss — and the
        client's existing re-subscription path reconciles the result
        back to the database once the storm has been ridden out.  The
        retention window is effectively zero — as in the threaded chaos
        test, re-registration must not replay stale after-images of
        writes whose later deletes were the ones rejected."""
        run = self.overloaded_run(resubscribe=True,
                                  retention_seconds=1e-6)
        assert run["client"]["writes_abandoned"] > 0
        assert run["flat"] == run["db_flat"]
        assert run["top"] == run["db_top"]

    def test_same_seed_rejection_runs_are_identical(self):
        first = self.overloaded_run()
        second = self.overloaded_run()
        assert first["health"]["writes_rejected"] == \
            second["health"]["writes_rejected"]
        assert first["client"] == second["client"]
        assert first["flat"] == second["flat"]

    def test_aimd_ignores_forced_state(self):
        """The governor reacts to *measured* pressure only: pinning the
        cluster overloaded must not collapse the admission rate."""
        run = self.overloaded_run()
        assert run["health"]["admission"]["pressure_events"] == 0
        assert run["health"]["admission"]["rate"] >= 100.0


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------


class TestDeadlineBudgets:
    def delayed_run(self, seed=3):
        plan = FaultPlan(seed=seed).rule(
            "channel", "invalidb:writes*", "delay", delay=0.5,
            at=list(range(3, 10)),
        )
        return run_workload([("insert", i, i) for i in range(10)],
                            seed=seed, plan=plan, overload_control=True,
                            deadline_budget_seconds=0.1)

    def test_stale_writes_are_shed(self):
        run = self.delayed_run()
        # 7 delayed writes, each shed on both query-partition rows of
        # the 2x2 grid it fans out to.
        assert run["deadline_shed"] == 14
        assert run["health"]["deadline_shed"] == 14  # total == rows
        assert len(json.loads(run["flat"])) == 3

    def test_deadline_shedding_is_deterministic(self):
        first = self.delayed_run()
        second = self.delayed_run()
        assert first["deadline_shed"] == second["deadline_shed"]
        assert first["flat"] == second["flat"]
        assert first["transcript"] == second["transcript"]

    def test_envelope_extra_keys_survive_the_binary_wire(self):
        codec = BinaryCodec()
        envelope = {"kind": "write", "key": 7, "version": 3,
                    "op": "insert", "collection": "items",
                    "document": {"_id": 7, "v": 7},
                    "deadline": 1234.5, "origin": "app-1"}
        restored = codec.decode(codec.encode(envelope))
        assert restored["deadline"] == 1234.5
        assert restored["origin"] == "app-1"


# ----------------------------------------------------------------------
# Satellite: stager flush on shutdown
# ----------------------------------------------------------------------


class TestStagerShutdownFlush:
    def test_stop_flushes_staged_notifications(self):
        """Notifications staged inside an open coalescing window must
        reach the client on cluster stop, not be dropped with it."""
        model = InlineExecutionModel(ExecutionConfig(mode="inline",
                                                     seed=1))
        broker = Broker(execution=model)
        config = InvaliDBConfig(overload_control=True,
                                force_health="degraded",
                                shed_coalescing_window=60.0)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("flush-app", broker, config=config)
        try:
            sub = app.subscribe("items", {"v": {"$gte": 0}})
            for i in range(5):
                app.insert("items", {"_id": i, "v": i})
            # The inline trampoline already ran the whole pipeline, but
            # the flush timer has not fired: everything is staged.
            assert sub.result() == []
            cluster.stop()
            assert sorted(d["_id"] for d in sub.result()) == list(range(5))
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_stop_flushes_the_shed_stager_and_pending_refreshes(self):
        model = InlineExecutionModel(ExecutionConfig(mode="inline",
                                                     seed=1))
        broker = Broker(execution=model)
        config = InvaliDBConfig(overload_control=True,
                                force_health="degraded",
                                shed_coalescing_window=60.0,
                                refresh_interval_seconds=60.0)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("flush-app", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
            for i in range(5):
                app.insert("items", {"_id": i, "v": i})
            assert flat.result() == []  # staged behind the huge window
            cluster.stop()
            assert sorted(d["_id"] for d in flat.result()) == \
                list(range(5))
            assert [d["_id"] for d in top.result()] == [4, 3, 2]
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()


# ----------------------------------------------------------------------
# Satellite: eviction attribution
# ----------------------------------------------------------------------


class TestEvictionAttribution:
    def test_mailbox_labels_parse_stage_and_partition(self):
        assert _mailbox_labels("matching[3]") == ("matching", "3")
        assert _mailbox_labels("sorting[0]") == ("sorting", "0")
        assert _mailbox_labels("broker") == ("broker", "-")

    def test_drop_oldest_evictions_are_attributed(self):
        from repro.obs.telemetry import TelemetryConfig, build_telemetry

        telemetry = build_telemetry(TelemetryConfig(trace_sample_rate=1.0))
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        model.set_telemetry(telemetry)
        held = []
        box = model.mailbox("matching[2]", held.extend, capacity=2,
                            policy="drop_oldest")
        box.put_many([
            ("chan", {"kind": "write", "key": k}) for k in range(4)
        ])
        assert box.stats()["dropped"] == 2
        events = [e for e in telemetry.tracer.slow_events
                  if e.get("kind") == "eviction"]
        assert len(events) == 2
        assert events[0]["mailbox"] == "matching[2]"
        assert events[0]["stage"] == "matching"
        assert events[0]["partition"] == "2"
        assert events[0]["evicted_kind"] == "write"
        assert [e["key"] for e in events] == [0, 1]
        counters = [m for m in telemetry.registry.metrics()
                    if m.name == "mailbox.dropped" and m.value]
        labels = dict(counters[0].labels)
        assert labels["stage"] == "matching"
        assert labels["partition"] == "2"

    def test_eviction_records_render_in_the_slow_log(self):
        from repro.obs.export import format_slow_events
        from repro.obs.telemetry import TelemetryConfig, build_telemetry

        telemetry = build_telemetry(TelemetryConfig())
        logger = _eviction_logger(telemetry, "sorting[0]")
        logger(("chan", {"kind": "match-event", "key": 9}))
        out = format_slow_events(telemetry)
        assert "eviction mailbox=sorting[0]" in out
        assert "stage=sorting partition=0" in out
        assert "payload=match-event key=9" in out

    def test_null_tracer_disables_the_logger(self):
        from repro.obs.telemetry import build_telemetry

        telemetry = build_telemetry(None)
        assert _eviction_logger(telemetry, "matching[0]") is None


# ----------------------------------------------------------------------
# Sorting-node snapshot reads
# ----------------------------------------------------------------------


class TestVisibleWindow:
    def test_visible_window_matches_subscription_result(self,
                                                        cluster_factory,
                                                        broker,
                                                        app_server_factory):
        cluster = cluster_factory()
        app = app_server_factory(config=cluster.config)
        sub = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        broker.drain()
        for i in range(8):
            app.insert("items", {"_id": i, "v": i})
        broker.drain()
        cluster.drain()
        broker.drain()
        query_id = next(iter(app.client._entries))
        windows = [cell.node.visible_window(query_id)
                   for (role, _), cell in cluster._cells.items()
                   if role == "sorting"]
        windows = [w for w in windows if w is not None]
        assert len(windows) == 1
        assert windows[0] == sub.result()

    def test_unknown_query_yields_none(self, cluster_factory):
        cluster = cluster_factory()
        node = cluster._cells[("sorting", 0)].node
        assert node.visible_window("nope") is None


# ----------------------------------------------------------------------
# The stager's pluggable coalesce callback
# ----------------------------------------------------------------------


class TestStagerCallback:
    def test_on_coalesce_diverts_the_counter(self):
        from repro.core.notifications import (
            QueryChange,
            _NotificationStager,
        )
        from repro.types import MatchType

        class StubCluster:
            notifications_coalesced = 0

        hits = []
        stub = StubCluster()
        stager = _NotificationStager(
            window=10.0, call_later=lambda delay, fn: None,
            deliver=lambda entries: None,
            on_coalesce=lambda: hits.append(1),
        )
        first = QueryChange(query_id="q", match_type=MatchType.ADD,
                            key=1, document={"_id": 1}, version=1)
        second = QueryChange(query_id="q", match_type=MatchType.CHANGE,
                             key=1, document={"_id": 1, "v": 2},
                             version=2)
        assert stager.offer(first, None) is True
        assert stager.offer(second, None) is True
        assert len(hits) == 1  # the second offer superseded the first
        assert stub.notifications_coalesced == 0
