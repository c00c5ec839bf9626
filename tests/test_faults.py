"""Unit tests for the fault-injection layer (repro.runtime.faults).

The injector must be deterministic under a fixed seed and message
order — this is what makes the chaos suite reproducible — and each
fault kind must do exactly what its name says, at the layer it binds
to (broker channels or execution-model mailboxes).
"""

import pytest

from repro.errors import ExecutionConfigError, InjectedFaultError
from repro.event.broker import Broker
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import (
    CHANNEL,
    MAILBOX,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.types import AfterImage, WriteKind


class TestFaultRuleValidation:
    def test_unknown_scope_rejected(self):
        with pytest.raises(ExecutionConfigError):
            FaultRule("nope", "*", "drop")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionConfigError):
            FaultRule("channel", "*", "explode")

    def test_probability_bounds(self):
        with pytest.raises(ExecutionConfigError):
            FaultRule("channel", "*", "drop", probability=1.5)

    def test_delay_kind_needs_positive_delay(self):
        with pytest.raises(ExecutionConfigError):
            FaultRule("mailbox", "*", "delay", delay=0.0)

    def test_config_rejects_non_plan(self):
        with pytest.raises(ExecutionConfigError):
            ExecutionConfig(fault_plan="not a plan")


class TestInjectorDecisions:
    def test_scripted_at_indices_fire_exactly(self):
        plan = FaultPlan().rule("mailbox", "box", "drop", at=[1, 3])
        injector = plan.build()
        drops = [
            injector.decide(MAILBOX, "box", i).drop for i in range(5)
        ]
        assert drops == [False, True, False, True, False]
        assert injector.dropped == 2

    def test_after_and_max_count_window(self):
        plan = FaultPlan().rule(
            "mailbox", "box", "drop", after=2, max_count=2
        )
        injector = plan.build()
        drops = [
            injector.decide(MAILBOX, "box", i).drop for i in range(6)
        ]
        assert drops == [False, False, True, True, False, False]

    def test_pattern_scopes_rule(self):
        plan = FaultPlan().rule("mailbox", "matching*", "drop")
        injector = plan.build()
        assert injector.decide(MAILBOX, "matching[3]", 0).drop
        assert not injector.decide(MAILBOX, "sorting[0]", 0).drop

    def test_duplicate_adds_copies(self):
        plan = FaultPlan().rule("channel", "*", "duplicate", copies=2)
        decision = plan.build().decide(CHANNEL, "c", 0)
        assert decision.copies == 3

    def test_corrupt_replaces_one_field(self):
        plan = FaultPlan(seed=5).rule("channel", "*", "corrupt")
        payload = {"kind": "write", "key": 1, "version": 2}
        decision = plan.build().decide(CHANNEL, "c", payload)
        assert decision.payload != payload
        assert payload == {"kind": "write", "key": 1, "version": 2}
        changed = [
            k for k in payload if decision.payload[k] != payload[k]
        ]
        assert len(changed) == 1

    def test_corrupt_replaces_one_field_of_a_named_tuple(self):
        """A write's after-image keeps its type; one field is destroyed
        on a copy, the same one for the same seed."""
        payload = AfterImage(1, 2, WriteKind.INSERT, {"_id": 1}, "c",
                             trace={"id": "t", "spans": []})
        victims = set()
        for seed in range(12):
            plan = FaultPlan(seed=seed).rule("channel", "*", "corrupt")
            corrupted = plan.build().decide(CHANNEL, "c", payload).payload
            again = plan.build().decide(CHANNEL, "c", payload).payload
            assert type(corrupted) is AfterImage
            assert tuple(again) == tuple(corrupted)
            changed = [name for name in payload._fields
                       if getattr(corrupted, name) != getattr(payload, name)]
            assert len(changed) == 1
            victims.update(changed)
        assert payload == AfterImage(1, 2, WriteKind.INSERT, {"_id": 1}, "c")
        assert payload.trace == {"id": "t", "spans": []}
        assert len(victims) > 1

    def test_error_kind_flags_decision(self):
        plan = FaultPlan().rule("channel", "*", "error")
        assert plan.build().decide(CHANNEL, "c", 0).error

    def test_crash_rules_only_fire_via_crashes_task(self):
        plan = FaultPlan().rule("mailbox", "matching*", "crash")
        injector = plan.build()
        assert not injector.decide(MAILBOX, "matching[0]", 0).drop
        assert injector.crashes_task("matching[0]")
        assert not injector.crashes_task("sorting[0]")

    def test_disarm_stops_everything(self):
        plan = (FaultPlan()
                .rule("mailbox", "*", "drop")
                .rule("mailbox", "m*", "crash"))
        injector = plan.build()
        injector.disarm()
        assert injector.decide(MAILBOX, "box", 0).clean
        assert not injector.crashes_task("matching[0]")
        injector.arm()
        assert injector.decide(MAILBOX, "box", 0).drop

    def test_same_seed_same_schedule(self):
        def run(seed):
            injector = FaultPlan(seed=seed).rule(
                "mailbox", "*", "drop", probability=0.4
            ).build()
            return [
                injector.decide(MAILBOX, "box", i).drop for i in range(50)
            ]

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_stats_reports_rules_and_counters(self):
        injector = FaultPlan().rule("mailbox", "*", "drop").build()
        injector.decide(MAILBOX, "box", 0)
        snapshot = injector.stats()
        assert snapshot["injected"] == 1
        assert snapshot["dropped"] == 1
        assert snapshot["rules"][0]["fired"] == 1


class TestInlineModelFaults:
    def _model(self, plan, seed=1):
        return InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
        )

    def test_mailbox_drop(self):
        plan = FaultPlan().rule("mailbox", "box", "drop", at=[0, 2])
        model = self._model(plan)
        got = []
        box = model.mailbox("box", lambda batch: got.extend(batch))
        for i in range(4):
            box.put(i)
        assert model.drain()
        assert got == [1, 3]

    def test_mailbox_duplicate(self):
        plan = FaultPlan().rule("mailbox", "box", "duplicate", at=[1])
        model = self._model(plan)
        got = []
        box = model.mailbox("box", lambda batch: got.extend(batch))
        for i in range(3):
            box.put(i)
        assert model.drain()
        assert got == [0, 1, 1, 2]

    def test_mailbox_delay_is_virtual_and_released_by_drain(self):
        plan = FaultPlan().rule(
            "mailbox", "box", "delay", delay=3.0, at=[0]
        )
        model = self._model(plan)
        got = []
        box = model.mailbox("box", lambda batch: got.extend(batch))
        box.put("late")
        box.put("prompt")
        assert got == ["prompt"]  # the delayed item waits on the heap
        assert model.drain()
        assert got == ["prompt", "late"]
        assert model.virtual_now >= 3.0

    def test_set_fault_injector_after_construction(self):
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        got = []
        box = model.mailbox("box", lambda batch: got.extend(batch))
        model.set_fault_injector(
            FaultInjector(FaultPlan().rule("mailbox", "*", "drop"))
        )
        box.put(1)
        assert model.drain()
        assert got == []

    def test_stats_exposes_faults(self):
        plan = FaultPlan().rule("mailbox", "*", "drop")
        model = self._model(plan)
        box = model.mailbox("box", lambda batch: None)
        box.put(1)
        assert model.stats()["faults"]["dropped"] == 1


class TestThreadedModelFaults:
    def test_mailbox_drop_and_duplicate(self):
        plan = (FaultPlan()
                .rule("mailbox", "box", "drop", at=[0])
                .rule("mailbox", "box", "duplicate", at=[2]))
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        try:
            got = []
            box = model.mailbox("box", lambda batch: got.extend(batch))
            for i in range(4):
                box.put(i)
            assert model.drain()
            # item 0 dropped; eligible index 2 (= item 3) duplicated.
            assert sorted(got) == [1, 2, 3, 3]
        finally:
            model.shutdown()

    def test_mailbox_delay_lands_after_wait(self):
        plan = FaultPlan().rule(
            "mailbox", "box", "delay", delay=0.05, at=[0]
        )
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        try:
            got = []
            box = model.mailbox("box", lambda batch: got.extend(batch))
            box.put("late")
            assert model.drain(timeout=5.0)
            assert got == ["late"]
        finally:
            model.shutdown()


class TestBrokerChannelFaults:
    def _broker(self, plan, seed=1):
        model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
        )
        return Broker(execution=model), model

    def test_channel_drop(self):
        plan = FaultPlan().rule("channel", "writes.*", "drop", at=[1])
        broker, model = self._broker(plan)
        got = []
        broker.subscribe("writes.t", lambda c, p: got.append(p))
        for i in range(3):
            broker.publish("writes.t", i)
        assert broker.drain()
        assert got == [0, 2]
        broker.close()

    def test_channel_error_raises_at_publish_site(self):
        plan = FaultPlan().rule("channel", "*", "error", at=[0])
        broker, model = self._broker(plan)
        with pytest.raises(InjectedFaultError):
            broker.publish("c", 1)
        broker.publish("c", 2)  # next publish goes through
        broker.close()

    def test_channel_duplicate_delivers_copies(self):
        plan = FaultPlan().rule("channel", "*", "duplicate", at=[0])
        broker, model = self._broker(plan)
        got = []
        broker.subscribe("c", lambda c, p: got.append(p))
        broker.publish("c", "x")
        assert broker.drain()
        assert got == ["x", "x"]
        broker.close()

    def test_channel_corruption_still_wire_safe(self):
        plan = FaultPlan(seed=2).rule("channel", "*", "corrupt", at=[0])
        broker, model = self._broker(plan)
        got = []
        broker.subscribe("c", lambda c, p: got.append(p))
        broker.publish("c", {"a": 1, "b": 2})
        assert broker.drain()
        assert len(got) == 1 and got[0] != {"a": 1, "b": 2}
        broker.close()

    def test_unfaulted_channels_unaffected(self):
        plan = FaultPlan().rule("channel", "writes.*", "drop")
        broker, model = self._broker(plan)
        got = []
        broker.subscribe("queries.t", lambda c, p: got.append(p))
        broker.publish("queries.t", 1)
        assert broker.drain()
        assert got == [1]
        broker.close()
