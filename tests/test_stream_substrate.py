"""Storm-like substrate tests: groupings, topology building, runtime."""

import time
from typing import Any, Dict, List

import pytest

from repro.errors import TopologyError
from repro.stream.topology import (
    Bolt,
    CustomGrouping,
    FieldsGrouping,
    TopologyBuilder,
)
from repro.stream.runtime import LocalRuntime


class CollectorBolt(Bolt):
    """Collects received tuples, tagged with the receiving task index."""

    instances: List["CollectorBolt"] = []

    def __init__(self):
        self.received: List[Dict[str, Any]] = []

    def clone(self):
        clone = CollectorBolt()
        CollectorBolt.instances.append(clone)
        return clone

    def process(self, tuple_):
        self.received.append(dict(tuple_))


class ForwardBolt(Bolt):
    def clone(self):
        return ForwardBolt()

    def process(self, tuple_):
        self.emit({**tuple_, "hop": tuple_.get("hop", 0) + 1})


class TestGroupings:
    def test_fields_grouping_is_deterministic(self):
        grouping = FieldsGrouping("key")
        first = grouping.select({"key": "abc"}, 8)
        second = grouping.select({"key": "abc"}, 8)
        assert first == second
        assert 0 <= first[0] < 8

    def test_fields_grouping_spreads_keys(self):
        grouping = FieldsGrouping("key")
        targets = {grouping.select({"key": f"k{i}"}, 8)[0] for i in range(200)}
        assert len(targets) == 8

    def test_custom_grouping(self):
        grouping = CustomGrouping(lambda t, n: [0, n - 1])
        assert grouping.select({}, 5) == [0, 4]

    def test_fields_grouping_requires_fields(self):
        with pytest.raises(TopologyError):
            FieldsGrouping()


class TestBuilderValidation:
    def test_duplicate_component(self):
        builder = TopologyBuilder().add_bolt("b", CollectorBolt())
        with pytest.raises(TopologyError):
            builder.add_bolt("b", CollectorBolt())

    def test_unknown_endpoint(self):
        builder = TopologyBuilder().add_bolt("b", CollectorBolt())
        with pytest.raises(TopologyError):
            builder.connect("b", "missing", FieldsGrouping("key"))

    def test_invalid_parallelism(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().add_bolt("b", CollectorBolt(), parallelism=0)

    def test_empty_topology(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().build()


def wait_for(predicate, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestRuntime:
    def test_broadcast_reaches_every_task(self):
        """Broadcast the way the grid does it: a custom grouping that
        returns every task of the target."""
        topology = (
            TopologyBuilder()
            .add_bolt("entry", ForwardBolt())
            .add_bolt("sink", CollectorBolt(), parallelism=4)
            .connect("entry", "sink", CustomGrouping(lambda t, n: range(n)))
            .build()
        )
        with LocalRuntime(topology) as runtime:
            runtime.inject("entry", {"v": 1})
            assert wait_for(
                lambda: all(
                    len(c.received) == 1
                    for c in runtime.task_components("sink")
                )
            )

    def test_fields_grouping_keeps_key_affinity(self):
        topology = (
            TopologyBuilder()
            .add_bolt("entry", ForwardBolt())
            .add_bolt("sink", CollectorBolt(), parallelism=4)
            .connect("entry", "sink", FieldsGrouping("key"))
            .build()
        )
        with LocalRuntime(topology) as runtime:
            for _ in range(10):
                runtime.inject("entry", {"key": "constant"})
            runtime.drain()
            non_empty = [
                c for c in runtime.task_components("sink") if c.received
            ]
            assert len(non_empty) == 1
            assert len(non_empty[0].received) == 10

    def test_inject_with_explicit_task(self):
        topology = (
            TopologyBuilder()
            .add_bolt("sink", CollectorBolt(), parallelism=3)
            .build()
        )
        with LocalRuntime(topology) as runtime:
            runtime.inject("sink", {"__task__": 2, "v": 1})
            runtime.drain()
            components = runtime.task_components("sink")
            assert len(components[2].received) == 1
            assert not components[0].received and not components[1].received

    def test_failing_tuple_is_recorded_not_fatal(self):
        class ExplodingBolt(Bolt):
            def clone(self):
                return ExplodingBolt()

            def process(self, tuple_):
                if tuple_.get("bad"):
                    raise ValueError("bad tuple")

        topology = (
            TopologyBuilder().add_bolt("b", ExplodingBolt()).build()
        )
        with LocalRuntime(topology) as runtime:
            runtime.inject("b", {"bad": True})
            runtime.inject("b", {"bad": False})
            runtime.drain()
            failures = runtime.failures
            assert [(f.component, f.task_index) for f in failures] == [("b", 0)]
            assert isinstance(failures[0].error, ValueError)
            assert failures[0].tuple == {"bad": True}
            assert runtime.processed_counts()["b"] == 2
            assert runtime.failure_counts()["b"] == 1
            assert runtime.stats()["components"]["b"]["failed"] == 1

    def test_raising_crash_listener_is_counted_and_worker_survives(self):
        """The crash listener is the only route from a poisoned task to
        the supervisor: one that raises is counted, the crash stays
        recorded, and the task's worker keeps serving after a restart."""
        class ExplodingBolt(Bolt):
            def clone(self):
                return ExplodingBolt()

            def process(self, tuple_):
                if tuple_.get("bad"):
                    raise ValueError("bad tuple")

        def broken_supervisor(component, task_index, reason):
            raise RuntimeError("supervisor is broken")

        topology = (
            TopologyBuilder().add_bolt("b", ExplodingBolt()).build()
        )
        with LocalRuntime(topology, error_threshold=2) as runtime:
            runtime.set_crash_listener(broken_supervisor)
            for _ in range(2):
                runtime.inject("b", {"bad": True})
            runtime.drain()
            assert [c[:2] for c in runtime.crashed_tasks()] == [("b", 0)]
            assert runtime.stats()["crash_listener_errors"] == 1
            runtime.restart_task("b", 0)
            runtime.inject("b", {"bad": False})
            runtime.drain()
            assert runtime.crashed_tasks() == []
            assert runtime.processed_counts()["b"] == 3
            assert runtime.stats()["crash_listener_errors"] == 1

    def test_unknown_component_injection(self):
        topology = TopologyBuilder().add_bolt("b", CollectorBolt()).build()
        with LocalRuntime(topology) as runtime:
            with pytest.raises(Exception):
                runtime.inject("nope", {})

    def test_a_batch_reaches_earlier_edges_first(self):
        """A flushed batch is put into the mailboxes in edge declaration
        order — the cluster declares query-ingestion -> sorting before
        query-ingestion -> matching so that no matching cell can react to
        a subscribe the sorting task has not queued yet.  First-appearance
        order would hand ``late[0]`` both tuples before ``early[1]`` got
        its own."""
        puts: List[Any] = []

        class RecordingMailbox:
            def __init__(self, name):
                self.name = name

            def put_many(self, items):
                puts.append((self.name, len(items)))

            def close(self, drain=True):
                pass

        topology = (
            TopologyBuilder()
            .add_bolt("source", ForwardBolt())
            .add_bolt("early", CollectorBolt(), parallelism=2)
            .add_bolt("late", CollectorBolt())
            .connect("source", "early", CustomGrouping(lambda t, n: [t["to"]]))
            .connect("source", "late", CustomGrouping(lambda t, n: [0]))
            .build()
        )
        with LocalRuntime(topology) as runtime:
            for name in ("early", "late"):
                for task in runtime._tasks[name]:
                    task.mailbox.close()
                    task.mailbox = RecordingMailbox(task.name)
            runtime._tasks["source"][0]._handle_batch([{"to": 0}, {"to": 1}])
        assert puts == [("early[0]", 1), ("early[1]", 1), ("late[0]", 2)]

    def test_multi_hop_pipeline(self):
        topology = (
            TopologyBuilder()
            .add_bolt("first", ForwardBolt())
            .add_bolt("second", ForwardBolt())
            .add_bolt("sink", CollectorBolt())
            .connect("first", "second", FieldsGrouping("hop"))
            .connect("second", "sink", FieldsGrouping("hop"))
            .build()
        )
        with LocalRuntime(topology) as runtime:
            runtime.inject("first", {"hop": 0})
            assert wait_for(
                lambda: any(
                    c.received and c.received[0]["hop"] == 2
                    for c in runtime.task_components("sink")
                )
            )
