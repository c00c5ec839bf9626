"""The grid's tasks on execution-model mailboxes and its intake:
routing, flush order, failure isolation, crash and restart, injection,
write order.

Most tests drive :class:`~repro.core.grid.Grid` against a stub cluster
and a recording execution model, so every put a batch causes is
visible in order; the last ones run a real inline cluster.
"""

import gc
import weakref

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.grid import Grid
from repro.core.partitioning import (
    NodeCoordinates,
    PartitioningScheme,
    sorting_task_of,
    stable_hash,
)
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import query_channel
from repro.obs.flight import FlightRecorder
from repro.query.engine import core_id_of
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.types import AfterImage, WriteKind

from tests.test_chaos import SteppingClock


class RecordingMailbox:
    def __init__(self, name, handler, log):
        self.name = name
        self.handler = handler
        self.log = log

    def put(self, item):
        self.log.append(("put", self.name, [item]))

    def put_many(self, items):
        self.log.append(("put", self.name, list(items)))

    def close(self, drain=True):
        self.log.append(("close", self.name))


class RecordingModel:
    fault_injector = None

    def __init__(self, log):
        self.log = log
        self.boxes = {}

    def mailbox(self, name, handler):
        self.log.append(("mailbox", name))
        box = self.boxes[name] = RecordingMailbox(name, handler, self.log)
        return box


class StubCell:
    """One match event per tuple that names a query; fails on demand."""

    def __init__(self):
        self.batches = []
        self.fail = False

    def handle_batch(self, batch):
        if self.fail:
            raise ValueError("bad batch")
        self.batches.append(batch)
        events = [{"kind": "match-event", "query_id": t["query_id"]}
                  for t in batch if "query_id" in t]
        return events, [], 0


class StubCluster:
    """What the grid reads from its cluster, recorded."""

    def __init__(self, **config):
        self.config = InvaliDBConfig(**config)
        self.scheme = PartitioningScheme(
            self.config.query_partitions, self.config.write_partitions
        )
        self.log = []
        self._execution = RecordingModel(self.log)
        self.flight = FlightRecorder()
        self.notifications_coalesced = 0
        self.cells = {}
        self.registered = []

    def _host_cell(self, role, index):
        self.log.append(("host", f"{role}[{index}]"))
        cell = self.cells[(role, index)] = StubCell()
        return cell

    def _query_request(self, tuple_):
        if tuple_.get("bad"):
            raise ValueError("bad tuple")
        self.registered.append(tuple_["query_id"])
        return True

    def _deliver_changes(self, changes):
        pass


def build_grid(**config):
    cluster = StubCluster(**config)
    grid = Grid(cluster)
    grid.start()
    return cluster, grid


def puts(cluster):
    return [(entry[1], entry[2]) for entry in cluster.log
            if entry[0] == "put"]


def query_hash_on(sorting_task, sorting_nodes, query_partition,
                  query_partitions):
    """A query hash of *query_partition* whose core the sorting stage
    routes to *sorting_task*."""
    return next(
        h for h in range(query_partition, 1000, query_partitions)
        if sorting_task_of(core_id_of(h), sorting_nodes) == sorting_task
    )


def subscribe(query_id, query_hash, **extra):
    return {"kind": "subscribe", "query_id": query_id,
            "query_hash": query_hash, "app_server": "app", **extra}


def handler(cluster, name):
    return cluster._execution.boxes[name].handler


class TestRouting:
    def test_sorting_task_of_is_the_query_id_hash(self):
        for n in (1, 3, 8):
            for qid in ["q1", "abc", "", 7, None, "é" * 5]:
                assert sorting_task_of(qid, n) == stable_hash((qid,)) % n

    def test_sorting_task_of_spreads_query_ids(self):
        targets = {sorting_task_of(f"k{i}", 8) for i in range(200)}
        assert targets == set(range(8))

    def test_row_and_column_fan_out(self):
        """Row qp and column wp meet in exactly one cell: (qp, wp)."""
        scheme = PartitioningScheme(3, 4)
        for qp in range(3):
            for wp in range(4):
                met = set(scheme.row_tasks(qp)) & set(scheme.column_tasks(wp))
                assert met == {scheme.task_index(NodeCoordinates(qp, wp))}
        assert sorted(t for qp in range(3) for t in scheme.row_tasks(qp)) \
            == list(range(12))
        assert sorted(t for wp in range(4) for t in scheme.column_tasks(wp)) \
            == list(range(12))


class TestGridTasks:
    def test_construction_order_and_names(self):
        cluster, _ = build_grid(query_partitions=2, write_partitions=2,
                                sorting_nodes=2)
        assert cluster.log == [
            ("host", "matching[0]"), ("mailbox", "matching[0]"),
            ("host", "matching[1]"), ("mailbox", "matching[1]"),
            ("host", "matching[2]"), ("mailbox", "matching[2]"),
            ("host", "matching[3]"), ("mailbox", "matching[3]"),
            ("host", "sorting[0]"), ("mailbox", "sorting[0]"),
            ("host", "sorting[1]"), ("mailbox", "sorting[1]"),
        ]

    def test_a_batch_reaches_the_sorting_edge_first(self):
        """A subscribe must sit in its sorting task's FIFO before any
        matching cell can register it and send events for the fresh
        window: the intake's flush puts sorting tasks first, then
        matching cells, each in index order — not in routing order."""
        cluster, grid = build_grid(query_partitions=2, write_partitions=2,
                                   sorting_nodes=2)
        first = subscribe("a", query_hash_on(1, 2, 1, 2))   # row 1
        second = subscribe("b", query_hash_on(0, 2, 0, 2))  # row 0
        grid.intake_query("query", first)
        grid.intake_query("query", second)
        assert puts(cluster) == []  # routed, not yet put
        grid.flush_intake()
        routed = [(name, [t["query_id"] for t in batch])
                  for name, batch in puts(cluster)]
        a, b = first["query_id"], second["query_id"]
        assert routed == [
            ("sorting[0]", [b]), ("sorting[1]", [a]),
            ("matching[0]", [b]), ("matching[1]", [b]),
            ("matching[2]", [a]), ("matching[3]", [a]),
        ]
        assert all(t["query_partition"] == t["query_hash"] % 2
                   for _, batch in puts(cluster) for t in batch)

    def test_a_write_reaches_every_cell_of_its_column(self):
        cluster, grid = build_grid(query_partitions=3, write_partitions=2)
        write = AfterImage(42, 1, WriteKind.INSERT, {"_id": 42})
        grid.intake_write("write", write)
        grid.flush_intake()
        wp = cluster.scheme.write_partition_of(42)
        assert [name for name, _ in puts(cluster)] == [
            f"matching[{index}]" for index in cluster.scheme.column_tasks(wp)
        ]
        assert all(batch == [write] and batch[0] is write
                   for _, batch in puts(cluster))

    def test_match_events_reach_their_querys_sorting_task(self):
        cluster, _ = build_grid(sorting_nodes=4)
        qids = [f"q{i}" for i in range(20)] * 3
        handler(cluster, "matching[0]")([{"query_id": q} for q in qids])
        for name, batch in puts(cluster):
            for event in batch:
                assert name == \
                    f"sorting[{sorting_task_of(event['query_id'], 4)}]"
        assert sum(len(batch) for _, batch in puts(cluster)) == 60

    def test_failing_tuple_is_isolated_in_the_intake(self):
        cluster, grid = build_grid()
        grid.intake_query("query", subscribe("bad", 0, bad=True))
        grid.intake_query("query", subscribe("good", 0))
        grid.flush_intake()
        assert cluster.registered == ["good"]
        assert [t["query_id"] for _, batch in puts(cluster) for t in batch] \
            == ["good", "good"]  # its sorting task and its one-cell row
        stats = grid.stats()
        assert stats["intake_failed"] == 1
        assert all(component["failed"] == component["crashed"] == 0
                   for component in stats["components"].values())
        [event] = cluster.flight.events()
        assert event["kind"] == "task-failure"
        assert event["component"] == "intake"
        assert event["error"] == "ValueError('bad tuple')"

    def test_failing_batch_is_isolated_per_cell(self):
        cluster, grid = build_grid()
        cell = cluster.cells[("matching", 0)]
        cell.fail = True
        handler(cluster, "matching[0]")([{"query_id": "a"}, {"query_id": "b"}])
        assert puts(cluster) == []  # the whole batch is lost
        cell.fail = False
        handler(cluster, "matching[0]")([{"query_id": "c"}])
        assert [t["query_id"] for _, batch in puts(cluster) for t in batch] \
            == ["c"]
        assert grid.stats()["components"]["matching"]["failed"] == 1

    def test_raising_crash_listener_is_counted_and_the_task_serves_again(self):
        """Poisoned after ``crash_error_threshold`` consecutive failures;
        the crash listener is the only route to the supervisor, one that
        raises is counted, and a restart re-hosts the cell."""
        cluster, grid = build_grid(crash_error_threshold=2)

        def broken_supervisor(role, index, reason):
            raise RuntimeError("supervisor is broken")

        grid.crash_listener = broken_supervisor
        cluster.cells[("matching", 0)].fail = True
        handle = handler(cluster, "matching[0]")
        handle([{"query_id": "a"}])
        handle([{"query_id": "b"}])
        handle([{"query_id": "c"}, {"query_id": "d"}])  # crashed: dropped
        stats = grid.stats()
        matching = stats["components"]["matching"]
        assert (matching["failed"], matching["crashed"]) == (2, 1)
        assert matching["dropped_while_crashed"] == 2
        assert stats["crash_listener_errors"] == 1
        grid.restart("matching", 0)
        assert cluster.log[-1] == ("host", "matching[0]")
        handle([{"query_id": "e"}])
        assert [t["query_id"] for _, batch in puts(cluster) for t in batch] \
            == ["e"]
        matching = grid.stats()["components"]["matching"]
        assert (matching["crashed"], matching["restarts"]) == (0, 1)
        assert grid.stats()["crash_listener_errors"] == 1

    def test_crash_fault_splits_the_batch(self):
        cluster, grid = build_grid()
        crashes = []
        grid.crash_listener = lambda *crash: crashes.append(crash)
        cluster._execution.fault_injector = FaultPlan().rule(
            "mailbox", "matching*", "crash", at=[1]
        ).build()
        handler(cluster, "matching[0]")(
            [{"query_id": q} for q in ("a", "b", "c")]
        )
        assert cluster.cells[("matching", 0)].batches == [[{"query_id": "a"}]]
        assert crashes == [("matching", 0, "injected crash")]
        assert grid.stats()["components"]["matching"] \
            ["dropped_while_crashed"] == 2

    def test_failure_record_is_bounded_and_keeps_no_tuple(self):
        """5k failing batches: the counter is exact, the flight ring stays
        at its bound, and no failed batch is reachable from the grid."""

        class Marker:
            pass

        cluster, grid = build_grid()
        cluster.cells[("matching", 0)].fail = True
        handle = handler(cluster, "matching[0]")
        markers = []
        for _ in range(5000):
            marker = Marker()
            markers.append(weakref.ref(marker))
            handle([{"query_id": "q", "marker": marker}])
        del marker
        gc.collect()
        assert all(ref() is None for ref in markers)
        assert grid.stats()["components"]["matching"]["failed"] == 5000
        events = cluster.flight.events()
        assert len(events) == cluster.flight.capacity
        assert {event["kind"] for event in events} == {"task-failure"}
        assert cluster.flight.snapshot()["events_recorded"] == 5000


@pytest.fixture
def inline_cluster():
    broker = Broker(execution=InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=3)
    ))
    cluster = InvaliDBCluster(broker, InvaliDBConfig(
        query_partitions=2, write_partitions=2,
    )).start()
    yield cluster
    cluster.stop()
    broker.close()


class TestClusterGrid:
    def test_runtime_section_reports_only_task_state(self, inline_cluster):
        inline_cluster.grid.crash("sorting", 0, "test")
        snapshot = inline_cluster.snapshot()
        runtime = snapshot["runtime"]
        assert set(runtime) == {
            "components", "intake_failed", "crash_listener_errors",
        }
        assert list(runtime["components"]) == ["matching", "sorting"]
        assert runtime["intake_failed"] == 0
        assert runtime["components"]["matching"] == {
            "tasks": 4, "failed": 0, "crashed": 0, "restarts": 0,
            "dropped_while_crashed": 0,
        }
        assert runtime["components"]["sorting"]["crashed"] == 1
        box = next(row for row in snapshot["mailboxes"]
                   if row["name"] == "matching[0]")
        assert {"depth", "high_water", "dropped", "batches"} <= set(box)
        assert [row["name"] for row in snapshot["mailboxes"]] == [
            "event-layer-dispatch", "matching[0]", "matching[1]",
            "matching[2]", "matching[3]", "sorting[0]",
        ]

    def test_a_failing_intake_tuple_never_reaches_the_broker(
        self, inline_cluster, monkeypatch
    ):
        real = inline_cluster._query_request

        def request(tuple_):
            if tuple_["query_id"] == "bad":
                raise ValueError("bad tuple")
            return real(tuple_)

        monkeypatch.setattr(inline_cluster, "_query_request", request)
        broker = inline_cluster.broker
        for query_id in ("bad", "good"):
            broker.publish(query_channel("default"), {
                "kind": "ttl", "query_id": query_id, "query_hash": 0,
                "app_server": "app",
            })
        assert broker.drain()
        assert broker.stats["listener_errors"] == 0
        assert inline_cluster.snapshot()["runtime"]["intake_failed"] == 1
        [event] = [event for event in inline_cluster.flight.events()
                   if event["kind"] == "task-failure"]
        assert event["component"] == "intake"

    def test_a_killed_cell_is_restarted_by_the_supervisor(self, inline_cluster):
        before = inline_cluster._cells[("matching", 1)]
        inline_cluster.grid.crash("matching", 1)
        inline_cluster.drain()  # virtual time fires the backoff timer
        assert inline_cluster.supervisor.stats()["restarts"] == 1
        assert inline_cluster._cells[("matching", 1)] is not before
        components = inline_cluster.snapshot()["runtime"]["components"]
        assert components["matching"]["restarts"] == 1
        assert components["matching"]["crashed"] == 0


class TestWriteOrder:
    """The intake routes on the broker's one dispatch path, so a key's
    writes reach each cell of their column in publish order: no write
    is overtaken by a later one to its key and dropped as stale."""

    @pytest.mark.parametrize("seed", range(10))
    def test_every_write_is_processed_by_both_cells_of_its_column(
        self, seed
    ):
        model = InlineExecutionModel(ExecutionConfig(mode="inline",
                                                     seed=seed))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                                clock=SteppingClock())
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app", broker, config=config)
        try:
            app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain()

            def burst(channel, payload):
                # Published from inside a dispatch: 32 writes queue up
                # behind it, each update right behind its key's insert.
                for i in range(12):
                    app.insert("items", {"_id": i, "v": i})
                    app.update("items", i, {"$set": {"v": i + 20}})
                for i in range(0, 12, 3):
                    app.update("items", i, {"$set": {"v": -1}})
                    app.delete("items", i)

            broker.subscribe("test:burst", burst)
            broker.publish("test:burst", {})
            assert broker.drain()
            rows = cluster.snapshot()["matching"]
            assert sum(row["writes_processed"] for row in rows) == 2 * 32
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
