"""One grid cell, hosted two ways (no fork needed).

The stage loop lives in :class:`MatchingCell` / :class:`SortingCell`;
the process model only adds a serialisation seam around it.  This suite
drives the same tuple batches through a local cell and through the seam
— parent-side :class:`LeasedCell` -> ``BinaryCodec`` batch encode ->
worker-side batch decode -> :class:`WorkerCell` -> reply encode ->
parent decode — and requires the two results to be equal, batch by
batch, for both roles chained the way the grid chains them.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import remote
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.partitioning import PartitioningScheme
from repro.core.remote import (
    LeasedCell,
    MatchingCellSpec,
    QueryResolver,
    SortingCellSpec,
    WorkerCell,
    serialize_query,
)
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.wire import BinaryCodec
from repro.obs.telemetry import build_telemetry
from repro.obs.tracing import PUBLISH, begin_span, new_trace, spans_of
from repro.query.engine import MongoQueryEngine, Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import AfterImage, MatchType, WriteKind

from tests.test_chaos import SteppingClock

ENGINE = MongoQueryEngine()
SCHEME = PartitioningScheme(1, 2)
SLACK = 2
#: Primary keys of the cell under test (write partition 0), plus two
#: the intake would route to the other partition's cell.
OWN_KEYS = [k for k in range(64) if SCHEME.write_partition_of(k) == 0][:8]
FOREIGN_KEYS = [k for k in range(64) if SCHEME.write_partition_of(k) == 1][:2]
KEYS = OWN_KEYS + FOREIGN_KEYS

QUERIES = [
    Query({"v": {"$gte": 10}}, collection="items"),
    Query({"t": "x"}, collection="items"),
    Query({}, collection="items", sort=[("v", -1)], limit=3),
    Query({"v": {"$gte": 0}}, collection="items", sort=[("v", 1)],
          limit=2, offset=1),
]


class LoopbackHandle:
    """Stands in for ``RemoteCell``: the exact codec steps of
    ``RemoteCell.request_batch`` and ``_worker_main``, in one process."""

    pid = 0

    def __init__(self, worker_cell):
        self.worker_cell = worker_cell
        self.parent_codec = BinaryCodec()
        self.worker_codec = BinaryCodec()

    def request_batch(self, items):
        wire = self.parent_codec.encode_batch(items)
        batch = self.worker_codec.decode_batch(wire)
        reply = self.worker_codec.encode(self.worker_cell.handle_batch(batch))
        return self.parent_codec.decode(reply)

    def snapshot(self):
        return pickle.loads(pickle.dumps({
            "pid": self.pid, "cell": self.worker_cell.snapshot(), "wire": {},
        }))


def injected(traced):
    """What a local host hands a cell — the same values on both sides
    so the two hostings are comparable.  Span stamps come from a
    counting clock: equal results imply an equal sequence of clock
    reads, i.e. the same tracing work."""
    telemetry = build_telemetry(True if traced else None)
    ticks = itertools.count()
    telemetry.bind_clock(lambda: float(next(ticks)))
    return {
        "telemetry": telemetry,
        "clock": lambda: 10.0,
    }


class Grid:
    """A matching cell feeding a sorting cell, local and behind the
    seam, kept in lock-step."""

    def __init__(self, coalescing, traced):
        mspec = MatchingCellSpec(
            task_index=0, query_partitions=1, write_partitions=2,
            retention_seconds=3600.0, notification_coalescing=coalescing,
        )
        sspec = SortingCellSpec(task_index=0, default_slack=SLACK)
        self.matching = mspec.cell(**injected(traced))
        self.sorting = sspec.cell(**injected(traced))
        self.leased_matching = LeasedCell(LoopbackHandle(
            WorkerCell(mspec.cell(**injected(traced)))))
        self.leased_sorting = LeasedCell(LoopbackHandle(
            WorkerCell(sspec.cell(**injected(traced)))))

    def step(self, batch):
        """One dispatch batch through both stages; asserts the two
        hostings agree and returns the local result."""
        messages, changes, coalesced = self.matching.handle_batch(batch)
        wire_messages, wire_changes, wire_coalesced = \
            self.leased_matching.handle_batch(batch)
        assert messages == wire_messages
        assert changes == wire_changes
        # The worker's reply carries plain documents.
        records = [m["event"] for m in wire_messages]
        records += [change for change, _ in wire_changes]
        assert all(type(r.document) in (dict, type(None)) for r in records)
        assert coalesced == wire_coalesced
        # The sorting grid hears the query requests too (second edge
        # out of the intake), then this batch's match events.
        requests = [t for t in batch if not isinstance(t, AfterImage)]
        sorted_result = self.sorting.handle_batch(requests + messages)
        assert sorted_result == \
            self.leased_sorting.handle_batch(requests + wire_messages)
        assert sorted_result[0] == [] and sorted_result[2] == 0
        return messages, changes, coalesced, sorted_result[1]


def subscribe_tuple(query, db, versions):
    rewritten = query.rewritten_for_subscription(SLACK)
    bootstrap = ENGINE.sort(
        rewritten, [doc for doc in db.values() if rewritten.matches(doc)]
    )
    if rewritten.limit is not None:
        bootstrap = bootstrap[: rewritten.limit]
    return {
        "kind": "subscribe",
        "app_server": "app",
        "query_id": query.query_id,
        "query_hash": query.hash,
        "query": serialize_query(query),
        "bootstrap": [dict(doc) for doc in bootstrap],
        "versions": [[doc["_id"], versions[doc["_id"]]] for doc in bootstrap],
        "slack": SLACK,
    }


def with_trace(tuple_, kind, key):
    """*tuple_* carrying a fresh trace: a request dict gains the key,
    an after-image is replaced by a copy with the field set."""
    trace = new_trace("t-1", kind, key, 0.0)
    begin_span(trace, PUBLISH, 0.0)
    if isinstance(tuple_, AfterImage):
        return tuple_._replace(trace=trace)
    tuple_["trace"] = trace
    return tuple_


#: (op, key, value, stale, traced)
write_ops = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.sampled_from(KEYS), st.integers(-5, 30), st.booleans(),
    st.sampled_from([True, True, True, False]),
)
query_ops = st.tuples(
    st.sampled_from(["subscribe", "cancel"]),
    st.integers(0, len(QUERIES) - 1), st.just(0), st.just(False),
    st.booleans(),
)
batches = st.lists(
    st.lists(st.one_of(write_ops, write_ops, query_ops),
             min_size=2, max_size=10),
    min_size=2, max_size=8,
)


def materialize_batches(plan):
    """Turn the drawn plan into wire tuples against a model database
    (so bootstraps and versions are what a pull query would return)."""
    db, versions = {}, {}
    for ops in plan:
        batch = []
        for op, key, value, stale, traced in ops:
            if op in ("subscribe", "cancel"):
                query = QUERIES[key]
                if op == "subscribe":
                    tuple_ = subscribe_tuple(query, db, versions)
                else:
                    tuple_ = {"kind": "cancel", "query_id": query.query_id,
                              "query_hash": query.hash, "app_server": "app"}
                if traced:
                    with_trace(tuple_, op, query.query_id)
                batch.append(tuple_)
                continue
            version = versions.get(key, 0) + 1
            stale = stale and version > 2
            if stale:
                version -= 2  # an after-image overtaken in flight
            else:
                versions[key] = version
            if op == "delete":
                document, kind = None, WriteKind.DELETE
                if not stale:
                    db.pop(key, None)
            else:
                document = {"_id": key, "v": value,
                            "t": "x" if value % 2 else "y"}
                kind = WriteKind.INSERT if op == "insert" else WriteKind.UPDATE
                if not stale:
                    db[key] = document
            tuple_ = AfterImage(
                key=key, version=version, kind=kind, document=document,
                collection="items", timestamp=float(version),
            )
            if traced:
                tuple_ = with_trace(tuple_, "write", key)
            if key in OWN_KEYS:  # else: the database has it, this cell not
                batch.append(tuple_)
        if batch:
            yield batch


@settings(max_examples=60, deadline=None)
@given(plan=batches, coalescing=st.booleans(), traced=st.booleans())
def test_local_cell_equals_the_seam(plan, coalescing, traced):
    grid = Grid(coalescing, traced)
    saw_coalesced = 0
    for batch in materialize_batches(plan):
        _, _, coalesced, _ = grid.step(batch)
        saw_coalesced += coalesced
    if not coalescing:
        assert saw_coalesced == 0
    # Same counters wherever the cell runs, same row shape.
    for local, leased in ((grid.matching, grid.leased_matching),
                          (grid.sorting, grid.leased_sorting)):
        row = leased.snapshot()
        assert row.pop("pid") == 0 and row.pop("wire") == {}
        if traced:
            assert "telemetry" in row  # added at the seam, not by the cell
            del row["telemetry"]
        assert row == local.snapshot()


def test_sorted_and_unsorted_routing_with_traces():
    """Pinned walk-through: unsorted events become changes, sorted ones
    become messages whose sort span the matching cell opens and the
    sorting cell closes."""
    grid = Grid(coalescing=True, traced=True)
    db, versions = {}, {}
    flat, top = QUERIES[0], QUERIES[2]
    grid.step([subscribe_tuple(flat, db, versions),
               subscribe_tuple(top, db, versions)])
    keys = OWN_KEYS[:2]

    def write(key, value, version):
        tuple_ = AfterImage(
            key=key, version=version, kind=WriteKind.INSERT,
            document={"_id": key, "v": value}, collection="items",
            timestamp=1.0,
        )
        return with_trace(tuple_, "write", key)

    messages, changes, coalesced, sorted_changes = grid.step([
        write(keys[0], 20, 1),
        write(keys[1], 5, 1),
    ])
    assert coalesced == 0
    assert [(c.match_type, c.key) for c, _ in changes] == \
        [(MatchType.ADD, keys[0])]
    assert [m["event"].key for m in messages] == [keys[0], keys[1]]
    assert [(c.key, c.index) for c, _ in sorted_changes] == \
        [(keys[0], 0), (keys[1], 1)]
    for message in messages:
        assert [name for name, _, _ in spans_of(message["trace"])] == \
            ["publish", "filter", "sort"]
    for _, trace in sorted_changes:
        assert all(end is not None for _, _, end in spans_of(trace))


def test_coalescing_elides_within_a_batch_only_when_enabled():
    def run(coalescing):
        grid = Grid(coalescing, traced=False)
        grid.step([subscribe_tuple(QUERIES[0], {}, {})])
        key = OWN_KEYS[0]
        batch = [
            AfterImage(
                key=key, version=version, kind=WriteKind.UPDATE,
                document={"_id": key, "v": 10 + version},
                collection="items", timestamp=0.0,
            )
            for version in (1, 2, 3)
        ]
        _, changes, coalesced, _ = grid.step(batch)
        return [(c.match_type, c.version) for c, _ in changes], coalesced

    assert run(True) == ([(MatchType.ADD, 3)], 2)
    assert run(False) == (
        [(MatchType.ADD, 1), (MatchType.CHANGE, 2), (MatchType.CHANGE, 3)], 0
    )


def insert_tuple(key, value, version):
    return AfterImage(
        key=key, version=version, kind=WriteKind.INSERT,
        document={"_id": key, "v": value}, collection="items",
        timestamp=float(version),
    )


class TestCoalescingPrecondition:
    """``handle_batch`` runs ``coalesce_events`` only when a (query,
    key) group of the batch can hold two events — two producing writes
    share a key, or a subscribe produced events next to another tuple:
    one tuple yields at most one event per (query, key)."""

    @pytest.fixture
    def coalesce_calls(self, monkeypatch):
        calls = []
        real = remote.coalesce_events

        def counting(entries):
            calls.append(len(entries))
            return real(entries)

        monkeypatch.setattr(remote, "coalesce_events", counting)
        return calls

    def cell(self):
        return MatchingCellSpec(
            task_index=0, query_partitions=1, write_partitions=2,
            retention_seconds=3600.0,
        ).cell(**injected(False))

    def test_one_write_batch_keeps_event_order_without_coalescing(
        self, coalesce_calls
    ):
        cell = self.cell()
        queries = [Query({"v": {"$gte": bound}}, collection="items")
                   for bound in (0, 5, 10)]
        cell.handle_batch([subscribe_tuple(q, {}, {}) for q in queries])
        key = OWN_KEYS[0]
        _, changes, coalesced = cell.handle_batch([insert_tuple(key, 12, 1)])
        assert [(c.query_id, c.match_type, c.key) for c, _ in changes] == [
            (q.query_id, MatchType.ADD, key) for q in queries
        ]
        assert coalesced == 0
        assert coalesce_calls == []

    def test_replay_and_live_write_in_one_batch_net_to_one_row(
        self, coalesce_calls
    ):
        cell = self.cell()
        query = Query({"v": {"$gte": 0}}, collection="items")
        key = OWN_KEYS[0]
        # Written before the subscription reached the cell: retained.
        assert cell.handle_batch([insert_tuple(key, 1, 1)]) == ([], [], 0)
        # The bootstrap predates that write, so the subscribe replays it
        # (ADD v1), and the live write after it in the batch is v2.
        _, changes, coalesced = cell.handle_batch([
            subscribe_tuple(query, {}, {}),
            AfterImage(
                key=key, version=2, kind=WriteKind.UPDATE,
                document={"_id": key, "v": 2}, collection="items",
                timestamp=2.0,
            ),
        ])
        assert [(c.match_type, c.key, c.version) for c, _ in changes] == [
            (MatchType.ADD, key, 2)
        ]
        assert coalesced == 1
        assert coalesce_calls == [2]

    def test_a_re_registration_batch_is_not_coalesced(self, coalesce_calls):
        """A re-registration merges an ``add`` the old handles need,
        and a live write after it removes the key again: coalesced, the
        pair would net to nothing, and the new handle — whose bootstrap
        holds the key — would keep it."""
        cell = self.cell()
        query = Query({"v": {"$gte": 0}}, collection="items")
        key = OWN_KEYS[0]
        cell.handle_batch([subscribe_tuple(query, {}, {})])
        _, changes, coalesced = cell.handle_batch([
            subscribe_tuple(query, {key: {"_id": key, "v": 1}}, {key: 1}),
            AfterImage(
                key=key, version=2, kind=WriteKind.UPDATE,
                document={"_id": key, "v": -1}, collection="items",
                timestamp=2.0,
            ),
        ])
        assert [(c.match_type, c.key, c.version) for c, _ in changes] == [
            (MatchType.ADD, key, 1), (MatchType.REMOVE, key, 2)
        ]
        assert coalesced == 0
        assert coalesce_calls == []

    def test_two_writes_to_one_key_still_coalesce(self, coalesce_calls):
        cell = self.cell()
        queries = [Query({"v": {"$gte": bound}}, collection="items")
                   for bound in (0, 5)]
        cell.handle_batch([subscribe_tuple(q, {}, {}) for q in queries])
        key = OWN_KEYS[0]
        _, changes, coalesced = cell.handle_batch([
            insert_tuple(key, 1, 1), insert_tuple(key, 7, 2),
        ])
        assert [(c.query_id, c.match_type, c.version)
                for c, _ in changes] == [
            (queries[0].query_id, MatchType.ADD, 2),
            (queries[1].query_id, MatchType.ADD, 2),
        ]
        assert coalesced == 1
        assert coalesce_calls == [3]

    def test_cluster_coalesced_count_is_pinned(self):
        """A seeded inline burst gives pinned ``notifications_coalesced``
        (20) and ``notifications_sent`` (32) counts.  The intake puts
        each write straight into its cells, so the burst reaches a cell
        in publish order as a few long batches."""
        model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=4))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                                clock=SteppingClock())
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app", broker, config=config)
        try:
            flat = app.subscribe("items", {"v": {"$gte": 0}})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
            assert broker.drain()

            def burst(channel, payload):
                # Published from inside a dispatch, the writes queue up
                # behind it and reach the cells as multi-tuple batches.
                for i in range(12):
                    app.insert("items", {"_id": i, "v": i})
                    app.update("items", i, {"$set": {"v": i + 20}})
                for i in range(0, 12, 3):
                    app.update("items", i, {"$set": {"v": -1}})
                    app.delete("items", i)

            broker.subscribe("test:burst", burst)
            broker.publish("test:burst", {})
            assert broker.drain()
            assert cluster.notifications_coalesced == 20
            assert cluster.notifications_sent == 32
            assert sorted(flat.result(), key=lambda d: d["_id"]) == sorted(
                app.find("items", {"v": {"$gte": 0}}),
                key=lambda d: d["_id"])
            assert top.result() == app.find("items", {}, sort=[("v", -1)],
                                            limit=3)
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()


def test_spec_build_is_the_worker_hosting():
    """``spec.build()`` (what a worker calls) wraps the same cell class
    with nothing injected: own registry, wall clocks, private resolver."""
    worker = MatchingCellSpec(
        task_index=1, query_partitions=1, write_partitions=2, telemetry=True,
    ).build()
    assert isinstance(worker, WorkerCell)
    cell = worker.cell
    assert cell.telemetry.enabled
    assert cell.node.coordinates.write_partition == 1
    assert "telemetry" in worker.snapshot()
    assert "telemetry" not in cell.snapshot()
    sorting = SortingCellSpec(task_index=3).build()
    assert sorting.snapshot()["query_partition"] == 3
    assert not sorting.cell.telemetry.enabled


def test_shared_resolver_parses_once_per_cluster():
    resolver = QueryResolver()
    spec = MatchingCellSpec(task_index=0, query_partitions=1,
                            write_partitions=2)
    cells = [spec.cell(resolve_query=resolver),
             MatchingCellSpec(task_index=1, query_partitions=1,
                              write_partitions=2).cell(resolve_query=resolver)]
    request = subscribe_tuple(QUERIES[0], {}, {})
    parsed = resolver(request)
    for cell in cells:
        cell.handle_batch([request])
    assert resolver(request) is parsed
    # A cancel reaching a cell forgets the entry (idempotent on a shared
    # resolver; what bounds a worker's private one).
    cells[0].handle_batch([{"kind": "cancel",
                            "query_id": QUERIES[0].query_id}])
    assert resolver(request) is not parsed

