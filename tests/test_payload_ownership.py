"""Who owns a document between the store and a handle.

The default broker passes payloads by reference, so one document object
travels from the store's write listener to the matching cells: a
cell's retained after-image *is* the store's stored document.  Copies
are made at the two places user code touches documents.  The store
copies what it takes in and what it returns.  The client copies every
notification document (once per envelope slot) and every initial
document before a handle can reach it.  These tests mutate documents at
each boundary and check that nothing on the other side moves, on the
deterministic inline model with fixed seeds.
"""

import contextlib

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import notification_channel, query_channel
from repro.obs.telemetry import TelemetryConfig
from repro.obs.tracing import MATERIALIZE, span_names
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.runtime.faults import FaultPlan
from repro.store.database import Database
from tests.test_chaos import SteppingClock

FILTER = {"v": {"$gte": 0}}


@contextlib.contextmanager
def inline_stack(seed, apps=("own-a",), plan=None, telemetry=None):
    """A started inline cluster and app servers over one database."""
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            retention_seconds=300.0, clock=SteppingClock(),
                            telemetry=telemetry)
    cluster = InvaliDBCluster(broker, config).start()
    database = Database()
    servers = [AppServer(name, broker, database=database, config=config)
               for name in apps]
    try:
        yield broker, cluster, servers
    finally:
        for server in servers:
            server.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def matching_nodes(cluster):
    return [cluster.filtering_node(qp, wp)
            for qp in range(cluster.scheme.query_partitions)
            for wp in range(cluster.scheme.write_partitions)]


def retained(cluster, key):
    """Every matching cell's retained after-image of *key*."""
    return [after for node in matching_nodes(cluster)
            for after in node.retention if after.key == key]


def partition(cluster, query_id):
    """The query's result as the matching cells hold it, by ``_id``."""
    held = [document for node in matching_nodes(cluster)
            for document in node.result_partition(query_id)]
    return sorted(held, key=lambda document: document["_id"])


def by_id(documents):
    return sorted(documents, key=lambda document: document["_id"])


def deface(document):
    """Mutate *document* at its top level and inside a nested list."""
    document["v"] = 999
    document["tags"].append("defaced")


@pytest.mark.parametrize("seed", [0, 3])
def test_a_cells_retained_document_is_the_stored_document(seed):
    with inline_stack(seed) as (broker, cluster, (app,)):
        handle = app.subscribe("items", FILTER)
        app.insert("items", {"_id": 1, "v": 1, "tags": ["a"]})
        app.update("items", 1, {"$set": {"v": 2}})
        assert broker.drain()
        stored = app.database.collection("items")._documents[1]
        images = retained(cluster, 1)
        assert len(images) == cluster.scheme.query_partitions
        assert all(after.document is stored for after in images)
        held = partition(cluster, handle.query.query_id)
        assert len(held) == 1 and held[0] is stored


@pytest.mark.parametrize("source", ["result", "on_change", "initial"])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_handles_documents_are_its_own(seed, source):
    """Mutating what a handle hands out reaches neither the store, the
    cells, another app server's handle nor the next notification."""
    with inline_stack(seed, apps=("own-a", "own-b")) as (
            broker, cluster, (app_a, app_b)):
        app_a.insert("items", {"_id": 1, "v": 1, "tags": ["a"]})
        app_a.insert("items", {"_id": 2, "v": 2, "tags": ["b"]})
        assert broker.drain()
        seen = []
        mine = app_a.subscribe("items", FILTER, on_change=seen.append)
        theirs = app_b.subscribe("items", FILTER)
        assert broker.drain()
        app_a.update("items", 1, {"$set": {"v": 10}})
        assert broker.drain()
        if source == "result":
            target = next(d for d in mine.result() if d["_id"] == 1)
        elif source == "on_change":
            target = seen[-1].document
        else:
            target = next(d for d in mine.initial.documents if d["_id"] == 2)
        deface(target)
        expected = by_id(app_a.find("items", FILTER))
        assert all(d["v"] != 999 and "defaced" not in d["tags"]
                   for d in expected)
        assert partition(cluster, mine.query.query_id) == expected
        assert by_id(theirs.result()) == expected
        key = target["_id"]
        seen.clear()
        app_a.update("items", key, {"$set": {"w": 1}})
        assert broker.drain()
        assert [n.document for n in seen] == app_a.find("items", {"_id": key})
        assert "defaced" not in seen[0].document["tags"]


@pytest.mark.parametrize("seed", [0, 3])
def test_a_writes_input_and_after_image_are_the_callers(seed):
    """Mutated before the write is even delivered: no cell sees it."""
    with inline_stack(seed) as (broker, cluster, (app,)):
        handle = app.subscribe("items", FILTER)
        assert broker.drain()
        document = {"_id": 1, "v": 1, "tags": ["a"]}
        after = app.insert("items", document)
        deface(document)
        deface(after.document)
        update = app.update("items", 1, {"$set": {"w": 2}})
        deface(update.document)
        assert broker.drain()
        expected = [{"_id": 1, "v": 1, "tags": ["a"], "w": 2}]
        assert app.find("items", FILTER) == expected
        assert partition(cluster, handle.query.query_id) == expected
        assert [after.document for after in retained(cluster, 1)] == \
            expected * cluster.scheme.query_partitions
        assert handle.result() == expected


@pytest.mark.parametrize("sort", [None, [("v", -1)]])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_handles_initial_result_is_not_the_subscribe_requests(seed, sort):
    """The bootstrap goes out in the subscribe request; the handle's
    initial result is a copy of it."""
    with inline_stack(seed, apps=("own-a", "own-b")) as (
            broker, cluster, (app_a, app_b)):
        for key in range(6):
            app_a.insert("items", {"_id": key, "v": key, "tags": []})
        assert broker.drain()
        limit = None if sort is None else 3
        handle = app_a.subscribe("items", FILTER, sort=sort, limit=limit)
        for document in handle.initial.documents:
            deface(document)
        assert broker.drain()
        expected = app_a.find("items", FILTER, sort=sort, limit=limit)
        held = partition(cluster, handle.query.query_id)
        assert all(d["v"] != 999 and d["tags"] == [] for d in held)
        if sort is None:
            assert held == by_id(expected)
        # A second app server joining the same query, and a write that
        # moves the window, both see the cells' undefaced state.
        other = app_b.subscribe("items", FILTER, sort=sort, limit=limit)
        app_a.update("items", 0, {"$set": {"v": 50}})
        assert broker.drain()
        expected = app_a.find("items", FILTER, sort=sort, limit=limit)
        if sort is None:
            expected = by_id(expected)
            assert by_id(other.result()) == expected
        else:
            assert other.result() == expected


@pytest.mark.parametrize("seed", [0, 3])
def test_a_duplicated_envelope_completes_two_traces(seed):
    """Both copies of a duplicated envelope are one object: each
    delivery stamps its own fork of a row's trace."""
    plan = FaultPlan().rule("channel", notification_channel("own-a"),
                            "duplicate")
    with inline_stack(seed, plan=plan,
                      telemetry=TelemetryConfig(trace_sample_rate=1.0)) as (
            broker, cluster, (app,)):
        seen = []
        app.subscribe("items", FILTER, on_change=seen.append)
        assert broker.drain()
        tracer = app.client.telemetry.tracer
        tracer.transcripts.clear()
        app.insert("items", {"_id": 1, "v": 1, "tags": []})
        assert broker.drain()
        assert len(seen) == 2
        first, second = seen[0].trace, seen[1].trace
        assert first is not None and second is not None
        assert first is not second
        writes = [trace for trace in tracer.transcripts
                  if trace["kind"] == "write"]
        assert len(writes) == 2
        assert writes[0] is not writes[1]
        for trace in writes:
            assert span_names(trace).count(MATERIALIZE) == 1
            assert all(end is not None for end in trace["spans"][2::3])


def sorted_windows(cluster, query_id):
    """The query's visible window on every sorting cell that holds it."""
    return [[document for _, document in page.visible()]
            for (role, _), cell in sorted(cluster._cells.items())
            if role == "sorting"
            for page in [cell.node.state_of(query_id)] if page is not None]


@pytest.mark.parametrize("seed", [0, 3])
def test_a_resyncs_catch_up_documents_are_the_handles_own(seed):
    """A resync re-subscribes with a fresh bootstrap, which the sorting
    cell takes as its window, and hands each handle the delta to it:
    the delta's documents are copies, not the window's."""
    plan = FaultPlan().rule("channel", notification_channel("own-a"),
                            "drop", at=[0])
    sort, limit = [("v", 1)], 2
    with inline_stack(seed, plan=plan) as (broker, cluster, (app,)):
        for key in range(4):
            app.insert("items", {"_id": key, "v": key + 1, "tags": []})
        assert broker.drain()
        handle = app.subscribe("items", FILTER, sort=sort, limit=limit)
        assert broker.drain()
        app.update("items", 3, {"$set": {"v": 0}})  # its envelope: dropped
        assert broker.drain()
        assert [d["_id"] for d in handle.result()] == [0, 1]
        app.client.resubscribe_all()
        assert [d["_id"] for d in handle.result()] == [3, 0]
        deface(handle.result()[0])
        assert broker.drain()
        expected = app.find("items", FILTER, sort=sort, limit=limit)
        assert expected[0] == {"_id": 3, "v": 0, "tags": []}
        assert sorted_windows(cluster, handle.query.query_id) == [expected]


@pytest.mark.parametrize("seed", [0, 3])
def test_a_subscribe_requests_filter_is_not_the_callers(seed):
    """The caller may reuse its filter dict while the subscribe request
    is still in flight."""
    plan = FaultPlan().rule("channel", query_channel(), "delay", delay=0.5)
    with inline_stack(seed, plan=plan) as (broker, cluster, (app,)):
        filter_doc = {"v": {"$gte": 10}}
        handle = app.subscribe("items", filter_doc)
        filter_doc["v"]["$gte"] = 1000
        assert broker.drain()
        app.insert("items", {"_id": 1, "v": 50, "tags": []})
        assert broker.drain()
        expected = [{"_id": 1, "v": 50, "tags": []}]
        assert handle.result() == expected
        assert partition(cluster, handle.query.query_id) == expected
