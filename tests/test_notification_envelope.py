"""The notification envelope: one message per (dispatch batch, app server).

Three layers of evidence that batching notifications changed nothing a
subscriber can observe:

* **pack/unpack properties** — for arbitrary change lists, an envelope
  that went through the JSON codec unpacks to exactly the
  ``ChangeNotification`` sequence the per-change path yields, and
  the client's positional row reader delivers exactly what the
  dict-per-row reference did, traces included;
* **cluster equivalence** — the same seeded inline scenario run with
  batch envelopes and with a test-local one-change-per-message
  reference gives every subscription the same notification list;
* **fault granularity** — ``duplicate``/``drop`` on the notification
  channel now hit whole envelopes, and clients still converge.

Plus the failure-isolation contract that carrying N notifications in
one message needs: a raising listener, user callback or app server
notify channel is counted and costs only itself.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import (
    InvaliDBClient,
    RealTimeSubscription,
    _QueryEntry,
)
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.notifications import (
    ChangeEnvelope,
    QueryChange,
    bind_to_subscription,
    unpack_changes,
)
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import notification_channel
from repro.event.codec import JsonCodec
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import (
    DELIVER,
    MATERIALIZE,
    begin_span,
    end_span,
    trace_of,
)
from repro.query.engine import Query
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.faults import FaultPlan
from repro.store.database import Database
from repro.types import ChangeNotification, MatchType

from tests.test_chaos import SteppingClock
from tests.test_wire_serialization import json_roundtrip


# ----------------------------------------------------------------------
# Pack / unpack properties
# ----------------------------------------------------------------------

APP_SERVERS = ["app-a", "app-b", "app-c"]
QUERY_IDS = [f"q{i}" for i in range(5)]

keys = st.one_of(st.integers(-50, 50), st.text(max_size=6))
documents = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(-9, 9), st.text(max_size=6),
              st.lists(st.integers(-9, 9), max_size=3)),
    max_size=4,
)
positions = st.one_of(st.none(), st.integers(0, 40))


@st.composite
def change_batches(draw):
    """(changes, subscribers): changes draw their documents from a
    small pool *by identity* (one after-image matching several
    queries), covering unsorted changes, sorted diffs with positions,
    document-less removes and maintenance errors with a slack hint."""
    pool = draw(st.lists(documents, min_size=1, max_size=4))
    subscribers = {
        query_id: draw(st.lists(st.sampled_from(APP_SERVERS),
                                unique=True, max_size=3))
        for query_id in QUERY_IDS
    }
    changes = []
    for _ in range(draw(st.integers(0, 12))):
        query_id = draw(st.sampled_from(QUERY_IDS))
        timestamp = draw(st.floats(0, 2e9, allow_nan=False))
        if draw(st.integers(0, 9)) == 0:
            changes.append(QueryChange(
                query_id=query_id,
                match_type=MatchType.ERROR,
                error=draw(st.text(max_size=12)),
                timestamp=timestamp,
            ))
            continue
        match_type = draw(st.sampled_from([
            MatchType.ADD, MatchType.CHANGE, MatchType.CHANGE_INDEX,
            MatchType.REMOVE,
        ]))
        document = pool[draw(st.integers(0, len(pool) - 1))]
        if match_type is MatchType.REMOVE and draw(st.booleans()):
            document = None
        changes.append(QueryChange(
            query_id=query_id,
            match_type=match_type,
            key=draw(keys),
            document=document,
            index=draw(positions),
            old_index=draw(positions),
            timestamp=timestamp,
            version=draw(st.integers(0, 2 ** 31)),
        ))
    return changes, subscribers


def per_change_reference(changes, subscribers):
    """The per-change path: every change goes, on its own and as it is,
    to every subscribed app server, bound on arrival."""
    received = {app_server: [] for app_server in APP_SERVERS}
    for change in changes:
        for app_server in subscribers[change.query_id]:
            received[app_server].append(
                bind_to_subscription(change, f"sub-{app_server}")
            )
    return received


def pack(changes, subscribers):
    envelopes = {}
    for change in changes:
        for app_server in subscribers[change.query_id]:
            envelopes.setdefault(app_server, ChangeEnvelope()).add(change)
    return envelopes


#: The ``ChangeNotification`` field each position of an unpacked row
#: fills (``unpack_changes`` yields flat tuples).
ROW_FIELDS = ("query_id", "match_type", "key", "document", "index",
              "old_index", "error", "timestamp", "version", "trace")


def row_fields(row):
    return dict(zip(ROW_FIELDS, row))


def unpack(payload, subscription_id):
    return [
        ChangeNotification(subscription_id=subscription_id, **row_fields(row))
        for row in unpack_changes(payload)
    ]


class TestEnvelopeProperties:
    @settings(max_examples=150, deadline=None)
    @given(change_batches())
    def test_unpacks_to_the_per_change_sequence(self, batch):
        changes, subscribers = batch
        expected = per_change_reference(changes, subscribers)
        envelopes = pack(changes, subscribers)
        for app_server in APP_SERVERS:
            envelope = envelopes.get(app_server)
            if envelope is None:
                assert expected[app_server] == []
                continue
            received = unpack(json_roundtrip(envelope.payload()),
                              f"sub-{app_server}")
            assert received == expected[app_server]

    @settings(max_examples=100, deadline=None)
    @given(change_batches())
    def test_each_document_object_is_listed_once(self, batch):
        changes, subscribers = batch
        for app_server, envelope in pack(changes, subscribers).items():
            distinct = {
                id(change.document) for change in changes
                if change.document is not None
                and app_server in subscribers[change.query_id]
            }
            assert len(envelope.documents) == len(distinct)
            assert len(envelope.rows) == sum(
                app_server in subscribers[change.query_id]
                for change in changes
            )

    def test_plain_rows_carry_no_extras(self):
        envelope = ChangeEnvelope()
        document = {"_id": 1, "v": 2}
        envelope.add(QueryChange("q", MatchType.ADD, key=1,
                                 document=document, timestamp=5.0,
                                 version=3))
        envelope.add(QueryChange("p", MatchType.CHANGE, key=1,
                                 document=document, timestamp=5.0,
                                 version=3))
        assert envelope.payload() == {
            "kind": "changes",
            "documents": [document],
            "rows": [["q", "add", 1, 0, 5.0, 3],
                     ["p", "change", 1, 0, 5.0, 3]],
        }

    def test_trace_rides_in_the_row_extras(self):
        trace = {"id": "t-1", "kind": "write", "key": 1, "start": 0.0,
                 "spans": ["publish", 0.0, 1.0, "deliver", 1.0, None]}
        envelope = ChangeEnvelope()
        envelope.add(QueryChange("q", MatchType.REMOVE, key=1), trace)
        (row,) = unpack_changes(json_roundtrip(envelope.payload()))
        fields = row_fields(row)
        assert fields["trace"] == trace
        assert fields["document"] is None


# ----------------------------------------------------------------------
# Row delivery: the positional reader against the dict-per-row reference
# ----------------------------------------------------------------------

#: A well-formed trace riding a row (its ``deliver`` span still open).
TRACE = {"id": "t-1", "kind": "write", "key": 1, "start": 0.0,
         "spans": ["publish", 0.0, 1.0, "deliver", 1.0, None]}
#: What a corrupted envelope may carry under the ``trace`` key.
CORRUPT_TRACES = ["garbage", 7, ["deliver", 1.0, None], {"spans": "x"}]


@st.composite
def traced_envelopes(draw):
    """An envelope payload over every ``MatchType`` (``ERROR`` included),
    document-less rows (``slot=None``), every rare field, well-formed
    and corrupt traces, plus how many handles each query has."""
    pool = draw(st.lists(documents, min_size=1, max_size=3))
    envelope = ChangeEnvelope()
    for _ in range(draw(st.integers(0, 10))):
        match_type = draw(st.sampled_from(list(MatchType)))
        document = draw(st.one_of(st.none(), st.sampled_from(pool)))
        trace = draw(st.sampled_from(
            [None, None, "valid"] + CORRUPT_TRACES))
        if trace == "valid":
            trace = dict(TRACE, id=f"t-{len(envelope.rows)}")
        envelope.add(QueryChange(
            query_id=draw(st.sampled_from(QUERY_IDS)),
            match_type=match_type,
            key=draw(keys),
            document=document,
            index=draw(positions),
            old_index=draw(positions),
            error=draw(st.one_of(st.none(), st.text(max_size=8))),
            timestamp=draw(st.floats(0, 2e9, allow_nan=False)),
            version=draw(st.integers(0, 2 ** 31)),
        ), trace)
    handles = {query_id: draw(st.integers(0, 2)) for query_id in QUERY_IDS}
    return envelope.payload(), handles


def reference_unpack(payload):
    """The reader ``unpack_changes`` replaced: a dict per row."""
    documents = payload["documents"]
    for row in payload["rows"]:
        query_id, match_type, key, slot, timestamp, version = row[:6]
        fields = {
            "query_id": query_id,
            "match_type": MatchType(match_type),
            "key": key,
            "document": None if slot is None else documents[slot],
            "timestamp": timestamp,
            "version": version,
        }
        if len(row) > 6:
            fields.update(row[6])
        yield fields


def reference_deliveries(payload, subscription_ids, tel):
    """The client's row loop before rows were read positionally:
    ``ChangeNotification(subscription_id=..., **fields)`` per handle,
    with the same span work on the trace."""
    delivered = {sid: [] for sids in subscription_ids.values()
                 for sid in sids}
    for fields in reference_unpack(payload):
        trace = trace_of(fields) if tel.enabled else None
        fields["trace"] = trace
        if trace is not None:
            end_span(trace, DELIVER, tel.now())
            begin_span(trace, MATERIALIZE, tel.now())
        for sid in subscription_ids.get(fields["query_id"], ()):
            delivered[sid].append(
                ChangeNotification(subscription_id=sid, **fields))
        if trace is not None:
            end_span(trace, MATERIALIZE, tel.now())
    return delivered


class TestRowDelivery:
    @settings(max_examples=150, deadline=None)
    @given(traced_envelopes(), st.booleans())
    def test_client_delivers_the_reference_notifications(self, drawn,
                                                        tracing):
        payload, handle_counts = drawn
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        if tracing:
            model.set_telemetry(Telemetry(clock=lambda: 3.0))
        broker = Broker(execution=model)
        client = InvaliDBClient("app", broker, database=None)
        try:
            subscription_ids = {
                query_id: [f"sub-{query_id}-{n}" for n in range(count)]
                for query_id, count in handle_counts.items()
            }
            # Delivery only: an error row's renewal would need a database.
            client._handle_maintenance_error = lambda query_id: None
            for query_id, sids in subscription_ids.items():
                entry = client._entries[query_id] = _QueryEntry(Query({}), 0)
                entry.handles = tuple(RealTimeSubscription(sid, Query({}))
                                      for sid in sids)
            expected = reference_deliveries(
                json_roundtrip(payload), subscription_ids, client.telemetry)
            client._on_changes(json_roundtrip(payload))
            for entry in client._entries.values():
                for handle in entry.handles:
                    got = handle.notifications
                    want = expected[handle.subscription_id]
                    assert got == want
                    # ``trace`` is compare=False: check it on its own.
                    assert [n.trace for n in got] == [n.trace for n in want]
            if tracing:
                traced = sum(
                    trace_of(row[6]) is not None
                    for row in payload["rows"] if len(row) > 6
                )
                assert client.telemetry.tracer.completed == traced
        finally:
            client.close()
            broker.close()
            model.shutdown()


# ----------------------------------------------------------------------
# Cluster equivalence and fault granularity (deterministic inline model)
# ----------------------------------------------------------------------


def deliver_per_change(cluster):
    """Test-local reference: every change is published on its own (an
    envelope of one row), as the per-change path did."""
    batched = cluster._deliver_changes

    def deliver(entries):
        for entry in entries:
            batched([entry])

    cluster._deliver_changes = deliver


def transcript(subscription):
    return [
        (n.match_type, n.key, n.version, n.document, n.index)
        for n in subscription.notifications
    ]


def run_scenario(seed, plan=None, per_change=False, resubscribe=False):
    """Two app servers on a 1x1 grid (every query shares one dispatch
    batch): overlapping unsorted queries, one query both app servers
    subscribe to, and a sorted top-5 whose diffs carry positions."""
    model = InlineExecutionModel(
        ExecutionConfig(mode="inline", seed=seed, fault_plan=plan)
    )
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=1, write_partitions=1,
        retention_seconds=300.0, clock=SteppingClock(),
    )
    cluster = InvaliDBCluster(broker, config).start()
    if per_change:
        deliver_per_change(cluster)
    writer = AppServer("writer", broker, config=config)
    reader = AppServer("reader", broker, config=config)
    try:
        subscriptions = {
            "low": writer.subscribe("items", {"v": {"$gte": 0}}),
            "mid": writer.subscribe("items", {"v": {"$gte": 20}}),
            "even": writer.subscribe("items", {"v": {"$mod": [2, 0]}}),
            "top": writer.subscribe("items", {}, sort=[("v", -1)],
                                    limit=5),
            "shared": reader.subscribe("items", {"v": {"$gte": 0}}),
        }
        assert broker.drain()
        for i in range(30):
            writer.insert("items", {"_id": i, "v": i})
        for i in range(0, 30, 2):
            writer.update("items", i, {"$set": {"v": i + 50}})
        for i in range(0, 30, 5):
            writer.delete("items", i)
        assert broker.drain()
        if model.fault_injector is not None:
            model.fault_injector.disarm()
            assert broker.drain()
        if resubscribe:
            writer.client.resubscribe_all()
            assert broker.drain()
        return {
            "transcripts": {name: transcript(subscription)
                            for name, subscription in subscriptions.items()},
            "results": {name: subscription.result()
                        for name, subscription in subscriptions.items()},
            "find": {
                "low": writer.find("items", {"v": {"$gte": 0}}),
                "mid": writer.find("items", {"v": {"$gte": 20}}),
                "even": writer.find("items", {"v": {"$mod": [2, 0]}}),
                "top": writer.find("items", {}, sort=[("v", -1)],
                                   limit=5),
            },
            "notifications_sent": cluster.notifications_sent,
            "messages": sum(
                stats.get("enqueued", 0)
                for name, stats in model.stats()["mailboxes"].items()
                if name.endswith("-dispatch")
            ),
            "faults": cluster.snapshot()["faults"],
        }
    finally:
        writer.close()
        reader.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def by_id(documents):
    return sorted(documents, key=lambda document: document["_id"])


class TestClusterEquivalence:
    def test_same_notifications_as_the_per_change_reference(self):
        batched = run_scenario(11)
        reference = run_scenario(11, per_change=True)
        assert batched["transcripts"] == reference["transcripts"]
        assert batched["results"] == reference["results"]
        # Rows per subscriber are what is counted, not envelopes ...
        assert (batched["notifications_sent"]
                == reference["notifications_sent"])
        # ... and the batched run really moved fewer messages.
        assert batched["messages"] < reference["messages"]

    def test_sorted_positions_and_both_subscribers_are_covered(self):
        run = run_scenario(11)
        assert any(index is not None
                   for *_, index in run["transcripts"]["top"])
        assert run["transcripts"]["shared"] == run["transcripts"]["low"]


def run_codec_scenario(seed, codec=None):
    """Two app servers on a 2x2 grid with slack 1, so deleting from the
    writer's sorted windows forces renewals (which re-run the query on
    the writer's store; the reader, with a store of its own, holds
    unsorted queries only).  Returns every handle's transcript, its
    result and the pull query it must equal."""
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=seed))
    broker = Broker(codec=codec, execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2, retention_seconds=300.0,
        clock=SteppingClock(), default_slack=1, renewal_min_interval=0.0,
    )
    cluster = InvaliDBCluster(broker, config).start()
    writer = AppServer("writer", broker, config=config)
    reader = AppServer("reader", broker, config=config)
    queries = {
        "mid": (writer, {"v": {"$gte": 20}}, [], None, 0),
        "top": (writer, {}, [("v", -1)], 4, 0),
        "page": (writer, {"v": {"$lt": 60}}, [("v", 1), ("_id", -1)], 3, 2),
        "shared": (reader, {"v": {"$gte": 20}}, [], None, 0),
        "tagged": (reader, {"tags": "hot"}, [], None, 0),
    }
    try:
        handles = {
            name: app.subscribe("items", filter_doc, sort=sort or None,
                                limit=limit, offset=offset)
            for name, (app, filter_doc, sort, limit, offset)
            in queries.items()
        }
        assert broker.drain()
        for i in range(24):
            writer.insert("items", {"_id": i, "v": (i * 7) % 40,
                                    "tags": ["hot"] if i % 3 else [],
                                    "at": {"x": i, "y": [i, -i]}})
        for i in range(0, 24, 2):
            writer.update("items", i, {"$set": {"v": i + 40}})
        for i in (22, 20, 18, 1, 3):
            writer.delete("items", i)
        assert broker.drain()
        find = {
            name: writer.find("items", filter_doc, sort=sort or None,
                              skip=offset, limit=limit)
            for name, (_, filter_doc, sort, limit, offset)
            in queries.items()
        }
        return {
            "transcripts": {name: transcript(handle)
                            for name, handle in handles.items()},
            "results": {name: handle.result()
                        for name, handle in handles.items()},
            "find": find,
            "renewals": (writer.client.renewals_sent
                         + reader.client.renewals_sent),
        }
    finally:
        writer.close()
        reader.close()
        cluster.stop()
        broker.close()
        model.shutdown()


class TestJsonDebugCodec:
    def test_json_codec_gives_the_default_codec_transcripts(self):
        """``Broker(codec=JsonCodec())`` is the opt-in debugging codec:
        every payload the system publishes must survive it, and it must
        not change a single notification."""
        default = run_codec_scenario(5)
        debug = run_codec_scenario(5, codec=JsonCodec())
        assert default["renewals"] > 0
        assert debug["transcripts"] == default["transcripts"]
        for run in (default, debug):
            for name in ("top", "page"):
                assert run["results"][name] == run["find"][name]
            for name in ("mid", "tagged", "shared"):
                assert by_id(run["results"][name]) == by_id(
                    run["find"][name])
            assert run["transcripts"]["shared"] == run["transcripts"]["mid"]


class TestEnvelopeFaults:
    def test_duplicated_and_dropped_envelopes_still_converge(self):
        plan = (
            FaultPlan(seed=3)
            .rule("channel", "invalidb:notify*", "duplicate",
                  probability=0.2)
            .rule("channel", "invalidb:notify*", "drop", probability=0.2)
        )
        run = run_scenario(3, plan=plan, resubscribe=True)
        assert run["faults"]["duplicated"] > 0
        assert run["faults"]["dropped"] > 0
        for name in ("low", "mid", "even"):
            assert by_id(run["results"][name]) == by_id(run["find"][name])
        assert run["results"]["top"] == run["find"]["top"]


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------


class TestNotifyChannelIsolation:
    """One app server's failing notify channel must not starve the
    others: every envelope of a batch is published on its own."""

    @pytest.mark.parametrize("sort,limit,role", [
        (None, None, "matching"),
        ([("v", -1)], 3, "sorting"),
    ])
    def test_failing_channel_costs_only_its_own_rows(self, sort, limit,
                                                     role):
        plan = FaultPlan(seed=1).rule(
            "channel", notification_channel("app-a"), "error")
        model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=1, fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                clock=SteppingClock())
        cluster = InvaliDBCluster(broker, config).start()
        # One shared store; only app-a forwards writes.
        database = Database()
        app_a = AppServer("app-a", broker, database=database, config=config)
        app_b = AppServer("app-b", broker, database=database, config=config)
        try:
            filter_doc = {"v": {"$gte": 0}}
            on_a = app_a.subscribe("items", filter_doc, sort=sort,
                                   limit=limit)
            on_b = app_b.client.subscribe(filter_doc, collection="items",
                                          sort=sort, limit=limit)
            assert broker.drain()
            app_a.insert("items", {"_id": 1, "v": 5})
            assert broker.drain()
            find = database.collection("items").find(
                filter_doc, sort=sort, limit=limit)
            assert find == [{"_id": 1, "v": 5}]
            assert on_b.result() == find
            assert [n.key for n in on_b.notifications] == [1]
            assert on_a.notifications == []
            # app-a's envelope held one row; app-b's went out.
            assert cluster.notifications_failed == 1
            assert cluster.notifications_sent == 1
            snapshot = cluster.snapshot()
            assert snapshot["notifications_failed"] == 1
            assert snapshot["faults"]["errors"] == 1
            # The first failure is re-raised: the grid task counts it.
            assert snapshot["runtime"]["components"][role]["failed"] == 1
        finally:
            app_a.close()
            app_b.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_failing_channel_costs_no_other_sorted_refresh(self):
        # Shedding swallows the sorted diffs; stop() flushes one window
        # refresh per dirty query.  app-a's channel failing on the first
        # refresh must not cost app-b either refresh, nor abort stop().
        plan = FaultPlan(seed=1).rule(
            "channel", notification_channel("app-a"), "error")
        model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=1, fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                clock=SteppingClock(),
                                overload_control=True,
                                force_health="degraded",
                                refresh_interval_seconds=60.0)
        cluster = InvaliDBCluster(broker, config).start()
        database = Database()
        app_a = AppServer("app-a", broker, database=database, config=config)
        app_b = AppServer("app-b", broker, database=database, config=config)
        sorts = {"top": [("v", -1)], "bottom": [("v", 1)]}
        try:
            on_b = {}
            for name, sort in sorts.items():
                app_a.subscribe("items", {}, sort=sort, limit=2)
                on_b[name] = app_b.client.subscribe(
                    {}, collection="items", sort=sort, limit=2)
            for i in range(4):
                app_a.insert("items", {"_id": i, "v": i})
            assert cluster.overload.sorted_changes_shed > 0
            assert cluster.notifications_failed == 0
            cluster.stop()
            assert cluster.overload.refreshes_sent == 2
            # One failed refresh per query, both to app-a.
            assert cluster.notifications_failed == 2
            for name, sort in sorts.items():
                find = database.collection("items").find(
                    {}, sort=sort, limit=2)
                assert on_b[name].result() == find
        finally:
            app_a.close()
            app_b.close()
            cluster.stop()
            broker.close()
            model.shutdown()


class TestHeartbeatIsolation:
    """A failing notify channel must not stop the threaded heartbeat
    timer: the other app servers keep hearing from the cluster, or their
    clients would time out and tear down healthy subscriptions."""

    @staticmethod
    def wait_for(condition, seconds=5.0):
        deadline = time.monotonic() + seconds
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)
        return condition()

    def test_failing_channel_keeps_other_heartbeats_flowing(self):
        plan = FaultPlan(seed=1).rule(
            "channel", notification_channel("app-a"), "error")
        model = ThreadedExecutionModel(ExecutionConfig(fault_plan=plan))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1,
                                heartbeat_interval=0.02,
                                heartbeat_timeout=0.5)
        cluster = InvaliDBCluster(broker, config).start()
        database = Database()
        app_a = AppServer("app-a", broker, database=database, config=config)
        app_b = AppServer("app-b", broker, database=database, config=config)
        try:
            app_a.subscribe("items", {"v": {"$gte": 0}})
            app_b.subscribe("items", {"v": {"$gte": 0}})
            client_b = app_b.client
            # Several rounds after both app servers registered: app-b's
            # heartbeat keeps advancing although app-a's channel fails
            # every round.
            assert self.wait_for(lambda: client_b.last_heartbeat is not None)
            for _ in range(3):
                seen = client_b.last_heartbeat
                assert self.wait_for(
                    lambda: client_b.last_heartbeat != seen), (
                    "app-b stopped receiving heartbeats")
            assert client_b.check_heartbeat()
            assert not cluster._heartbeat_timer.cancelled
            assert cluster.heartbeats_failed >= 3
            assert cluster.snapshot()["heartbeats_failed"] >= 3
        finally:
            app_a.close()
            app_b.close()
            cluster.stop()
            broker.close()
            model.shutdown()
        # Stop still ends the heartbeat timer.
        assert cluster._heartbeat_timer.cancelled


class TestListenerIsolation:
    def test_broker_counts_raising_listeners(self):
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        telemetry = Telemetry()
        model.set_telemetry(telemetry)
        broker = Broker(name="b", execution=model)
        received = []

        def broken(channel, payload):
            raise RuntimeError("bad subscriber")

        broker.subscribe("ch", broken)
        broker.subscribe("ch", lambda channel, payload:
                         received.append(payload))
        for value in range(3):
            broker.publish("ch", value)
        assert broker.drain()
        assert received == [0, 1, 2]
        assert broker.stats["listener_errors"] == 3
        assert broker.stats["delivered"] == 3
        counter = telemetry.counter("broker.listener_errors", broker="b")
        assert counter.value == 3
        broker.close()
        model.shutdown()


class TestCallbackIsolation:
    def build(self):
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        broker = Broker(execution=model)
        config = InvaliDBConfig(query_partitions=1, write_partitions=1)
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("app", broker, config=config)
        return model, broker, cluster, app

    def teardown(self, model, broker, cluster, app):
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()

    def test_raising_on_change_costs_only_its_own_handle(self):
        model, broker, cluster, app = self.build()
        try:
            def boom(notification):
                raise RuntimeError("user bug")

            first = app.subscribe("items", {"v": {"$gte": 0}},
                                  on_change=boom)
            twin = app.subscribe("items", {"v": {"$gte": 0}})
            other = app.subscribe("items", {"v": {"$gte": 1}})
            assert broker.drain()
            # One write, one dispatch batch, one envelope: a row for
            # the twins' query and a row for the other query.
            app.insert("items", {"_id": 1, "v": 5})
            assert broker.drain()
            assert [n.key for n in first.notifications] == [1]
            assert [n.key for n in twin.notifications] == [1]
            assert [n.key for n in other.notifications] == [1]
            assert app.client.stats()["callback_errors"] == 1
            assert broker.stats["listener_errors"] == 0
        finally:
            self.teardown(model, broker, cluster, app)

    def test_raising_on_error_keeps_the_rest_of_the_envelope(self):
        model, broker, cluster, app = self.build()
        try:
            def boom(message):
                raise RuntimeError("user bug")

            failing = app.subscribe("items", {"v": {"$gte": 0}},
                                    on_error=boom)
            healthy = app.subscribe("items", {"v": {"$gte": 1}})
            assert broker.drain()
            envelope = ChangeEnvelope()
            envelope.add(QueryChange(
                failing.query.query_id, MatchType.ERROR,
                error="window exhausted",
            ))
            envelope.add(QueryChange(
                healthy.query.query_id, MatchType.ADD, key=9,
                document={"_id": 9, "v": 9}, version=1,
            ))
            broker.publish(notification_channel("app"), envelope.payload())
            assert broker.drain()
            assert failing.errors == ["window exhausted"]
            assert healthy.result() == [{"_id": 9, "v": 9}]
            assert app.client.stats()["callback_errors"] == 1
            assert app.client.stats()["renewals_sent"] == 1
        finally:
            self.teardown(model, broker, cluster, app)

    def test_failed_renewal_is_reported_after_the_remaining_rows(
        self, monkeypatch
    ):
        model, broker, cluster, app = self.build()
        try:
            failing = app.subscribe("items", {"v": {"$gte": 0}})
            healthy = app.subscribe("items", {"v": {"$gte": 1}})
            assert broker.drain()

            def unreachable(query_id):
                raise RuntimeError("event layer unreachable")

            monkeypatch.setattr(
                app.client, "_handle_maintenance_error", unreachable
            )
            envelope = ChangeEnvelope()
            envelope.add(QueryChange(
                failing.query.query_id, MatchType.ERROR, error="renew me",
            ))
            envelope.add(QueryChange(
                healthy.query.query_id, MatchType.ADD, key=9,
                document={"_id": 9, "v": 9}, version=1,
            ))
            broker.publish(notification_channel("app"), envelope.payload())
            assert broker.drain()
            assert healthy.result() == [{"_id": 9, "v": 9}]
            assert broker.stats["listener_errors"] == 1
            assert app.client.stats()["callback_errors"] == 0
        finally:
            self.teardown(model, broker, cluster, app)

