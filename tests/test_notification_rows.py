"""One notification row, built once per stage.

The matching cell turns each unsorted match event into its
``QueryChange`` in place and calls ``coalesce_events`` only when some
(query, key) group of the batch can hold two events: two producing
writes share a key, or a subscribe produced events next to another
tuple.  That gate is safe because one tuple yields at most one event
per (query, key).  The differential below checks it against the rule
it narrows — coalesce every batch that re-registers nothing — over
random batches.  The app server's ``ChangeNotification`` is a
``NamedTuple`` that keeps the value semantics of the frozen dataclass
it replaced.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import remote
from repro.core.filtering import MatchEvent
from repro.core.notifications import (
    QueryChange,
    bind_to_subscription,
    coalesce_events,
)
from repro.core.remote import MatchingCellSpec
from repro.query.engine import Query
from repro.types import AfterImage, ChangeNotification, MatchType, WriteKind

from tests.test_grid_cells import (
    OWN_KEYS,
    injected,
    subscribe_tuple,
)

KEYS = OWN_KEYS[:3]
QUERIES = [
    Query({"v": {"$gte": 10}}, collection="items"),
    Query({"v": {"$lt": 30}}, collection="items"),
    Query({}, collection="items", sort=[("v", -1)], limit=3),
    Query({"v": {"$gte": 0}}, collection="items", sort=[("v", 1)],
          limit=2, offset=1),
]


def matching_cell(coalescing):
    return MatchingCellSpec(
        task_index=0, query_partitions=1, write_partitions=2,
        retention_seconds=3600.0, notification_coalescing=coalescing,
    ).cell(**injected(False))


class Store:
    """The database the batches write to: documents, versions, and a
    snapshot after every write, so a subscribe can read a stale state
    (the writes after it then reach the cell as retained replay)."""

    def __init__(self):
        self.documents = {}
        self.versions = {}
        self.history = [({}, {})]

    def write(self, key, value):
        """Insert, update, or (``value is None``) delete *key*; returns
        the write tuple, or None for a delete of an absent key."""
        present = key in self.documents
        if value is None and not present:
            return None
        version = self.versions[key] = self.versions.get(key, 0) + 1
        if value is None:
            kind, document = WriteKind.DELETE, None
            del self.documents[key]
        else:
            kind = WriteKind.UPDATE if present else WriteKind.INSERT
            document = self.documents[key] = {"_id": key, "v": value}
        self.history.append((
            {k: dict(doc) for k, doc in self.documents.items()},
            dict(self.versions),
        ))
        return AfterImage(
            key=key, version=version, kind=kind, document=document,
            collection="items", timestamp=float(version),
        )

    def subscribe(self, query, lag):
        documents, versions = self.history[max(0, len(self.history) - 1 - lag)]
        return subscribe_tuple(query, documents, versions)


operations = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(KEYS),
              st.one_of(st.none(), st.integers(min_value=0, max_value=40))),
    st.tuples(st.just("subscribe"), st.integers(0, len(QUERIES) - 1),
              st.integers(min_value=0, max_value=3)),
    # A cancel makes the query's next subscribe a fresh registration.
    st.tuples(st.just("cancel"), st.integers(0, len(QUERIES) - 1),
              st.none()),
)
batches = st.lists(st.lists(operations, min_size=1, max_size=6),
                   min_size=1, max_size=6)


def always_coalesced(changes, merged):
    """What the cell returned before the gate was narrowed: the raw
    changes through ``coalesce_events`` unless the batch re-registered
    a live entry.  Sorted events pass through ``coalesce_events``
    untouched and survivors keep their order, so the unsorted changes
    can be coalesced on their own."""
    if merged:
        return [change for change, _ in changes], 0
    entries, dropped = coalesce_events([
        (MatchEvent(change.query_id, change.match_type, change.key,
                    change.document, change.version, change.timestamp,
                    False), None)
        for change, _ in changes
    ])
    return [
        QueryChange(event.query_id, event.match_type, event.key,
                    event.document, None, None, None, event.timestamp,
                    event.version)
        for event, _ in entries
    ], dropped


class TestNarrowedCoalescingGate:
    @settings(max_examples=400, deadline=None)
    @given(batches=batches)
    def test_same_rows_as_coalescing_every_batch(self, batches):
        gated, raw = matching_cell(True), matching_cell(False)
        store = Store()
        registered = set()
        for operations in batches:
            batch, merged = [], False
            for kind, which, arg in operations:
                if kind == "write":
                    tuple_ = store.write(which, arg)
                    if tuple_ is not None:
                        batch.append(tuple_)
                    continue
                query = QUERIES[which]
                if kind == "cancel":
                    registered.discard(query.core_id)
                    batch.append({"kind": "cancel",
                                  "query_id": query.query_id})
                    continue
                merged = merged or query.core_id in registered
                registered.add(query.core_id)
                batch.append(store.subscribe(query, arg))
            if not batch:
                continue
            messages, changes, coalesced = gated.handle_batch(batch)
            raw_messages, raw_changes, _ = raw.handle_batch(batch)
            expected_changes, expected_coalesced = always_coalesced(
                raw_changes, merged)
            assert messages == raw_messages
            assert [change for change, _ in changes] == expected_changes
            assert coalesced == expected_coalesced
            assert all(trace is None for _, trace in changes)

    def test_writes_to_distinct_keys_skip_coalescing(self, monkeypatch):
        calls = []
        real = remote.coalesce_events

        def counting(entries):
            calls.append(len(entries))
            return real(entries)

        monkeypatch.setattr(remote, "coalesce_events", counting)
        cell = matching_cell(True)
        store = Store()
        cell.handle_batch([store.subscribe(query, 0) for query in QUERIES])
        _, changes, coalesced = cell.handle_batch([
            store.write(KEYS[0], 12), store.write(KEYS[1], 35),
        ])
        assert [(change.query_id, change.key) for change, _ in changes] == [
            (QUERIES[0].query_id, KEYS[0]), (QUERIES[1].query_id, KEYS[0]),
            (QUERIES[0].query_id, KEYS[1]),
        ]
        assert coalesced == 0 and calls == []
        cell.handle_batch([store.write(KEYS[0], 13), store.write(KEYS[0], 14)])
        assert calls == [8]  # two events to the sorting grid per write


def notification(**overrides):
    fields = dict(subscription_id="sub-1", query_id="q-1",
                  match_type=MatchType.CHANGE, key=7,
                  document={"_id": 7, "v": 1}, version=3, timestamp=1.5)
    fields.update(overrides)
    return ChangeNotification(**fields)


class TestChangeNotificationValue:
    def test_twelve_fields_in_order_with_defaults(self):
        assert ChangeNotification._fields == (
            "subscription_id", "query_id", "match_type", "key", "document",
            "index", "old_index", "error", "initial", "timestamp",
            "version", "trace",
        )
        bare = ChangeNotification("s", "q", MatchType.ADD)
        assert tuple(bare) == ("s", "q", MatchType.ADD, None, None, None,
                               None, None, False, 0.0, 0, None)
        assert len(bare) == 12

    def test_equality_and_hash_ignore_the_trace(self):
        traced = notification(trace={"spans": ["publish", 0.0, None]})
        plain = notification()
        assert traced == plain and not traced != plain
        assert notification(version=4) != plain
        assert hash(notification(document=None)) == hash(
            notification(document=None, trace={"spans": []}))
        # Hashing covers the document, as the dataclass's did.
        with pytest.raises(TypeError):
            hash(plain)

    def test_never_equals_a_plain_tuple(self):
        row = notification()
        assert row != tuple(row) and tuple(row) != row
        assert not row == tuple(row) and not tuple(row) == row

    def test_pickle_round_trip_keeps_every_field(self):
        row = notification(trace={"id": "t-1", "spans": []})
        back = pickle.loads(pickle.dumps(row))
        assert type(back) is ChangeNotification
        assert tuple(back) == tuple(row)

    def test_replace_and_is_error(self):
        row = notification()
        error = row._replace(match_type=MatchType.ERROR, error="boom")
        assert error.is_error and not row.is_error
        assert error.error == "boom" and row.error is None

    def test_repr_leaves_the_trace_out(self):
        row = notification(document=None, trace={"id": "t-1"})
        assert repr(row) == (
            "ChangeNotification(subscription_id='sub-1', query_id='q-1', "
            "match_type=<MatchType.CHANGE: 'change'>, key=7, document=None, "
            "index=None, old_index=None, error=None, initial=False, "
            "timestamp=1.5, version=3)"
        )

    def test_the_row_builder_is_the_public_constructor(self):
        row = ("q-1", MatchType.CHANGE_INDEX, 7, {"_id": 7}, 2, 5, None,
               1.5, 3, {"id": "t-1"})
        built = bind_to_subscription("sub-1", *row)
        public = ChangeNotification(
            subscription_id="sub-1", query_id="q-1",
            match_type=MatchType.CHANGE_INDEX, key=7, document={"_id": 7},
            index=2, old_index=5, timestamp=1.5, version=3,
            trace={"id": "t-1"},
        )
        assert type(built) is ChangeNotification
        assert tuple(built) == tuple(public)
