"""Baseline mechanism tests: poll-and-diff and log tailing."""

import pytest

from repro.baselines.log_tailing import LogTailingProvider
from repro.baselines.poll_and_diff import PollAndDiffProvider
from repro.baselines.capabilities import (
    CAPABILITY_ROWS,
    SYSTEMS,
    capability_table,
    system_class_table,
)
from repro.errors import QueryParseError
from repro.store.collection import Collection
from repro.store.oplog import StaleCursorError
from repro.types import MatchType

from tests.conftest import Collector


@pytest.fixture
def store():
    collection = Collection("test")
    for index in range(10):
        collection.insert({"_id": index, "v": index * 10})
    return collection


class TestPollAndDiff:
    def test_initial_result(self, store):
        provider = PollAndDiffProvider(store)
        subscription = provider.subscribe({"v": {"$gte": 50}})
        assert {d["_id"] for d in subscription.initial_result} == {5, 6, 7, 8, 9}

    def test_changes_invisible_until_poll(self, store):
        """Staleness bounded by the polling interval (Section 3.1)."""
        provider = PollAndDiffProvider(store)
        seen = Collector()
        subscription = provider.subscribe({"v": {"$gte": 50}},
                                          on_change=seen)
        store.insert({"_id": 100, "v": 99})
        assert subscription.change_count == 0  # not yet polled
        provider.poll_all()
        assert subscription.change_count == 1
        assert seen[0].match_type is MatchType.ADD

    def test_diff_produces_all_match_types(self, store):
        provider = PollAndDiffProvider(store)
        seen = Collector()
        provider.subscribe(
            {"v": {"$gte": 50}}, sort=[("v", -1)], limit=10, on_change=seen
        )
        store.insert({"_id": 100, "v": 95})      # add
        store.update(9, {"$set": {"v": 55}})      # changeIndex (moved)
        store.update(8, {"$set": {"v": 81}})      # change at same position
        store.delete(5)                           # remove
        provider.poll_all()
        kinds = {n.match_type for n in seen}
        assert MatchType.ADD in kinds
        assert MatchType.REMOVE in kinds
        assert MatchType.CHANGE_INDEX in kinds

    def test_poll_cost_scales_with_query_count(self, store):
        """The core poll-and-diff weakness: every active query re-executes
        on every poll."""
        provider = PollAndDiffProvider(store)
        for bound in range(20):
            provider.subscribe({"v": {"$gte": bound}})
        executed_before = provider.queries_executed
        provider.poll_all()
        assert provider.queries_executed - executed_before == 20

    def test_full_expressiveness_inherited(self, store):
        """Poll-and-diff supports sorted queries with limit AND offset."""
        provider = PollAndDiffProvider(store)
        subscription = provider.subscribe({}, sort=[("v", -1)], limit=3,
                                          offset=2)
        assert [d["_id"] for d in subscription.initial_result] == [7, 6, 5]

    def test_unsubscribe(self, store):
        provider = PollAndDiffProvider(store)
        subscription = provider.subscribe({"v": {"$gte": 0}})
        provider.unsubscribe(subscription)
        store.insert({"_id": 55, "v": 1})
        provider.poll_all()
        assert subscription.change_count == 0
        assert provider.subscription_count == 0


class TestLogTailing:
    def test_lag_free_push(self, store):
        provider = LogTailingProvider(store)
        subscription = provider.subscribe({"v": {"$gte": 50}})
        store.insert({"_id": 100, "v": 99})
        assert subscription.change_count == 1  # no polling needed
        provider.close()

    def test_match_transitions(self, store):
        provider = LogTailingProvider(store)
        seen = Collector()
        provider.subscribe({"v": {"$gte": 50}}, on_change=seen)
        store.insert({"_id": 100, "v": 99})
        store.update(100, {"$set": {"v": 98}})
        store.update(100, {"$set": {"v": 1}})
        kinds = [n.match_type for n in seen]
        assert kinds == [MatchType.ADD, MatchType.CHANGE, MatchType.REMOVE]
        provider.close()

    def test_processes_entire_write_stream(self, store):
        """The core log-tailing weakness: every oplog entry is processed
        regardless of relevance (C1 in the paper)."""
        provider = LogTailingProvider(store)
        provider.subscribe({"v": {"$gte": 10**9}})  # matches nothing
        for index in range(100, 150):
            store.insert({"_id": index, "v": 0})
        assert provider.entries_processed == 50
        provider.close()

    def test_no_ordered_queries(self, store):
        """Like Parse, log tailing rejects ordered real-time queries."""
        provider = LogTailingProvider(store)
        with pytest.raises(QueryParseError):
            provider.subscribe({}, sort=[("v", 1)])
        with pytest.raises(QueryParseError):
            provider.subscribe({}, limit=3)
        provider.close()

    def test_oplog_overrun_loses_changes(self):
        """A slow tailer on a capped oplog suffers a stale cursor — the
        real-world failure of log tailing under write pressure."""
        collection = Collection("small", oplog=None)
        collection.oplog.capacity = 10
        overruns = []
        provider = LogTailingProvider(collection, push=False,
                                      on_overrun=overruns.append)
        subscription = provider.subscribe({"v": {"$gte": 0}})
        for index in range(50):
            collection.insert({"_id": index, "v": index})
        provider.drain()
        assert overruns and isinstance(overruns[0], StaleCursorError)
        # Only the surviving window was processed: changes were LOST.
        assert subscription.change_count < 50

    def test_pull_mode_drain(self, store):
        provider = LogTailingProvider(store, push=False)
        subscription = provider.subscribe({"v": {"$gte": 50}})
        store.insert({"_id": 100, "v": 99})
        assert subscription.change_count == 0
        processed = provider.drain()
        assert processed == 1
        assert subscription.change_count == 1


class TestCapabilityTables:
    def test_every_row_covers_all_systems(self):
        for name, cells in CAPABILITY_ROWS.items():
            assert len(cells) == len(SYSTEMS), name

    def test_invalidb_column_all_positive(self):
        """Table 2: InvaliDB is the only column with every capability."""
        invalidb = SYSTEMS.index("InvaliDB (Baqend)")
        for name, cells in CAPABILITY_ROWS.items():
            assert cells[invalidb] is True, name

    def test_no_other_system_has_all_capabilities(self):
        for column, system in enumerate(SYSTEMS):
            if system == "InvaliDB (Baqend)":
                continue
            values = [cells[column] for cells in CAPABILITY_ROWS.values()]
            assert not all(value is True for value in values), system

    def test_capability_flags_match_implementations(self):
        """Table 2 columns for the systems we implement are probed from
        the actual classes, not hardcoded lore."""
        poll_idx = SYSTEMS.index("Poll-and-Diff (Meteor)")
        tail_idx = SYSTEMS.index("Log Tailing (Meteor)")
        assert CAPABILITY_ROWS["Scales With Write TP"][poll_idx] is (
            PollAndDiffProvider.scales_with_write_throughput
        )
        assert CAPABILITY_ROWS["Scales With Write TP"][tail_idx] is (
            LogTailingProvider.scales_with_write_throughput
        )
        assert CAPABILITY_ROWS["Lag-Free Notifications"][poll_idx] is (
            PollAndDiffProvider.lag_free
        )
        assert CAPABILITY_ROWS["Lag-Free Notifications"][tail_idx] is (
            LogTailingProvider.lag_free
        )

    def test_tables_render(self):
        table2 = capability_table()
        assert "InvaliDB" in table2 and "Offset" in table2
        table1 = system_class_table()
        assert "persistent collections" in table1
        assert "Stream Processing" in table1
