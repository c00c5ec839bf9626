"""Filtering-stage tests: match transitions, replay, race closure."""

import pytest

from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.query.engine import Query
from repro.types import AfterImage, MatchType, WriteKind


def node(retention=5.0):
    return FilteringNode(NodeCoordinates(0, 0), retention_seconds=retention)


def insert(key, doc, version=1, ts=0.0, collection="default"):
    return AfterImage(key=key, version=version, kind=WriteKind.INSERT,
                      document={"_id": key, **doc}, timestamp=ts,
                      collection=collection)


def update(key, doc, version, ts=0.0):
    return AfterImage(key=key, version=version, kind=WriteKind.UPDATE,
                      document={"_id": key, **doc}, timestamp=ts)


def delete(key, version, ts=0.0):
    return AfterImage(key=key, version=version, kind=WriteKind.DELETE,
                      document=None, timestamp=ts)


QUERY = Query({"v": {"$gte": 10}})


class TestMatchTransitions:
    def test_add_on_new_match(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        events = n.process_write(insert(1, {"v": 15}), now=0.0)
        assert len(events) == 1
        assert events[0].match_type is MatchType.ADD
        assert events[0].document["v"] == 15

    def test_change_on_updated_match(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        events = n.process_write(update(1, {"v": 20}, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.CHANGE]

    def test_remove_when_no_longer_matching(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        events = n.process_write(update(1, {"v": 5}, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]

    def test_remove_on_delete_carries_last_document(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        events = n.process_write(delete(1, version=2), now=0.0)
        assert events[0].match_type is MatchType.REMOVE
        assert events[0].document == {"_id": 1, "v": 15}

    def test_irrelevant_writes_are_filtered_out(self):
        """Section 5.2: no events for obviously irrelevant writes."""
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        assert n.process_write(insert(1, {"v": 1}), now=0.0) == []
        assert n.process_write(update(1, {"v": 2}, version=2), now=0.0) == []
        assert n.process_write(delete(1, version=3), now=0.0) == []

    def test_wrong_collection_is_irrelevant(self):
        n = node()
        n.register_query(Query({"v": 1}, collection="a"), [], {}, now=0.0)
        events = n.process_write(
            insert(1, {"v": 1}, collection="b"), now=0.0
        )
        assert events == []

    def test_multiple_queries_evaluated_per_write(self):
        n = node()
        n.register_query(Query({"v": {"$gte": 10}}), [], {}, now=0.0)
        n.register_query(Query({"v": {"$lt": 100}}), [], {}, now=0.0)
        events = n.process_write(insert(1, {"v": 50}), now=0.0)
        assert len(events) == 2
        assert all(e.match_type is MatchType.ADD for e in events)


class TestBootstrap:
    def test_bootstrap_members_yield_change_not_add(self):
        n = node()
        n.register_query(QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.0)
        events = n.process_write(update(1, {"v": 16}, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.CHANGE]

    def test_bootstrap_member_can_be_removed(self):
        n = node()
        n.register_query(QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.0)
        events = n.process_write(delete(1, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]

    def test_result_partition_tracks_current_members(self):
        n = node()
        n.register_query(QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.0)
        n.process_write(insert(2, {"v": 30}), now=0.0)
        n.process_write(delete(1, version=2), now=0.0)
        partition = n.result_partition(QUERY.query_id)
        assert [d["_id"] for d in partition] == [2]


class TestWriteSubscriptionRace:
    """Section 5.1: a write processed before the subscription arrives is
    replayed from the retention buffer on registration."""

    def test_replay_emits_missed_add(self):
        n = node()
        # Write arrives BEFORE the subscription (version 1, not yet in
        # any bootstrap result).
        n.process_write(insert(1, {"v": 15}, ts=0.0), now=0.0)
        events = n.register_query(QUERY, [], {}, now=0.5)
        assert [e.match_type for e in events] == [MatchType.ADD]
        assert events[0].key == 1

    def test_replay_skips_writes_already_in_bootstrap(self):
        n = node()
        n.process_write(insert(1, {"v": 15}, ts=0.0), now=0.0)
        # The bootstrap result already reflects version 1.
        events = n.register_query(
            QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.5
        )
        assert events == []

    def test_replay_applies_newer_delete_over_bootstrap(self):
        n = node()
        n.process_write(delete(1, version=2, ts=0.0), now=0.0)
        # Stale bootstrap still contains the item at version 1 (the
        # pull-based query ran just before the delete).
        events = n.register_query(
            QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.5
        )
        assert [e.match_type for e in events] == [MatchType.REMOVE]

    def test_replay_outside_retention_window_is_lost(self):
        n = node(retention=1.0)
        n.process_write(insert(1, {"v": 15}, ts=0.0), now=0.0)
        events = n.register_query(QUERY, [], {}, now=60.0)
        assert events == []


class TestStaleness:
    def test_stale_write_ignored_entirely(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(update(1, {"v": 15}, version=3), now=0.0)
        events = n.process_write(update(1, {"v": 5}, version=2), now=0.0)
        assert events == []
        partition = n.result_partition(QUERY.query_id)
        assert [d["v"] for d in partition] == [15]

    def test_out_of_order_delivery_converges(self):
        """Delete arriving before a late older update must win."""
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}, ts=0.0), now=0.0)
        n.process_write(delete(1, version=3), now=0.0)
        late = n.process_write(update(1, {"v": 99}, version=2), now=0.0)
        assert late == []
        assert n.result_partition(QUERY.query_id) == []


class TestLifecycle:
    def test_deactivate(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        assert n.deactivate_query(QUERY.query_id)
        assert not n.deactivate_query(QUERY.query_id)
        assert n.process_write(insert(1, {"v": 15}), now=0.0) == []

    def test_needs_sorting_flag(self):
        n = node()
        sorted_query = Query({"v": {"$gte": 10}}, sort=[("v", 1)])
        n.register_query(sorted_query, [], {}, now=0.0)
        events = n.process_write(insert(1, {"v": 15}), now=0.0)
        assert events[0].needs_sorting

    def test_re_registration_replaces_state(self):
        n = node()
        n.register_query(QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.0)
        n.register_query(QUERY, [{"_id": 2, "v": 20}], {2: 1}, now=0.0)
        partition = n.result_partition(QUERY.query_id)
        assert [d["_id"] for d in partition] == [2]
        assert n.query_count == 1

    def test_re_registration_keeps_reverse_map_consistent(self):
        n = node()
        n.register_query(QUERY, [{"_id": 1, "v": 15}], {1: 1}, now=0.0)
        n.register_query(QUERY, [{"_id": 2, "v": 20}], {2: 1}, now=0.0)
        # Key 1 left the result on re-registration: a write making it
        # non-matching must not produce a spurious remove.
        assert n.process_write(update(1, {"v": 5}, version=2), now=0.0) == []
        events = n.process_write(delete(2, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]


class TestSortCores:
    """Pages of one filter + sort share one entry, refcounted."""

    PAGES = [Query({"v": {"$gte": 10}}, sort=[("v", -1)], limit=2,
                   offset=offset) for offset in (0, 2, 4)]

    def test_one_entry_and_one_event_per_core(self):
        n = node()
        for page in self.PAGES:
            n.register_query(page, [], {}, now=0.0)
        core_id = self.PAGES[0].core_id
        assert n.active_queries() == [core_id]
        assert n.stats()["index"]["queries"] == 1
        assert n.stats()["dag"]["roots"] == 1
        events = n.process_write(insert(1, {"v": 15}), now=0.0)
        assert [(e.query_id, e.match_type) for e in events] == [
            (core_id, MatchType.ADD)
        ]
        assert n.candidates_considered == 1

    def test_the_entry_lives_while_a_page_does(self):
        n = node()
        for page in self.PAGES[:2]:
            n.register_query(page, [], {}, now=0.0)
        assert n.deactivate_query(self.PAGES[0].query_id)
        assert not n.deactivate_query(self.PAGES[0].query_id)
        assert not n.deactivate_query(self.PAGES[2].query_id)
        assert n.process_write(insert(1, {"v": 15}), now=0.0)
        assert n.deactivate_query(self.PAGES[1].query_id)
        assert n.query_count == 0
        assert n.process_write(insert(2, {"v": 15}), now=0.0) == []

    def test_a_page_bootstrap_merges_by_version(self):
        n = node()
        first, second = self.PAGES[:2]
        n.register_query(first, [{"_id": 1, "v": 15}], {1: 3}, now=0.0)
        # Older for key 1 (dropped), new for key 2 (added); key 1 stays.
        n.register_query(second, [{"_id": 1, "v": 11},
                                  {"_id": 2, "v": 20}], {1: 2, 2: 1},
                         now=0.0)
        partition = n.result_partition(second.query_id)
        assert sorted((d["_id"], d["v"]) for d in partition) == \
            [(1, 15), (2, 20)]
        events = n.process_write(delete(1, version=4), now=0.0)
        assert [(e.match_type, e.document) for e in events] == \
            [(MatchType.REMOVE, {"_id": 1, "v": 15})]

    def test_replay_is_against_the_bootstrap_version(self):
        """A write the entry already processed is replayed to a page
        whose bootstrap predates it (the sorting core's version test
        makes the repeat a no-op)."""
        n = node()
        first, second = self.PAGES[:2]
        n.register_query(first, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        events = n.register_query(second, [], {}, now=0.0)
        assert [(e.match_type, e.key, e.version) for e in events] == \
            [(MatchType.CHANGE, 1, 1)]


class TestMatchedOperationsCounter:
    """matched_operations counts actual engine invocations — deletes and
    foreign-collection writes never reach the engine."""

    def test_counts_engine_invocations_only(self):
        n = FilteringNode(NodeCoordinates(0, 0), use_index=False)
        n.register_query(Query({"v": {"$gte": 10}}), [], {}, now=0.0)
        n.register_query(Query({"v": {"$lt": 100}}), [], {}, now=0.0)
        n.process_write(insert(1, {"v": 50}), now=0.0)
        assert n.matched_operations == 2
        n.process_write(delete(1, version=2), now=0.0)
        assert n.matched_operations == 2  # deletes skip the engine
        n.process_write(insert(2, {"v": 1}, collection="b"), now=0.0)
        assert n.matched_operations == 2  # wrong collection too

    def test_stale_writes_do_not_count(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(update(1, {"v": 15}, version=3), now=0.0)
        before = n.matched_operations
        n.process_write(update(1, {"v": 5}, version=2), now=0.0)
        assert n.matched_operations == before

    def test_indexed_node_skips_non_candidates(self):
        n = node()
        queries = [Query({"v": i}) for i in range(20)]
        for query in queries:
            n.register_query(query, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 3}), now=0.0)
        assert n.matched_operations == 1
        assert n.candidates_pruned == 19
        assert n.candidates_considered == 1
        assert n.pruning_ratio == pytest.approx(0.95)

    def test_naive_node_counts_zero_pruned(self):
        n = FilteringNode(NodeCoordinates(0, 0), use_index=False)
        for i in range(5):
            n.register_query(Query({"v": i}), [], {}, now=0.0)
        n.process_write(insert(1, {"v": 3}), now=0.0)
        assert n.matched_operations == 5
        assert n.candidates_pruned == 0
        assert n.pruning_ratio == 0.0


class TestReverseMapInvariant:
    """Previously-matching entities are always re-evaluated, so removes
    survive candidate pruning."""

    def test_remove_emitted_when_new_image_misses_every_bucket(self):
        n = node()
        n.register_query(Query({"v": 15}), [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        # The new value hits no index entry at all (different field).
        events = n.process_write(update(1, {"w": 1}, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]

    def test_delete_consults_only_the_reverse_map(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        considered_before = n.candidates_considered
        events = n.process_write(delete(1, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]
        # Exactly the one previously-matching query was considered.
        assert n.candidates_considered == considered_before + 1
        # A delete of an unknown key considers nothing.
        n.process_write(delete(99, version=1), now=0.0)
        assert n.candidates_considered == considered_before + 1

    def test_bootstrap_state_populates_reverse_map(self):
        n = node()
        n.register_query(Query({"v": 15}), [{"_id": 1, "v": 15}], {1: 1},
                         now=0.0)
        events = n.process_write(delete(1, version=2), now=0.0)
        assert [e.match_type for e in events] == [MatchType.REMOVE]

    def test_deactivation_clears_reverse_map(self):
        n = node()
        query = Query({"v": 15})
        n.register_query(query, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        n.deactivate_query(query.query_id)
        assert n.process_write(delete(1, version=2), now=0.0) == []


class TestStats:
    def test_stats_snapshot(self):
        n = node()
        n.register_query(QUERY, [], {}, now=0.0)
        n.process_write(insert(1, {"v": 15}), now=0.0)
        stats = n.stats()
        assert stats["queries"] == 1
        assert stats["writes_processed"] == 1
        assert stats["matched_operations"] == 1
        assert stats["index"]["queries"] == 1
        assert 0.0 <= stats["pruning_ratio"] <= 1.0
        assert stats["dag"]["roots"] == 1
        assert stats["dag"]["evaluations"] == 1

    def test_naive_stats_have_no_index_section(self):
        n = FilteringNode(NodeCoordinates(0, 0), use_index=False)
        assert "index" not in n.stats()
