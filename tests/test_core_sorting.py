"""Sorting-stage tests: ordered windows, offset/limit/slack, renewal.

Recreates the paper's Figure 3 scenario: articles sorted by year
descending with OFFSET 2 LIMIT 3, maintained incrementally with
auxiliary data (offset items + slack beyond limit).

The autouse ``sorting_mode`` fixture is a single-valued parametrization:
it only keeps the ``[incremental]`` test ids stable now that the window
has one maintenance path.
"""

import pytest

from repro.core.filtering import MatchEvent
from repro.core.sorting import SortingNode
from repro.query.engine import Query
from repro.types import MatchType


@pytest.fixture(autouse=True, params=["incremental"])
def sorting_mode(request):
    return request.param


ARTICLES = [
    {"_id": 5, "title": "DB Fun", "year": 2018},
    {"_id": 8, "title": "No SQL!", "year": 2018},
    {"_id": 3, "title": "BaaS For Dummies", "year": 2017},
    {"_id": 4, "title": "Query Languages", "year": 2017},
    {"_id": 7, "title": "Streams in Action", "year": 2016},
    {"_id": 9, "title": "SaaS For Dummies", "year": 2016},
    {"_id": 11, "title": "Even Older", "year": 2015},
]


def figure3_query(limit=3, offset=2):
    return Query({}, collection="articles", sort=[("year", -1)],
                 limit=limit, offset=offset)


def event(query, match_type, doc=None, key=None, version=1):
    return MatchEvent(
        query_id=query.core_id,
        match_type=match_type,
        key=key if key is not None else doc["_id"],
        document=doc,
        version=version,
        timestamp=0.0,
        needs_sorting=True,
    )


def register(node, query, documents, slack=2):
    """Register with the rewritten bootstrap (top offset+limit+slack)."""
    rewritten = query.rewritten_for_subscription(slack)
    sort = query.sort
    bootstrap = sorted(documents, key=sort.key)
    if rewritten.limit is not None:
        bootstrap = bootstrap[: rewritten.limit]
    versions = {doc["_id"]: 1 for doc in bootstrap}
    return node.register_query(query, bootstrap, versions, slack=slack)


def visible_ids(node, query):
    return [key for key, _ in node.state_of(query.query_id).visible()]


class TestBootstrapWindow:
    def test_figure3_initial_window(self):
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)
        # offset 2 skips the two 2018 articles; result = ids 3, 4, 7.
        assert visible_ids(node, query) == [3, 4, 7]

    def test_initial_registration_emits_nothing(self):
        node = SortingNode()
        changes = register(node, figure3_query(), ARTICLES)
        assert changes == []

    def test_short_result_marks_complete_knowledge(self):
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES[:3])
        assert node.state_of(query.query_id).core.complete

    def test_full_window_is_incomplete(self):
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)  # 7 docs = offset+limit+slack
        assert not node.state_of(query.query_id).core.complete


class TestOffsetDynamics:
    def test_removal_from_offset_shifts_window(self):
        """Figure 3's narrative: deleting 'No SQL!' (id 8, offset) moves
        'BaaS For Dummies' into the offset and pulls 'SaaS For Dummies'
        (id 9) into the result."""
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)
        changes = node.handle_event(event(query, MatchType.REMOVE, key=8,
                                          version=2))
        assert visible_ids(node, query) == [4, 7, 9]
        kinds = {(c.match_type, c.key) for c in changes}
        assert (MatchType.REMOVE, 3) in kinds  # slid into the offset
        assert (MatchType.ADD, 9) in kinds  # slid in from beyond limit

    def test_insert_into_offset_shifts_window_back(self):
        """Adding an article above the offset pushes the last offset item
        into the result and the last result item beyond the limit."""
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)
        newest = {"_id": 1, "title": "Brand New", "year": 2019}
        changes = node.handle_event(event(query, MatchType.ADD, newest))
        assert visible_ids(node, query) == [8, 3, 4]
        kinds = {(c.match_type, c.key) for c in changes}
        assert (MatchType.ADD, 8) in kinds
        assert (MatchType.REMOVE, 7) in kinds


class TestLimitDynamics:
    def test_add_inside_result_pushes_last_out(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=2)
        register(node, query, ARTICLES, slack=2)
        assert visible_ids(node, query) == [5, 8]
        doc = {"_id": 2, "title": "Mid", "year": 2019}
        changes = node.handle_event(event(query, MatchType.ADD, doc))
        assert visible_ids(node, query) == [2, 5]
        kinds = {(c.match_type, c.key) for c in changes}
        assert (MatchType.ADD, 2) in kinds
        assert (MatchType.REMOVE, 8) in kinds

    def test_remove_pulls_next_in(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=2)
        register(node, query, ARTICLES, slack=2)
        changes = node.handle_event(event(query, MatchType.REMOVE, key=5,
                                          version=2))
        assert visible_ids(node, query) == [8, 3]
        assert any(
            c.match_type is MatchType.ADD and c.key == 3 for c in changes
        )

    def test_change_index_within_window(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=4)
        register(node, query, ARTICLES, slack=2)
        # id 4 moves from 2017 to 2019: it jumps to the front.
        moved = {"_id": 4, "title": "Query Languages", "year": 2019}
        changes = node.handle_event(event(query, MatchType.CHANGE, moved,
                                          version=2))
        assert visible_ids(node, query)[0] == 4
        assert [c.match_type for c in changes] == [MatchType.CHANGE_INDEX]
        assert changes[0].old_index == 3 and changes[0].index == 0

    def test_change_in_place_keeps_position(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        register(node, query, ARTICLES, slack=2)
        retitled = {"_id": 8, "title": "Renamed", "year": 2018}
        changes = node.handle_event(event(query, MatchType.CHANGE, retitled,
                                          version=2))
        assert [c.match_type for c in changes] == [MatchType.CHANGE]
        assert changes[0].index == changes[0].old_index == 1

    def test_add_beyond_horizon_is_ignored(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=2)
        register(node, query, ARTICLES, slack=1)  # window of 3
        ancient = {"_id": 99, "title": "Ancient", "year": 1990}
        changes = node.handle_event(event(query, MatchType.ADD, ancient))
        assert changes == []
        assert len(node.state_of(query.query_id).core.entries) == 3

    def test_add_grows_slack_when_incomplete_but_below_capacity(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=2)
        register(node, query, ARTICLES, slack=3)  # capacity 5, 5 known
        state = node.state_of(query.query_id)
        node.handle_event(event(query, MatchType.REMOVE, key=7, version=2))
        assert state.core.current_slack() == 2
        fresh = {"_id": 50, "year": 2018, "title": "x"}
        node.handle_event(event(query, MatchType.ADD, fresh))
        assert state.core.current_slack() == 3


class TestMaintenanceErrors:
    def test_slack_exhaustion_triggers_error(self):
        """Section 5.2: when the slack reaches zero, a removal renders
        the query unmaintainable -> error notification doubling as a
        query renewal request."""
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=5)
        register(node, query, ARTICLES, slack=2)  # knows all 7, capacity 7
        # Three removals: slack 2 -> 1 -> 0 -> error.
        first = node.handle_event(event(query, MatchType.REMOVE, key=5,
                                        version=2))
        second = node.handle_event(event(query, MatchType.REMOVE, key=8,
                                         version=2))
        third = node.handle_event(event(query, MatchType.REMOVE, key=3,
                                        version=2))
        assert not any(c.is_error for c in first + second)
        assert len(third) == 1 and third[0].is_error
        # The query is deactivated until renewal.
        assert node.state_of(query.query_id) is None

    def test_complete_knowledge_never_errors(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=5)
        register(node, query, ARTICLES[:3], slack=2)  # complete
        for key in (5, 8, 3):
            changes = node.handle_event(
                event(query, MatchType.REMOVE, key=key, version=2)
            )
            assert not any(c.is_error for c in changes)
        assert visible_ids(node, query) == []

    def test_events_after_deactivation_are_dropped(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=5)
        register(node, query, ARTICLES, slack=1)
        node.handle_event(event(query, MatchType.REMOVE, key=5, version=2))
        error = node.handle_event(event(query, MatchType.REMOVE, key=8,
                                        version=2))
        assert error and error[0].is_error
        late = node.handle_event(event(query, MatchType.REMOVE, key=3,
                                       version=2))
        assert late == []


class TestRenewal:
    def test_renewal_emits_delta_from_last_valid_window(self):
        """Section 5.2: after renewal the node emits incremental change
        notifications from the last valid to the current result."""
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)
        assert visible_ids(node, query) == [3, 4, 7]
        # Fresh bootstrap where id 4 is gone and a new 2019 article
        # exists; the newcomer lands in the offset, shifting id 8 into
        # the visible window.
        renewed = [doc for doc in ARTICLES if doc["_id"] != 4]
        renewed.append({"_id": 20, "title": "Fresh", "year": 2019})
        changes = register(node, query, renewed)
        assert visible_ids(node, query) == [8, 3, 7]
        kinds = {(c.match_type, c.key) for c in changes}
        assert (MatchType.REMOVE, 4) in kinds
        assert (MatchType.ADD, 8) in kinds

    def test_renewal_with_identical_state_is_silent(self):
        node = SortingNode()
        query = figure3_query()
        register(node, query, ARTICLES)
        changes = register(node, query, ARTICLES)
        assert changes == []


class TestUnlimitedSortedQueries:
    def test_sorted_query_without_limit_tracks_everything(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)])
        register(node, query, ARTICLES)
        state = node.state_of(query.query_id)
        assert state.core.complete
        assert state.core.current_slack() is None
        doc = {"_id": 100, "year": 2030, "title": "future"}
        changes = node.handle_event(event(query, MatchType.ADD, doc))
        assert changes[0].match_type is MatchType.ADD
        assert changes[0].index == 0
        assert len(visible_ids(node, query)) == 8

    def test_unlimited_query_never_errors_on_removal(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)])
        register(node, query, ARTICLES)
        for doc in ARTICLES:
            changes = node.handle_event(
                event(query, MatchType.REMOVE, key=doc["_id"], version=2)
            )
            assert not any(c.is_error for c in changes)
        assert visible_ids(node, query) == []


class TestVersionHandling:
    def test_stale_event_version_ignored(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        register(node, query, ARTICLES, slack=2)
        newer = {"_id": 5, "title": "DB Fun v3", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, newer, version=3))
        older = {"_id": 5, "title": "DB Fun v2", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, older, version=2))
        state = node.state_of(query.query_id)
        titles = {doc["title"] for _, doc in state.visible()}
        assert "DB Fun v3" in titles and "DB Fun v2" not in titles

    def test_stale_remove_ignored(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        register(node, query, ARTICLES, slack=2)
        newer = {"_id": 5, "title": "v5", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, newer, version=5))
        changes = node.handle_event(
            event(query, MatchType.REMOVE, key=5, version=2)
        )
        assert changes == []
        assert 5 in visible_ids(node, query)

    def test_version_zero_upsert_does_not_bypass_staleness(self):
        """Regression: ``if version and version < …`` let version-0
        writes skip the staleness check entirely, clobbering a newer
        document.  Version comparison must be strict, like the
        filtering stage's retention buffer and client materialization."""
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        register(node, query, ARTICLES, slack=2)
        newer = {"_id": 5, "title": "DB Fun v3", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, newer, version=3))
        zero = {"_id": 5, "title": "DB Fun v0", "year": 2018}
        changes = node.handle_event(
            event(query, MatchType.CHANGE, zero, version=0)
        )
        assert changes == []
        titles = {
            doc["title"]
            for _, doc in node.state_of(query.query_id).visible()
        }
        assert "DB Fun v3" in titles and "DB Fun v0" not in titles

    def test_version_zero_remove_does_not_bypass_staleness(self):
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        register(node, query, ARTICLES, slack=2)
        newer = {"_id": 5, "title": "v5", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, newer, version=5))
        changes = node.handle_event(
            event(query, MatchType.REMOVE, key=5, version=0)
        )
        assert changes == []
        assert 5 in visible_ids(node, query)

    def test_version_zero_applies_against_version_zero_entry(self):
        """A version-0 write against a version-0 entry is not stale —
        equal versions apply (idempotent re-delivery)."""
        node = SortingNode()
        query = Query({}, sort=[("year", -1)], limit=3)
        rewritten = query.rewritten_for_subscription(2)
        bootstrap = sorted(ARTICLES, key=query.sort.key)[: rewritten.limit]
        node.register_query(query, bootstrap, {}, slack=2)  # versions all 0
        retitled = {"_id": 5, "title": "Retitled", "year": 2018}
        node.handle_event(event(query, MatchType.CHANGE, retitled, version=0))
        titles = {
            doc["title"]
            for _, doc in node.state_of(query.query_id).visible()
        }
        assert "Retitled" in titles


def page_query(offset, limit):
    return Query({}, collection="articles", sort=[("year", -1)],
                 limit=limit, offset=offset)


def page_ids(node, query):
    return [key for key, _ in node.state_of(query.query_id).visible()]


class TestSortCores:
    """Pages of one filter + sort are slices of one shared window."""

    def test_core_id_excludes_limit_and_offset(self):
        pages = [page_query(0, 2), page_query(2, 3), page_query(0, None)]
        assert len({page.core_id for page in pages}) == 1
        assert len({page.partition_hash for page in pages}) == 1
        assert len({page.query_id for page in pages}) == 3
        # A limit-less first page hashes like its core, but the ids
        # never collide.
        unlimited = pages[2]
        assert unlimited.partition_hash == unlimited.hash
        assert unlimited.core_id != unlimited.query_id
        unsorted = Query({}, collection="articles")
        assert unsorted.core_id == unsorted.query_id
        assert unsorted.partition_hash == unsorted.hash

    def test_pages_share_one_core_and_one_event(self):
        node = SortingNode()
        top, rest = page_query(0, 2), page_query(2, 3)
        register(node, top, ARTICLES)
        assert register(node, rest, ARTICLES) == []
        assert node.stats()["cores"] == 1 and node.stats()["pages"] == 2
        assert page_ids(node, top) == [5, 8]
        assert page_ids(node, rest) == [3, 4, 7]
        newest = {"_id": 1, "title": "Brand New", "year": 2019}
        changes = node.handle_event(event(top, MatchType.ADD, newest))
        assert node.events_processed == 1
        assert page_ids(node, top) == [1, 5]
        assert page_ids(node, rest) == [8, 3, 4]
        by_page = {(c.query_id, c.match_type, c.key) for c in changes}
        assert by_page == {
            (top.query_id, MatchType.REMOVE, 8),
            (top.query_id, MatchType.ADD, 1),
            (rest.query_id, MatchType.REMOVE, 7),
            (rest.query_id, MatchType.ADD, 8),
        }

    def test_a_move_diffs_only_the_pages_it_crosses(self):
        node = SortingNode()
        pages = [page_query(offset, 2) for offset in (0, 2, 4)]
        for page in pages:
            register(node, page, ARTICLES)
        # id 4 (rank 3, second page) moves to rank 2: inside page two.
        moved = {"_id": 4, "title": "Query Languages", "year": 2017.5}
        changes = node.handle_event(event(pages[1], MatchType.CHANGE, moved,
                                          version=2))
        assert [(c.query_id, c.match_type) for c in changes] == [
            (pages[1].query_id, MatchType.CHANGE_INDEX),
        ]
        assert page_ids(node, pages[1]) == [4, 3]

    def test_the_deepest_page_fails_alone(self):
        node = SortingNode()
        top, deep = page_query(0, 2), page_query(2, 3)
        register(node, top, ARTICLES, slack=0)
        register(node, deep, ARTICLES, slack=0)  # core knows all 5 it needs
        changes = node.handle_event(event(top, MatchType.REMOVE, key=5,
                                          version=2))
        assert [(c.query_id, c.match_type) for c in changes][0] == \
            (deep.query_id, MatchType.ERROR)
        assert node.state_of(deep.query_id) is None
        assert node.renewals_requested == 1
        # The shallow page carried on: 5 left it, 3 slid in.
        assert page_ids(node, top) == [8, 3]
        assert {(c.match_type, c.key) for c in changes[1:]} == {
            (MatchType.REMOVE, 5), (MatchType.ADD, 3),
        }
        # Its capacity (2) is all the core keeps now.
        assert len(node.state_of(top.query_id).core.entries) == 2
        # The renewal re-attaches the deep page with the delta from its
        # last valid window [3, 4, 7].
        remaining = [doc for doc in ARTICLES if doc["_id"] != 5]
        renewal = register(node, deep, remaining, slack=0)
        assert page_ids(node, deep) == [4, 7, 9]
        assert {(c.match_type, c.key) for c in renewal} >= {
            (MatchType.REMOVE, 3), (MatchType.ADD, 9),
        }

    def test_attach_merges_newer_entries_into_attached_pages(self):
        """A bootstrap read after a write the core has not seen yet:
        merging it updates the page already attached; the attaching
        page's initial result already had it."""
        node = SortingNode()
        top, rest = page_query(0, 2), page_query(2, 3)
        register(node, top, ARTICLES)
        newer = [dict(doc, year=2020) if doc["_id"] == 3 else doc
                 for doc in ARTICLES]
        rewritten = rest.rewritten_for_subscription(2)
        bootstrap = sorted(newer, key=rest.sort.key)[: rewritten.limit]
        versions = {doc["_id"]: 2 if doc["_id"] == 3 else 1
                    for doc in bootstrap}
        changes = node.register_query(rest, bootstrap, versions, slack=2)
        assert page_ids(node, top) == [3, 5]
        assert page_ids(node, rest) == [8, 4, 7]
        assert {c.query_id for c in changes} == {top.query_id}

    def test_first_attach_catches_up_with_a_core_ahead_of_its_bootstrap(self):
        """A write that reached the core before a page's subscribe: the
        bootstrap is older than the core, so its stale entries are
        dropped, and the page gets the delta from its initial result."""
        node = SortingNode()
        top, rest = page_query(0, 2), page_query(2, 3)
        register(node, top, ARTICLES)
        moved = {"_id": 7, "title": "Streams in Action", "year": 2019}
        node.handle_event(event(top, MatchType.CHANGE, moved, version=2))
        assert page_ids(node, top) == [7, 5]
        changes = register(node, rest, ARTICLES)   # versions all 1
        assert page_ids(node, rest) == [8, 3, 4]
        assert {c.query_id for c in changes} == {rest.query_id}
        kinds = {(c.match_type, c.key) for c in changes}
        assert (MatchType.ADD, 8) in kinds and (MatchType.REMOVE, 7) in kinds

    def test_detaching_the_last_page_drops_the_core(self):
        node = SortingNode()
        top, rest = page_query(0, 2), page_query(2, 3)
        register(node, top, ARTICLES)
        register(node, rest, ARTICLES)
        assert node.deactivate_query(rest.query_id)
        assert node.stats()["cores"] == 1
        assert node.deactivate_query(top.query_id)
        assert node.stats()["cores"] == 0 and node.stats()["pages"] == 0
        assert node.handle_event(event(top, MatchType.REMOVE, key=5)) == []
