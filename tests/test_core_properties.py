"""Property-based tests of InvaliDB's core maintenance invariants.

The central correctness property of the whole system: for ANY sequence
of writes, the incrementally maintained result of the filtering stage
(and, for sorted queries, of the sorting stage) equals the result of
re-executing the query from scratch over the final database state.
Driven deterministically (no threads) so hypothesis shrinking works.
"""

from typing import Any, Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.core.client import RealTimeSubscription
from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.notifications import bind_to_subscription, diff_windows
from repro.core.partitioning import NodeCoordinates, PartitioningScheme
from repro.core.sorting import SortingNode
from repro.query.engine import Query
from repro.types import AfterImage, InitialResult, MatchType, WriteKind

# -- operation generator ------------------------------------------------------

KEYS = list(range(8))

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.sampled_from(KEYS),
        st.integers(min_value=0, max_value=30),  # the filtered value
    ),
    min_size=0,
    max_size=40,
)


def apply_operations(ops) -> List[AfterImage]:
    """Turn an op list into a valid after-image stream with versions."""
    alive: Dict[Any, bool] = {}
    versions: Dict[Any, int] = {key: 0 for key in KEYS}
    images: List[AfterImage] = []
    for kind, key, value in ops:
        versions[key] += 1
        if kind == "delete":
            if not alive.get(key):
                versions[key] -= 1
                continue
            alive[key] = False
            images.append(AfterImage(key, versions[key], WriteKind.DELETE,
                                     None))
        else:
            alive[key] = True
            write_kind = WriteKind.INSERT if kind == "insert" else (
                WriteKind.UPDATE
            )
            images.append(AfterImage(
                key, versions[key], write_kind,
                {"_id": key, "v": value, "tag": value % 3},
            ))
    return images


def final_state(images: List[AfterImage]) -> Dict[Any, Dict[str, Any]]:
    state: Dict[Any, Dict[str, Any]] = {}
    for image in images:
        if image.is_delete:
            state.pop(image.key, None)
        else:
            state[image.key] = image.document
    return state


# -- filtering stage ----------------------------------------------------------


class TestFilteringStageInvariant:
    @given(operations, st.integers(0, 30))
    @settings(max_examples=120, deadline=None)
    def test_maintained_partition_equals_recomputation(self, ops, bound):
        query = Query({"v": {"$gte": bound}})
        node = FilteringNode(NodeCoordinates(0, 0))
        node.register_query(query, [], {}, now=0.0)
        for image in apply_operations(ops):
            node.process_write(image, now=0.0)
        maintained = {d["_id"] for d in node.result_partition(query.query_id)}
        expected = {
            key for key, doc in final_state(apply_operations(ops)).items()
            if doc["v"] >= bound
        }
        assert maintained == expected

    @given(operations, st.integers(0, 30), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_invariant_survives_mid_stream_subscription(self, ops, bound,
                                                        split):
        """Subscribe midway (with a bootstrap of the then-current state)
        and rely on retention replay for anything in flight."""
        query = Query({"v": {"$gte": bound}})
        node = FilteringNode(NodeCoordinates(0, 0))
        images = apply_operations(ops)
        split = min(split, len(images))
        pre, post = images[:split], images[split:]
        # Writes happen before the subscription exists.
        for image in pre:
            node.process_write(image, now=0.0)
        # The pull-based bootstrap reflects exactly the pre-writes.
        state = final_state(pre)
        bootstrap = [doc for doc in state.values() if doc["v"] >= bound]
        versions = {doc["_id"]: max(
            (img.version for img in pre if img.key == doc["_id"]), default=0
        ) for doc in bootstrap}
        node.register_query(query, bootstrap, versions, now=0.0)
        for image in post:
            node.process_write(image, now=0.0)
        maintained = {d["_id"] for d in node.result_partition(query.query_id)}
        expected = {
            key for key, doc in final_state(images).items()
            if doc["v"] >= bound
        }
        assert maintained == expected

    @given(operations, st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_event_stream_is_well_formed(self, ops, bound):
        """add/remove alternate per key; change only between them."""
        query = Query({"v": {"$gte": bound}})
        node = FilteringNode(NodeCoordinates(0, 0))
        node.register_query(query, [], {}, now=0.0)
        in_result: Dict[Any, bool] = {}
        for image in apply_operations(ops):
            for event in node.process_write(image, now=0.0):
                if event.match_type is MatchType.ADD:
                    assert not in_result.get(event.key)
                    in_result[event.key] = True
                elif event.match_type is MatchType.CHANGE:
                    assert in_result.get(event.key)
                elif event.match_type is MatchType.REMOVE:
                    assert in_result.get(event.key)
                    in_result[event.key] = False


# -- 2D grid ------------------------------------------------------------------


class TestGridInvariant:
    @given(operations, st.integers(0, 30),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_union_of_partitions_equals_recomputation(self, ops, bound,
                                                      qp_count, wp_count):
        """Run the same stream through a full QP x WP grid: the union of
        the responsible row's result partitions is the query result."""
        scheme = PartitioningScheme(qp_count, wp_count)
        query = Query({"v": {"$gte": bound}})
        nodes = {
            scheme.task_index(coordinates): FilteringNode(coordinates)
            for coordinates in scheme.all_nodes()
        }
        qp = scheme.query_partition_of(query.hash)
        for coordinates in scheme.nodes_for_query(query.hash):
            nodes[scheme.task_index(coordinates)].register_query(
                query, [], {}, now=0.0
            )
        for image in apply_operations(ops):
            for coordinates in scheme.nodes_for_write(image.key):
                nodes[scheme.task_index(coordinates)].process_write(
                    image, now=0.0
                )
        union = set()
        for coordinates in scheme.nodes_for_query(query.hash):
            node = nodes[scheme.task_index(coordinates)]
            partition = {
                d["_id"] for d in node.result_partition(query.query_id)
            }
            # Partitions are disjoint by construction.
            assert not (union & partition)
            union |= partition
        expected = {
            key for key, doc in final_state(apply_operations(ops)).items()
            if doc["v"] >= bound
        }
        assert union == expected


# -- sorting stage ------------------------------------------------------------

SORTED_KEYS = list(range(12))

#: Values of the documents that exist before the query is subscribed
#: (key i holds seeds[i]): windows start full and beyond capacity, so
#: removals can actually exhaust the slack.
sorted_seeds = st.lists(st.integers(0, 30), min_size=8,
                        max_size=len(SORTED_KEYS))

# Writes, plus the two disturbances the sorting stage must absorb:
# "replay" re-delivers an earlier match event of the key (a duplicate or
# a stale version, as at-least-once delivery and writes racing a
# bootstrap produce); "reregister" is a mid-stream deactivate_query ->
# one to three writes the deactivated query misses -> register_query.
sorted_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "update", "delete", "delete",
                         "replay", "reregister"]),
        st.sampled_from(SORTED_KEYS),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=15,
    max_size=50,
)

# The same, plus the page lifecycle of a shared sort core: "attach" the
# next (deeper) page, "detach" one, "renew" one with one more slack item.
page_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "update", "delete", "delete",
                         "replay", "reregister", "attach", "attach",
                         "detach", "renew"]),
        st.sampled_from(SORTED_KEYS),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=15,
    max_size=60,
)


@st.composite
def core_pages(draw):
    """1-4 distinct ``(offset, limit, slack)`` pages of one sort core
    (``limit=None`` included), shallowest first."""
    slices = draw(st.lists(
        st.tuples(st.integers(0, 6), st.none() | st.integers(1, 4)),
        min_size=1, max_size=4, unique=True,
    ))
    pages = [(offset, limit, draw(st.integers(1, 3)))
             for offset, limit in slices]
    return sorted(pages, key=lambda page: (
        page[1] is None, page[0] + (page[1] or 0), page[0],
    ))


def drive_sorted_query(seeds, ops, limit, offset, slack):
    """The sorting stage's oracle for one sorted query (a one-page
    core); see :func:`drive_sorted_pages`."""
    return drive_sorted_pages(seeds, ops, [(offset, limit, slack)])


def drive_sorted_pages(seeds, ops, pages):
    """The sorting stage's oracle: pages of one sort core, checked per
    operation.

    *pages* are ``(offset, limit, slack)`` slices of one filter + sort,
    shallowest first; the first is attached up front.  Feeds a filtering
    node + sorting node pipeline, renewing a page on its maintenance
    error.  Besides writes, "replay" and "reregister" (see
    ``sorted_operations``), ops may attach the next unattached page
    ("attach"), detach an attached one ("detach") or renew one with one
    more slack item ("renew"), as a client does.  After EVERY operation
    it checks the paper's contract two ways per attached page against a
    recomputation from the test's own document dict:

    * the node's visible window equals the recomputed window;
    * a real :class:`RealTimeSubscription` that got the initial result
      and from then on only the emitted changes (after a maintenance
      error or a deactivation: the delta ``register_query`` returns for
      the fresh bootstrap) materializes that same window through the
      client's own ``changeIndex`` application.

    Returns the sorting node.
    """
    queries = [
        Query({"tag": {"$lte": 1}}, sort=[("v", -1)], limit=limit,
              offset=offset)
        for offset, limit, _ in pages
    ]
    assert len({query.core_id for query in queries}) == 1
    slacks = {query.query_id: slack
              for query, (_, _, slack) in zip(queries, pages)}
    sort = queries[0].sort
    filtering = FilteringNode(NodeCoordinates(0, 0))
    sorting = SortingNode()
    current: Dict[Any, Dict[str, Any]] = {
        key: {"_id": key, "v": value, "tag": value % 3}
        for key, value in enumerate(seeds)
    }
    latest_version: Dict[Any, int] = {key: 1 for key in current}
    history: Dict[Any, List[MatchEvent]] = {}
    #: Attached pages: query id -> (query, its subscription).
    attached: Dict[str, Any] = {}
    seen: Set[str] = set()

    def matching() -> List[Dict[str, Any]]:
        return sorted(
            (doc for doc in current.values() if doc["tag"] <= 1),
            key=sort.key,
        )

    def deliver(changes) -> List[str]:
        """Deliver each change to its page; the pages that failed."""
        for change in changes:
            subscription = attached[change.query_id][1]
            subscription._deliver(
                bind_to_subscription(subscription.subscription_id, *change)
            )
        return [change.query_id for change in changes if change.is_error]

    def bootstrap(query) -> None:
        slack = slacks[query.query_id]
        ordered = matching()[: query.rewritten_for_subscription(slack).limit]
        versions = {doc["_id"]: latest_version[doc["_id"]] for doc in ordered}
        filtering.register_query(query, ordered, versions, now=0.0)
        # A page the node never saw (a detached one keeps its last
        # window there, and gets the delta from it).
        first_attach = query.query_id not in seen
        seen.add(query.query_id)
        if query.query_id not in attached:
            subscription = RealTimeSubscription(
                f"sub-{query.query_id}", query
            )
            attached[query.query_id] = (query, subscription)
            subscription._deliver_initial(InitialResult(
                subscription.subscription_id, query.query_id,
                documents=ordered[query.offset:][:query.limit],
            ))
        changes = sorting.register_query(query, ordered, versions,
                                         slack=slack)
        # The core agrees with a bootstrap read after every write it
        # saw: merging it changes no other page, and a first attach
        # needs no delta on top of its initial result.
        assert all(change.query_id == query.query_id for change in changes)
        assert not (first_attach and changes)
        assert not deliver(changes)

    def write(kind, key, value) -> List[MatchEvent]:
        if kind == "delete":
            if key not in current:
                return []
            del current[key]
            document = None
        else:
            document = {"_id": key, "v": value, "tag": value % 3}
            current[key] = document
        latest_version[key] = latest_version.get(key, 0) + 1
        write_kind = {"insert": WriteKind.INSERT, "update": WriteKind.UPDATE,
                      "delete": WriteKind.DELETE}[kind]
        events = filtering.process_write(
            AfterImage(key, latest_version[key], write_kind, document),
            now=0.0,
        )
        for event in events:
            history.setdefault(event.key, []).append(event)
        return events

    def handle(events, missing=None) -> None:
        """Feed events to the sorting node; renew the pages that fail.
        *missing* is a deactivated page, which must hear nothing."""
        failed: List[str] = []
        for event in events:
            changes = sorting.handle_event(event)
            assert all(change.query_id != missing for change in changes)
            failed += deliver(changes)
        for query_id in failed:
            bootstrap(attached[query_id][0])

    def check() -> None:
        for query, subscription in attached.values():
            expected = matching()[query.offset:][:query.limit]
            state = sorting.state_of(query.query_id)
            assert state is not None
            assert [document for _, document in state.visible()] == expected
            assert subscription.result() == expected

    def pick(value):
        """An attached page's query, chosen by *value*."""
        pages = list(attached.values())
        return pages[value % len(pages)][0] if pages else None

    bootstrap(queries[0])
    check()
    for kind, key, value in ops:
        query = pick(value)
        if kind == "attach":
            unattached = [candidate for candidate in queries
                          if candidate.query_id not in attached]
            if unattached:
                bootstrap(unattached[0])
        elif kind == "detach" and query is not None:
            assert filtering.deactivate_query(query.query_id)
            assert sorting.deactivate_query(query.query_id)
            del attached[query.query_id]
        elif kind == "renew" and query is not None:
            slacks[query.query_id] += 1
            bootstrap(query)
        elif kind == "reregister" and query is not None:
            assert sorting.deactivate_query(query.query_id)
            assert sorting.state_of(query.query_id) is None
            # The deactivated page emits nothing for the writes it
            # misses; the delta of the next register_query closes the
            # gap from the window kept at deactivation.
            for missed in range(1 + value % 3):
                handle(write("update", (key + 5 * missed) % len(SORTED_KEYS),
                             (value + 11 * missed) % 31),
                       missing=query.query_id)
            bootstrap(query)
        elif kind == "replay":
            # A re-delivery is a no-op only while the core holds the
            # key's newer entry.  It must hold every key ranking inside
            # the deepest attached page's offset + limit of the
            # recomputation, so the test's own model (not the node's
            # state) licenses the replay.
            ends = [q.offset + q.limit if q.limit is not None else None
                    for q, _ in attached.values()]
            held = matching()
            if None not in ends:
                held = held[: max(ends, default=0)]
            if key in history and current.get(key) in held:
                handle([history[key][value % len(history[key])]])
        elif kind in ("insert", "update", "delete"):
            handle(write(kind, key, value))
        check()
    return sorting


class TestSortingStageInvariant:
    @given(sorted_seeds, sorted_operations, st.integers(1, 5),
           st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_visible_window_equals_recomputation(self, seeds, ops, limit,
                                                 offset, slack):
        drive_sorted_query(seeds, ops, limit, offset, slack)

    @given(sorted_seeds, page_operations, core_pages())
    @settings(max_examples=200, deadline=None)
    def test_every_page_of_a_core_equals_recomputation(self, seeds, ops,
                                                       pages):
        drive_sorted_pages(seeds, ops, pages)

    @given(sorted_seeds, sorted_operations)
    @settings(max_examples=60, deadline=None)
    def test_unlimited_sorted_query_tracks_full_order(self, seeds, ops):
        node = drive_sorted_query(seeds, ops, limit=None, offset=0, slack=1)
        # Without a limit there is no slack to exhaust.
        assert node.renewals_requested == 0

    def test_renewal_delta_spanning_several_writes_converges(self):
        """Regression: ``SortingNode._diff`` emitted changeIndex only
        for survivors whose own index moved, leaving an unmoved
        survivor displaced in the client's list."""
        query = Query({}, sort=[("v", -1)])
        before = [{"_id": "a", "v": 4}, {"_id": "b", "v": 3},
                  {"_id": "c", "v": 2}, {"_id": "d", "v": 1}]
        # While the query is deactivated: c rises to the top, a drops to
        # the bottom; b keeps index 1 and d moves 3 -> 2.
        after = [{"_id": "c", "v": 5}, {"_id": "b", "v": 3},
                 {"_id": "d", "v": 1}, {"_id": "a", "v": 0}]
        node = SortingNode()
        node.register_query(query, before, {}, slack=1)
        subscription = RealTimeSubscription("sub-oracle", query)
        subscription._deliver_initial(
            InitialResult("sub-oracle", query.query_id, documents=before)
        )
        node.deactivate_query(query.query_id)
        for change in node.register_query(query, after, {}, slack=1):
            subscription._deliver(bind_to_subscription("sub-oracle", *change))
        assert subscription.result() == after


# -- the one window differ ------------------------------------------------------

POOL = list("abcdefgh")


@st.composite
def window_pairs(draw):
    """Two ordered windows over a shared key pool: the second is an
    arbitrary permutation of an arbitrary subset, so pairs cover moves,
    adds, removes and (``rev`` differs) changed documents in any mix —
    not only the pairs a single sort order can produce."""
    def window():
        keys = draw(st.permutations(POOL))[: draw(st.integers(0, len(POOL)))]
        return [(key, {"_id": key, "rev": draw(st.integers(0, 2))})
                for key in keys]
    return window(), window()


class TestWindowDiffer:
    @given(window_pairs(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_replayed_delta_converges_on_the_second_window(self, pair,
                                                           positional):
        """The differ's whole contract, checked through the client's
        own materialization: a subscription holding *before* that is
        delivered ``diff_windows(before, after)`` holds *after*."""
        before, after = pair
        query = Query({}, sort=[("rev", 1)] if positional else None)
        assert query.is_sorted is positional
        subscription = RealTimeSubscription("sub-differ", query)
        subscription._deliver_initial(InitialResult(
            "sub-differ", query.query_id,
            documents=[document for _, document in before],
        ))
        changes = diff_windows(query.query_id, before, after,
                               positional=positional, timestamp=1.0)
        for change in changes:
            subscription._deliver(bind_to_subscription("sub-differ", *change))
        expected = [document for _, document in after]
        if positional:
            assert subscription.result() == expected
        else:
            # An unsorted result has no positions to converge on:
            # membership and content only, and nothing positional on
            # the wire.
            def by_key(documents):
                return sorted(documents, key=lambda doc: doc["_id"])
            assert by_key(subscription.result()) == by_key(expected)
            assert all(
                change.match_type is not MatchType.CHANGE_INDEX
                and change.index is None and change.old_index is None
                for change in changes
            )
        # Nothing spurious: equal windows need no delta.
        if before == after:
            assert changes == []
