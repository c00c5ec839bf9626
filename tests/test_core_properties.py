"""Property-based tests of InvaliDB's core maintenance invariants.

The central correctness property of the whole system: for ANY sequence
of writes, the incrementally maintained result of the filtering stage
(and, for sorted queries, of the sorting stage) equals the result of
re-executing the query from scratch over the final database state.
Driven deterministically (no threads) so hypothesis shrinking works.
"""

from typing import Any, Dict, List

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


def drive_sorted_query(seeds, ops, limit, offset, slack):
    """The sorting stage's oracle: one sorted query, checked per write.

    Feeds a filtering node + sorting node pipeline, renewing on
    maintenance errors.  After EVERY operation it checks the paper's
    contract two ways against a recomputation from the test's own
    document dict:

    * the node's visible window equals the recomputed window;
    * a real :class:`RealTimeSubscription` that got the initial result
      and from then on only the emitted changes (after a maintenance
      error or a deactivation: the delta ``register_query`` returns for
      the fresh bootstrap) materializes that same window through the
      client's own ``changeIndex`` application.

    Returns the sorting node.
    """
    query = Query({"tag": {"$lte": 1}}, sort=[("v", -1)], limit=limit,
                  offset=offset)
    filtering = FilteringNode(NodeCoordinates(0, 0))
    sorting = SortingNode()
    current: Dict[Any, Dict[str, Any]] = {
        key: {"_id": key, "v": value, "tag": value % 3}
        for key, value in enumerate(seeds)
    }
    latest_version: Dict[Any, int] = {key: 1 for key in current}
    history: Dict[Any, List[MatchEvent]] = {}
    subscription = RealTimeSubscription("sub-oracle", query)

    def matching() -> List[Dict[str, Any]]:
        return sorted(
            (doc for doc in current.values() if doc["tag"] <= 1),
            key=query.sort.key,
        )

    def deliver(changes) -> bool:
        for change in changes:
            subscription._deliver(
                bind_to_subscription(change, subscription.subscription_id)
            )
        return any(change.is_error for change in changes)

    def bootstrap() -> None:
        ordered = matching()[: query.rewritten_for_subscription(slack).limit]
        versions = {doc["_id"]: latest_version[doc["_id"]] for doc in ordered}
        filtering.register_query(query, ordered, versions, now=0.0)
        assert not deliver(
            sorting.register_query(query, ordered, versions, slack=slack)
        )

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

    def check() -> None:
        expected = matching()[offset:]
        if limit is not None:
            expected = expected[:limit]
        state = sorting.state_of(query.query_id)
        assert state is not None
        assert [document for _, document in state.visible()] == expected
        assert subscription.result() == expected

    bootstrap()
    subscription._deliver_initial(InitialResult(
        subscription.subscription_id, query.query_id,
        documents=[document for _, document in
                   sorting.state_of(query.query_id).visible()],
    ))
    check()
    for kind, key, value in ops:
        if kind == "reregister":
            assert sorting.deactivate_query(query.query_id)
            assert sorting.state_of(query.query_id) is None
            # The deactivated query emits nothing for the writes it
            # misses; the delta of the next register_query closes the
            # gap from the window kept at deactivation.
            for missed in range(1 + value % 3):
                for event in write("update",
                                   (key + 5 * missed) % len(SORTED_KEYS),
                                   (value + 11 * missed) % 31):
                    assert sorting.handle_event(event) == []
            bootstrap()
            check()
            continue
        if kind == "replay":
            # A re-delivery is a no-op only while the node holds the
            # key's newer entry.  It must hold every key ranking inside
            # offset + limit of the recomputation, so the test's own
            # model (not the node's state) licenses the replay.
            held = matching()
            if limit is not None:
                held = held[: offset + limit]
            if key not in history or current.get(key) not in held:
                continue
            events = [history[key][value % len(history[key])]]
        else:
            events = write(kind, key, value)
        renew = False
        for event in events:
            renew |= deliver(sorting.handle_event(event))
        if renew:
            bootstrap()
        check()
    return sorting


class TestSortingStageInvariant:
    @given(sorted_seeds, sorted_operations, st.integers(1, 5),
           st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_visible_window_equals_recomputation(self, seeds, ops, limit,
                                                 offset, slack):
        drive_sorted_query(seeds, ops, limit, offset, slack)

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
            subscription._deliver(bind_to_subscription(change, "sub-oracle"))
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
            subscription._deliver(bind_to_subscription(change, "sub-differ"))
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
