"""Indexed-vs-naive equivalence: the property test behind the index.

Two :class:`FilteringNode` instances — one with the predicate index,
one scanning every query — are driven with the SAME
randomized sequence of query registrations, deactivations, writes and
deletes (including mid-stream subscriptions that exercise retention
replay).  The indexed node must produce the *identical* MatchEvent
stream: same events, same order, after every single operation.  Any
divergence is a lost or spurious notification.

The query pool deliberately mixes indexable shapes (equalities, $in,
one- and two-sided ranges, all-indexable $or, nested paths, arrays)
with residual ones (negations, $exists, the empty filter) and
unsatisfiable access predicates, plus a foreign-collection query.
"""

from typing import Any, Dict

from hypothesis import given, settings, strategies as st

from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.query.engine import MongoQueryEngine, Query
from repro.types import AfterImage, WriteKind

KEYS = list(range(6))

QUERY_POOL = [
    Query({"v": {"$gte": 10, "$lt": 20}}),
    Query({"v": 5}),
    Query({"tag": {"$in": [0, 2]}}),
    Query({"v": {"$ne": 7}}),
    Query({}),
    Query({"$or": [{"v": 3}, {"v": {"$gt": 25}}]}),
    Query({"nested.x": {"$lte": 1}}),
    Query({"arr": {"$gte": 12, "$lt": 14}}),
    Query({"v": {"$exists": True}}),
    Query({"v": {"$gt": 8}}),
    Query({"v": 1}, collection="other"),
    Query({"tag": {"$in": []}}),
    Query({"v": {"$gte": 20, "$lt": 10}}),
]

write_op = st.tuples(
    st.just("write"),
    st.sampled_from(["insert", "update", "delete"]),
    st.sampled_from(KEYS),
    st.integers(min_value=0, max_value=30),
)
register_op = st.tuples(
    st.just("register"), st.integers(0, len(QUERY_POOL) - 1)
)
deactivate_op = st.tuples(
    st.just("deactivate"), st.integers(0, len(QUERY_POOL) - 1)
)

operations = st.lists(
    st.one_of(write_op, register_op, deactivate_op),
    min_size=0,
    max_size=50,
)


def make_document(key: Any, value: int) -> Dict[str, Any]:
    return {
        "_id": key,
        "v": value,
        "tag": value % 3,
        "nested": {"x": value % 4},
        "arr": [value, value + 5],
    }


class Driver:
    """Replays one op sequence against an indexed and a naive node."""

    def __init__(self) -> None:
        self.indexed = FilteringNode(NodeCoordinates(0, 0), use_index=True)
        self.naive = FilteringNode(NodeCoordinates(0, 0), use_index=False)
        self.engine = MongoQueryEngine()
        self.versions: Dict[Any, int] = {key: 0 for key in KEYS}
        self.alive: Dict[Any, Dict[str, Any]] = {}

    def apply(self, op) -> None:
        if op[0] == "write":
            self._write(*op[1:])
        elif op[0] == "register":
            self._register(QUERY_POOL[op[1]])
        else:
            self._deactivate(QUERY_POOL[op[1]])

    def _write(self, kind: str, key: Any, value: int) -> None:
        if kind == "delete":
            if key not in self.alive:
                return
            del self.alive[key]
            self.versions[key] += 1
            image = AfterImage(key, self.versions[key], WriteKind.DELETE,
                               None)
        else:
            self.versions[key] += 1
            document = make_document(key, value)
            self.alive[key] = document
            write_kind = (WriteKind.INSERT if kind == "insert"
                          else WriteKind.UPDATE)
            image = AfterImage(key, self.versions[key], write_kind, document)
        got = self.indexed.process_write(image, now=0.0)
        expected = self.naive.process_write(image, now=0.0)
        assert got == expected, (image, got, expected)

    def _register(self, query: Query) -> None:
        # The pull-based bootstrap reflects the current database state;
        # retained after-images replay on registration in both nodes.
        bootstrap = [
            document for document in self.alive.values()
            if query.collection == "default"
            and self.engine.matches(query, document)
        ]
        versions = {doc["_id"]: self.versions[doc["_id"]]
                    for doc in bootstrap}
        got = self.indexed.register_query(query, bootstrap, versions,
                                          now=0.0)
        expected = self.naive.register_query(query, bootstrap, versions,
                                             now=0.0)
        assert got == expected, (query.filter_doc, got, expected)

    def _deactivate(self, query: Query) -> None:
        got = self.indexed.deactivate_query(query.query_id)
        expected = self.naive.deactivate_query(query.query_id)
        assert got == expected

    def check_final_state(self) -> None:
        assert (self.indexed.active_queries()
                == self.naive.active_queries())
        for query_id in self.naive.active_queries():
            got = self.indexed.result_partition(query_id)
            expected = self.naive.result_partition(query_id)
            assert sorted(got, key=lambda d: str(d["_id"])) == sorted(
                expected, key=lambda d: str(d["_id"])
            ), query_id


class TestEventStreamEquivalence:
    @given(operations)
    @settings(max_examples=150, deadline=None)
    def test_indexed_equals_naive_after_every_operation(self, ops):
        driver = Driver()
        for op in ops:
            driver.apply(op)
        driver.check_final_state()

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_indexed_never_does_more_match_work(self, ops):
        """Pruning must only ever SKIP evaluations, never add them."""
        driver = Driver()
        for op in ops:
            driver.apply(op)
        assert (driver.indexed.matched_operations
                <= driver.naive.matched_operations)

    @given(operations, st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_mid_stream_subscription_replay_is_equivalent(self, ops, split):
        """Register EVERY pool query midway with an empty bootstrap: the
        retention buffer replays the pre-subscription writes, and the
        replayed event streams must agree too."""
        driver = Driver()
        writes = [op for op in ops if op[0] == "write"]
        split = min(split, len(writes))
        for op in writes[:split]:
            driver.apply(op)
        for query in QUERY_POOL:
            got = driver.indexed.register_query(query, [], {}, now=0.0)
            expected = driver.naive.register_query(query, [], {}, now=0.0)
            assert got == expected, query.filter_doc
        for op in writes[split:]:
            driver.apply(op)
        driver.check_final_state()


class TestMaintainedResultMatchesRecomputation:
    """Indexed maintenance equals from-scratch re-execution (the core
    invariant of test_core_properties, now under candidate pruning)."""

    @given(operations)
    @settings(max_examples=80, deadline=None)
    def test_partitions_equal_recomputation(self, ops):
        driver = Driver()
        for query in QUERY_POOL:
            driver.apply(("register", QUERY_POOL.index(query)))
        for op in ops:
            if op[0] == "write":
                driver.apply(op)
        engine = MongoQueryEngine()
        for query in QUERY_POOL:
            if query.collection != "default":
                continue
            maintained = {
                doc["_id"]
                for doc in driver.indexed.result_partition(query.query_id)
            }
            expected = {
                key for key, doc in driver.alive.items()
                if engine.matches(query, doc)
            }
            assert maintained == expected, query.filter_doc


def test_retention_window_expiry_is_equivalent():
    """Writes outside the retention window replay on neither node."""
    indexed = FilteringNode(NodeCoordinates(0, 0), retention_seconds=1.0,
                            use_index=True)
    naive = FilteringNode(NodeCoordinates(0, 0), retention_seconds=1.0,
                          use_index=False)
    image = AfterImage(1, 1, WriteKind.INSERT, make_document(1, 15))
    indexed.process_write(image, now=0.0)
    naive.process_write(image, now=0.0)
    query = Query({"v": {"$gte": 10, "$lt": 20}})
    assert (indexed.register_query(query, [], {}, now=60.0)
            == naive.register_query(query, [], {}, now=60.0)
            == [])


def test_duplicate_events_ordering_matches_naive_exactly():
    """Candidate sets are evaluated in registration order, so multi-query
    hits produce events in exactly the naive (scan) order."""
    indexed = FilteringNode(NodeCoordinates(0, 0), use_index=True)
    naive = FilteringNode(NodeCoordinates(0, 0), use_index=False)
    queries = [
        Query({"v": {"$gte": 0}}),
        Query({"v": {"$lt": 100}}),
        Query({"v": {"$gte": 10, "$lt": 20}}),
        Query({"v": 15}),
        Query({}),
    ]
    for node in (indexed, naive):
        for query in queries:
            node.register_query(query, [], {}, now=0.0)
    image = AfterImage(1, 1, WriteKind.INSERT, {"_id": 1, "v": 15})
    got = indexed.process_write(image, now=0.0)
    expected = naive.process_write(image, now=0.0)
    assert [e.query_id for e in got] == [e.query_id for e in expected]
    assert len(got) == 5
