"""Spatio-textual access-path equivalence: indexed vs naive streams.

The spatial grid and inverted token index are pure pruning layers: a
filtering node with them on must produce the byte-identical MatchEvent
stream a naive scan-everything node produces, for every operation.  Any
divergence is a lost (false-negative pruning) or spurious notification.

* node level — a hypothesis-driven op sequence (registrations,
  deactivations, writes, deletes, mid-stream subscriptions with
  retained-write replay) over a query pool mixing geo boxes, polygons,
  planar and spherical circles, bounded and unbounded ``$nearSphere``,
  positive/negated/phrase ``$text`` searches and array-of-points paths
  — against documents with in-range points, out-of-range coordinates,
  non-point junk and rotating text payloads;
* cluster level — converged results under the process model, with the
  access paths populated in the worker-hosted cells.

The access paths are not switchable: the node-level scan
(``FilteringNode(use_index=False)``) is the reference they are held to.
"""

from __future__ import annotations

from typing import Any, Dict

from hypothesis import given, settings, strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.query.engine import MongoQueryEngine, Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import AfterImage, WriteKind

from tests.conftest import settle

KEYS = list(range(6))

QUERY_POOL = [
    # Spatial shapes, each with a distinct covering geometry.
    Query({"loc": {"$geoWithin": {"$box": [[-10, -10], [10, 10]]}}}),
    Query({"loc": {"$geoWithin": {"$polygon": [
        [0, 0], [40, 0], [40, 40], [0, 40]]}}}),
    Query({"loc": {"$geoWithin": {"$center": [[50, 50], 15]}}}),
    Query({"loc": {"$geoWithin": {"$centerSphere": [[9.99, 53.55], 0.05]}}}),
    Query({"loc": {"$nearSphere": {
        "$geometry": {"type": "Point", "coordinates": [13.4, 52.52]},
        "$maxDistance": 800_000,
    }}}),
    # Unbounded distance filter: a broad entry (no covering cells).
    Query({"loc": {"$nearSphere": {
        "$geometry": {"type": "Point", "coordinates": [0, 0]},
    }}}),
    # Antimeridian-hugging box: exercises the wrap seam.
    Query({"loc": {"$geoWithin": {"$box": [[170, -20], [180, 20]]}}}),
    # Array-of-points path.
    Query({"pts": {"$geoWithin": {"$box": [[-5, -5], [5, 5]]}}}),
    # Text: positive terms, negation, phrase-only (residual).
    Query({"$text": {"$search": "alpha beta"}}),
    Query({"$text": {"$search": "gamma -alpha"}}),
    Query({"$text": {"$search": '"alpha beta"'}}),
    # Conjunction of an indexable range and a geo predicate.
    Query({"$and": [
        {"v": {"$gte": 5}},
        {"loc": {"$geoWithin": {"$box": [[-90, -45], [90, 45]]}}},
    ]}),
    # Plain scalar predicates ride along.
    Query({"v": {"$gte": 10, "$lt": 20}}),
    Query({}),
]

write_op = st.tuples(
    st.just("write"),
    st.sampled_from(["insert", "update", "delete"]),
    st.sampled_from(KEYS),
    st.integers(min_value=0, max_value=60),
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

NOTES = [
    "alpha beta", "gamma delta", "alpha gamma", "delta",
    "beta", "", "alpha beta gamma",
]


def make_document(key: Any, value: int) -> Dict[str, Any]:
    """A moving object: position, point trail and text derived from the
    write value — including degenerate cases the index must survive."""
    lon = (value * 37.0) % 360.0 - 180.0
    lat = (value * 17.0) % 170.0 - 85.0
    if value % 11 == 0:
        loc: Any = "not-a-point"          # non-point junk at the path
    elif value % 13 == 0:
        loc = [lon, 120.0]                # out-of-range latitude
    else:
        loc = [lon, lat]
    return {
        "_id": key,
        "v": value,
        "loc": loc,
        "pts": [[lon / 2.0, lat / 2.0], [lon, lat]],
        "note": NOTES[value % len(NOTES)],
    }


class Driver:
    """Replays one op sequence against an indexed and a naive node."""

    def __init__(self) -> None:
        self.indexed = FilteringNode(
            NodeCoordinates(0, 0), use_index=True, spatial_grid_cells=16,
        )
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
        bootstrap = [
            document for document in self.alive.values()
            if self.engine.matches(query, document)
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
    @settings(max_examples=120, deadline=None)
    def test_indexed_equals_naive_after_every_operation(self, ops):
        driver = Driver()
        for op in ops:
            driver.apply(op)
        driver.check_final_state()

    @given(operations)
    @settings(max_examples=50, deadline=None)
    def test_indexed_never_does_more_match_work(self, ops):
        """Pruning must only ever SKIP evaluations, never add them."""
        driver = Driver()
        for op in ops:
            driver.apply(op)
        assert (driver.indexed.matched_operations
                <= driver.naive.matched_operations)

    @given(operations, st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
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


class TestCoarseGridEquivalence:
    """Grid resolution only changes pruning power, never the stream —
    down to a degenerate 1x1 grid where every point shares one cell."""

    @given(operations, st.sampled_from([1, 2, 4, 64]))
    @settings(max_examples=40, deadline=None)
    def test_any_resolution_matches_naive(self, ops, cells):
        indexed = FilteringNode(
            NodeCoordinates(0, 0), use_index=True,
            spatial_grid_cells=cells,
        )
        naive = FilteringNode(NodeCoordinates(0, 0), use_index=False)
        for query in QUERY_POOL:
            assert (indexed.register_query(query, [], {}, now=0.0)
                    == naive.register_query(query, [], {}, now=0.0))
        versions: Dict[Any, int] = {key: 0 for key in KEYS}
        alive: Dict[Any, Any] = {}
        for op in ops:
            if op[0] != "write":
                continue
            _, kind, key, value = op
            if kind == "delete":
                if key not in alive:
                    continue
                del alive[key]
                versions[key] += 1
                image = AfterImage(key, versions[key], WriteKind.DELETE,
                                   None)
            else:
                versions[key] += 1
                document = make_document(key, value)
                alive[key] = document
                write_kind = (WriteKind.INSERT if kind == "insert"
                              else WriteKind.UPDATE)
                image = AfterImage(key, versions[key], write_kind,
                                   document)
            assert (indexed.process_write(image, now=0.0)
                    == naive.process_write(image, now=0.0)), (cells, image)


# ----------------------------------------------------------------------
# Cluster level: pushed results converge to the pull query
# ----------------------------------------------------------------------

cluster_operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=20,
)


def _apply_cluster_op(app, live, key, op, value):
    document = make_document(key, value)
    if op == "insert":
        if key in live:
            app.update("items", key, {"$set": {
                "v": value, "loc": document["loc"],
                "pts": document["pts"], "note": document["note"],
            }})
        else:
            app.insert("items", document)
            live.add(key)
    elif op == "update":
        if key in live:
            app.update("items", key, {"$set": {
                "v": value, "loc": document["loc"],
                "pts": document["pts"], "note": document["note"],
            }})
    elif op == "delete":
        if key in live:
            app.delete("items", key)
            live.discard(key)


CLUSTER_FILTERS = {
    "box": {"loc": {"$geoWithin": {"$box": [[-60, -60], [60, 60]]}}},
    "near": {"loc": {"$nearSphere": {
        "$geometry": {"type": "Point", "coordinates": [0, 0]},
        "$maxDistance": 4_000_000,
    }}},
    "text": {"$text": {"$search": "alpha -delta"}},
}


def _run_inline_cluster(ops):
    """Half the ops, subscribe every filter, the other half; returns
    each subscription's materialized ids next to a fresh pull query's."""
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=13))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        query_partitions=1, write_partitions=1,
        retention_seconds=3600.0,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("st-equiv-app", broker, config=config)
    try:
        live = set()
        half = len(ops) // 2
        for key, op, value in ops[:half]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        subscriptions = {
            name: app.subscribe("items", filter_doc)
            for name, filter_doc in CLUSTER_FILTERS.items()
        }
        assert broker.drain()
        for key, op, value in ops[half:]:
            _apply_cluster_op(app, live, key, op, value)
        assert broker.drain()
        return {
            name: (
                sorted(d["_id"] for d in subscriptions[name].result()),
                sorted(d["_id"] for d in app.find("items", filter_doc)),
            )
            for name, filter_doc in CLUSTER_FILTERS.items()
        }
    finally:
        app.close()
        cluster.stop()
        broker.close()
        model.shutdown()


@settings(max_examples=10, deadline=None)
@given(ops=cluster_operations)
def test_inline_cluster_converges_to_pull_results(ops):
    for name, (pushed, pulled) in _run_inline_cluster(ops).items():
        assert pushed == pulled, name


def test_process_cluster_converges_with_access_paths_on():
    """The forked-worker deployment indexes geo and text queries in its
    cells, and converged subscription results equal a fresh pull-based
    query."""
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
        retention_seconds=3600.0,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("st-app", broker, config=config)
    try:
        box = app.subscribe("items", {
            "loc": {"$geoWithin": {"$box": [[-60, -60], [60, 60]]}},
        })
        text = app.subscribe("items", {"$text": {"$search": "alpha"}})
        live = set()
        for i in range(24):
            _apply_cluster_op(app, live, i % 8,
                              "delete" if i % 7 == 0 else "insert",
                              i * 5 % 60)
        settle(cluster, broker, rounds=6)
        box_filter = {
            "loc": {"$geoWithin": {"$box": [[-60, -60], [60, 60]]}},
        }
        truth_box = {d["_id"] for d in app.find("items", box_filter)}
        truth_text = {d["_id"] for d in app.find(
            "items", {"$text": {"$search": "alpha"}})}
        assert {d["_id"] for d in box.result()} == truth_box
        assert {d["_id"] for d in text.result()} == truth_text
        paths = cluster.snapshot()["matching_totals"]["access_paths"]
        assert paths["spatial_entries"] > 0
        assert paths["text_entries"] > 0
    finally:
        app.close()
        cluster.stop()
        broker.close()
