"""NaN is decided once, for the push side and the pull side alike.

``compare_values`` used to compute ``(a > b) - (a < b)``, which is 0 for
NaN against anything: a stored NaN *equalled* every number (``{"a": 5}``
matched it, ``$ne: 5`` did not), the comparator was not a total order,
and a sorted subscription and the pull query over the same data then
disagreed.  The rule now, everywhere:

* ordering (``compare_values``, sort keys, sorted windows, ``find``):
  NaN sorts below every other number and equals only NaN;
* matching: ``$gt/$gte/$lt/$lte`` never match NaN against a number;
  ``$eq``/``$in``/``$gte``/``$lte`` match NaN only against a NaN
  operand; ``$ne``/``$nin`` follow.

The defect's cases fail on the parent commit (19 of this module's 33);
the others pin the rest of the rule.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.query.matcher import matches
from repro.query.sortspec import compare_values, value_sort_key
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.store.collection import Collection

from tests.conftest import settle

NAN = float("nan")

numbers = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.just(NAN),
)


class TestOrdering:
    def test_nan_sorts_below_every_number_and_equals_only_nan(self):
        for other in (-math.inf, -1, 0, 0.0, 2.5, 10**30, math.inf):
            assert compare_values(NAN, other) == -1
            assert compare_values(other, NAN) == 1
        assert compare_values(NAN, float("nan")) == 0
        # Type brackets are untouched: null < numbers (NaN included) < strings.
        assert compare_values(None, NAN) == -1
        assert compare_values(NAN, "") == -1

    @settings(max_examples=200, deadline=None)
    @given(a=numbers, b=numbers, c=numbers)
    def test_the_comparator_is_a_total_order(self, a, b, c):
        assert compare_values(a, b) == -compare_values(b, a)
        if compare_values(a, b) <= 0 and compare_values(b, c) <= 0:
            assert compare_values(a, c) <= 0
        if compare_values(a, b) == 0:
            assert compare_values(a, c) == compare_values(b, c)

    def test_every_insertion_order_sorts_the_same(self):
        values = [3, NAN, 1, 2, NAN, 0]
        for permutation in itertools.permutations(values):
            ordered = sorted(permutation, key=value_sort_key)
            assert all(math.isnan(value) for value in ordered[:2])
            assert ordered[2:] == [0, 1, 2, 3]


class TestMatching:
    @pytest.mark.parametrize("filter_doc, expected", [
        # the five cases of the defect
        ({"a": 5}, False),
        ({"a": {"$in": [1, 2]}}, False),
        ({"a": {"$gte": 5}}, False),
        ({"a": {"$lte": 5}}, False),
        ({"a": {"$ne": 5}}, True),
        # the rest of the rule
        ({"a": {"$gt": 5}}, False),
        ({"a": {"$lt": 5}}, False),
        ({"a": {"$lt": math.inf}}, False),
        ({"a": {"$nin": [1, 2]}}, True),
        ({"a": NAN}, True),
        ({"a": {"$in": [1, NAN]}}, True),
        ({"a": {"$gte": NAN}}, True),
        ({"a": {"$lte": NAN}}, True),
        ({"a": {"$gt": NAN}}, False),
        ({"a": {"$lt": NAN}}, False),
        ({"a": {"$ne": NAN}}, False),
        ({"a": {"$all": [NAN]}}, True),
        ({"a": {"$type": "double"}}, True),
    ])
    def test_a_stored_nan(self, filter_doc, expected):
        assert matches({"a": NAN}, filter_doc) is expected

    def test_a_nan_element_neither_matches_nor_masks_its_siblings(self):
        document = {"a": [7, NAN]}
        assert matches(document, {"a": {"$gte": 5}})       # by the 7
        assert not matches(document, {"a": {"$lt": 5}})    # NaN is not < 5
        assert matches(document, {"a": NAN})               # by the NaN
        assert not matches(document, {"a": {"$ne": 7}})
        assert matches(document, {"a": {"$ne": 5}})

    @pytest.mark.parametrize("operator", ["$gt", "$gte", "$lt", "$lte", "$eq"])
    def test_a_nan_operand_matches_no_number(self, operator):
        for value in (-math.inf, -1, 0, 2.5, math.inf):
            assert not matches({"a": value}, {"a": {operator: NAN}})


class TestPullSide:
    DOCS = [{"_id": i, "a": a} for i, a in enumerate([3, NAN, 1, 2, NAN, 0])]

    @pytest.mark.parametrize("index_kind", [None, "hash", "ordered"])
    def test_find_agrees_with_and_without_indexes(self, index_kind):
        collection = Collection("items")
        for document in self.DOCS:
            collection.insert(document)
        if index_kind is not None:
            collection.ensure_index("a", index_kind)

        def ids(filter_doc):
            return sorted(d["_id"] for d in collection.find(filter_doc))

        assert ids({"a": NAN}) == [1, 4]
        assert ids({"a": {"$in": [0, NAN]}}) == [1, 4, 5]
        assert ids({"a": 1}) == [2]
        assert ids({"a": {"$gte": 1}}) == [0, 2, 3]
        assert ids({"a": {"$lt": 2}}) == [2, 5]
        assert ids({"a": {"$lte": NAN}}) == [1, 4]
        assert ids({"a": {"$ne": 3}}) == [1, 2, 3, 4, 5]

    def test_find_sorts_nan_first_ascending_last_descending(self):
        collection = Collection("items")
        for document in self.DOCS:
            collection.insert(document)
        ascending = [d["_id"] for d in collection.find({}, sort=[("a", 1)])]
        descending = [d["_id"] for d in collection.find({}, sort=[("a", -1)])]
        assert ascending == [1, 4, 5, 2, 3, 0]
        assert descending == [0, 3, 2, 5, 1, 4]


def _inline_stack():
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=7))
    broker = Broker(execution=model)
    return broker, model.shutdown


def _threaded_stack():
    return Broker(), lambda: None


@pytest.mark.parametrize("stack", [_inline_stack, _threaded_stack],
                         ids=["inline", "threaded"])
def test_sorted_subscription_with_nan_equals_the_pull_query(stack):
    """The reproduction from the issue: ``{}`` sorted by ``a`` ascending,
    limit 3, on an empty collection, then ``a`` = 3, NaN, 1, 2, NaN, 0.
    The parent's window held ``[3, NaN, 0]`` while ``find`` returned
    ``[3, NaN, 1]`` — neither sorted."""
    broker, shutdown = stack()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            retention_seconds=3600.0)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("nan-app", broker, config=config)
    try:
        ascending = app.subscribe("items", {}, sort=[("a", 1)], limit=3)
        descending = app.subscribe("items", {}, sort=[("a", -1)], limit=3,
                                   offset=1)
        ranged = app.subscribe("items", {"a": {"$gte": 1}})
        settle(cluster, broker)
        for key, a in enumerate([3, NAN, 1, 2, NAN, 0]):
            app.insert("items", {"_id": key, "a": a})
        settle(cluster, broker, rounds=5)

        def ids(documents):
            return [document["_id"] for document in documents]

        assert ids(ascending.result()) == ids(
            app.find("items", {}, sort=[("a", 1)], limit=3)) == [1, 4, 5]
        assert ids(descending.result()) == ids(
            app.find("items", {}, sort=[("a", -1)], skip=1, limit=3)
        ) == [3, 2, 5]
        assert sorted(ids(ranged.result())) == sorted(ids(
            app.find("items", {"a": {"$gte": 1}}))) == [0, 2, 3]
        assert not ascending.errors and not descending.errors
    finally:
        app.close()
        cluster.stop()
        broker.close()
        shutdown()
