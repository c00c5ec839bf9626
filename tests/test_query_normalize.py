"""Canonical query normalization and hashing tests.

The partitioning correctness of Section 5.1 rests on these properties:
the same logical query must always hash to the same value, regardless
of which app server formulated it or in which syntactic variant.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.query import engine as engine_module
from repro.query.engine import Query
from repro.store.collection import Collection
from repro.query.normalize import (
    canonical_query_form,
    normalize_filter,
    query_hash,
)


class TestNormalizationInvariance:
    def test_key_order_is_irrelevant(self):
        assert normalize_filter({"a": 1, "b": 2}) == normalize_filter(
            {"b": 2, "a": 1}
        )

    def test_explicit_eq_equals_shorthand(self):
        assert normalize_filter({"a": 1}) == normalize_filter({"a": {"$eq": 1}})

    def test_or_branch_order_is_irrelevant(self):
        left = normalize_filter({"$or": [{"a": 1}, {"b": 2}]})
        right = normalize_filter({"$or": [{"b": 2}, {"a": 1}]})
        assert left == right

    def test_and_branch_order_is_irrelevant(self):
        left = normalize_filter({"$and": [{"a": 1}, {"b": {"$gt": 2}}]})
        right = normalize_filter({"$and": [{"b": {"$gt": 2}}, {"a": 1}]})
        assert left == right

    def test_in_value_order_is_irrelevant(self):
        assert normalize_filter({"a": {"$in": [1, 2]}}) == normalize_filter(
            {"a": {"$in": [2, 1]}}
        )

    def test_different_filters_differ(self):
        assert normalize_filter({"a": 1}) != normalize_filter({"a": 2})
        assert normalize_filter({"a": 1}) != normalize_filter({"b": 1})
        assert normalize_filter({"a": {"$gt": 1}}) != normalize_filter(
            {"a": {"$gte": 1}}
        )

    def test_ne_and_nin_differ(self):
        assert normalize_filter({"a": {"$ne": 1}}) != normalize_filter(
            {"a": {"$nin": [1]}}
        )

    def test_or_reorderings_hash_identically(self):
        """Regression: branch ordering used to fall back to repr-sort,
        which is not a total order over canonical forms.  Every
        permutation of the same $or must produce one canonical form and
        one hash — the shared predicate DAG interns branches by this
        canonical identity."""
        branches = [
            {"a": {"$gte": 10}},
            {"b": {"$in": [3, 1, 2]}},
            {"$and": [{"c": 1}, {"d": {"$lt": 5}}]},
            {"e": {"$exists": True}},
        ]
        orders = [
            branches,
            branches[::-1],
            [branches[2], branches[0], branches[3], branches[1]],
        ]
        forms = {normalize_filter({"$or": order}) for order in orders}
        hashes = {query_hash({"$or": order}) for order in orders}
        assert len(forms) == 1
        assert len(hashes) == 1

    def test_mixed_type_branch_ordering_is_total(self):
        """Values whose reprs collide or interleave across types (bool
        vs int, int vs float, None, strings) still sort into a single
        canonical order."""
        values = [True, 1, 1.0, 0, None, "1", 2.5, False]
        left = normalize_filter({"$or": [{"x": v} for v in values]})
        right = normalize_filter({"$or": [{"x": v} for v in reversed(values)]})
        assert left == right


class TestQueryHash:
    def test_stable_across_calls(self):
        assert query_hash({"a": 1}) == query_hash({"a": 1})

    def test_subscription_identity_requirement(self):
        """Distinct subscriptions to the same query share the hash."""
        server_a = query_hash({"year": {"$gte": 2017}}, collection="articles")
        server_b = query_hash({"year": {"$gte": 2017}}, collection="articles")
        assert server_a == server_b

    def test_collection_is_part_of_identity(self):
        assert query_hash({"a": 1}, collection="x") != query_hash(
            {"a": 1}, collection="y"
        )

    def test_sort_limit_offset_are_part_of_identity(self):
        base = query_hash({"a": 1}, sort=[("b", 1)])
        assert base != query_hash({"a": 1}, sort=[("b", -1)])
        assert base != query_hash({"a": 1}, sort=[("b", 1)], limit=5)
        assert base != query_hash({"a": 1}, sort=[("b", 1)], limit=5, offset=2)

    def test_hash_is_64_bit(self):
        assert 0 <= query_hash({"a": 1}) < 2**64

    def test_known_stability_anchor(self):
        """Guards against accidental canonical-form changes: the hash of
        this fixed query must never change between releases, because
        persisted subscriptions would re-partition."""
        value = query_hash({"a": 1}, collection="default")
        assert value == query_hash({"a": {"$eq": 1}}, collection="default")


class TestQueryObjectIdentity:
    def test_query_equality_follows_canonical_form(self):
        assert Query({"a": 1, "b": 2}) == Query({"b": 2, "a": 1})
        assert Query({"a": 1}) != Query({"a": 1}, collection="other")

    def test_query_id_derives_from_hash(self):
        query = Query({"a": 1})
        assert query.query_id == f"q-{query.hash:016x}"

    def test_canonical_form_includes_all_clauses(self):
        form = canonical_query_form(
            {"a": 1}, collection="c", sort=[("b", 1)], limit=3, offset=1
        )
        assert form[0] == "c"
        assert form[3] == 3 and form[4] == 1


def harness_workloads():
    """The benchmark harness's workload table (not a package: loaded
    from its file)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "workloads.py"
    spec = importlib.util.spec_from_file_location("harness_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def identity_digest(specs):
    digest = hashlib.sha256()
    for spec in specs:
        query = Query(spec.filter, collection=spec.collection, sort=spec.sort,
                      limit=spec.limit, offset=spec.offset)
        digest.update((
            f"{query.query_id} {query.partition_hash} "
            f"{query.rewritten_for_subscription(5).query_id} "
            f"{query.unsorted().query_id}\n"
        ).encode())
    return digest.hexdigest()


class TestQueryIdentityIsPinned:
    """A query hashes its parsed filter, on first use.  The ids and
    partition hashes the grid routes by must not move with that: these
    digests cover every subscription of the five harness workloads
    (seed 1), hashed from the filter document itself."""

    PAPER = "9ea07a717d5f2767bfe9558171ecd88efde6d961e485ff2ffa0de07067d42e94"
    DIGESTS = {
        "paper-filter": PAPER,
        "paper-filter-process": PAPER,  # the same inputs, another model
        "fanout-feed":
            "ab1412da8ab3c223cc915b459a1131d2e7475de5a851c6c8299499fa1f5dc405",
        "sorted-feed":
            "b5e77682d596142d050f94e4ea4ad3d7d094630df63dc9a0e3860cffb4a018ac",
        "churn-mixed":
            "6e13907be1c729876db23a72485c23e5b0b202ff06b41433c59ee446d171c5c2",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_workload_query_ids_and_partition_hashes(self, name):
        specs = harness_workloads()[name].subscriptions(1)
        assert identity_digest(specs) == self.DIGESTS[name]

    def test_anchor_values(self):
        query = Query({}, collection="items", sort=[("v", -1)], limit=3,
                      offset=2)
        assert query.query_id == "q-5147710e84d52c48"
        assert query.partition_hash == 13818128235966533335
        assert query.hash == query_hash({}, "items", [("v", -1)], 3, 2)
        assert query.partition_hash == query_hash({}, "items", [("v", -1)])

    def test_a_read_never_hashes(self, monkeypatch):
        hashed = []
        real = engine_module.canonical_hash

        def counting(form):
            hashed.append(form)
            return real(form)

        monkeypatch.setattr(engine_module, "canonical_hash", counting)
        collection = Collection("items")
        for key in range(6):
            collection.insert({"_id": key, "v": key})
        collection.find({"v": {"$gte": 2}}, sort=[("v", 1)], limit=2)
        query = Query({"v": {"$gte": 2}}, collection="items",
                      sort=[("v", 1)], limit=2, offset=1)
        collection.execute_versioned(query.rewritten_for_subscription(3))
        collection.execute(query.unsorted())
        assert hashed == []
        assert query.query_id == query.query_id and len(hashed) == 1
        assert query.partition_hash and len(hashed) == 2
