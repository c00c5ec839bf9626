"""QueryIndex unit tests: decomposition, probing, lifecycle, soundness.

The index's contract is a *superset*: ``candidates(document, coll)``
must contain every query the engine would report as matching.  These
tests pin the decomposition rules and the probe-time edge cases
(boundary inclusivity, type brackets, array fan-out, NaN); the
randomized end-to-end guarantee lives in ``test_index_equivalence.py``.
"""

import math

import pytest

from repro.query.engine import MongoQueryEngine, Query
from repro.query.index import QueryIndex, decompose


def candidates_of(index, doc, collection="default"):
    return index.candidates({"_id": 0, **doc}, collection)


def build(*queries):
    index = QueryIndex()
    for query in queries:
        index.add(query)
    return index


class TestDecomposition:
    def test_equality_is_indexable(self):
        assert decompose(Query({"v": 5})) is not None

    def test_in_is_indexable(self):
        entries = decompose(Query({"tag": {"$in": [1, 2, 3]}}))
        assert len(entries) == 3

    def test_empty_in_yields_zero_entries(self):
        # $in: [] matches nothing — indexable with no entries, meaning
        # the query is never a candidate (as opposed to residual).
        assert decompose(Query({"tag": {"$in": []}})) == []

    def test_one_sided_range_is_indexable(self):
        for filt in ({"v": {"$gt": 1}}, {"v": {"$gte": 1}},
                     {"v": {"$lt": 1}}, {"v": {"$lte": 1}}):
            assert decompose(Query(filt)) is not None

    def test_two_sided_range_folds_into_one_interval(self):
        entries = decompose(Query({"v": {"$gte": 10, "$lt": 20}}))
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.lower, entry.upper) == ((10, True), (20, False))

    def test_equality_preferred_over_range(self):
        entries = decompose(Query({"v": 5, "w": {"$gte": 1, "$lt": 9}}))
        assert len(entries) == 1
        assert entries[0].path == "v"

    def test_or_indexable_when_all_branches_are(self):
        entries = decompose(Query({"$or": [{"v": 1}, {"w": {"$gt": 2}}]}))
        assert len(entries) == 2

    def test_or_residual_when_any_branch_is_not(self):
        assert decompose(
            Query({"$or": [{"v": 1}, {"w": {"$ne": 2}}]})
        ) is None

    @pytest.mark.parametrize("filt", [
        {},                                # matches everything
        {"v": {"$ne": 3}},                 # negation
        {"v": {"$exists": True}},          # path test
        {"s": {"$regex": "^a"}},           # text
        {"v": None},                       # null equality matches missing
        {"v": float("nan")},               # NaN == NaN, but not as a dict key
        {"v": {"$eq": [1, 2]}},            # container equality
        {"v": {"$in": [1, None]}},         # null inside $in
        {"v": {"$gt": True}},              # bool is its own bracket
    ])
    def test_residual_shapes(self, filt):
        assert decompose(Query(filt)) is None


class TestEqualityProbes:
    def test_hit_and_miss(self):
        q = Query({"v": 5})
        index = build(q)
        assert candidates_of(index, {"v": 5}) == {q.query_id}
        assert candidates_of(index, {"v": 6}) == set()
        assert candidates_of(index, {"w": 5}) == set()

    def test_numeric_conflation_is_a_superset(self):
        # 1 == 1.0 == True under dict hashing; the engine sorts out the
        # bool/number bracket, the index only has to over-approximate.
        q = Query({"v": 1})
        index = build(q)
        assert candidates_of(index, {"v": 1.0}) == {q.query_id}

    def test_in_fires_on_any_member(self):
        q = Query({"tag": {"$in": [1, 2]}})
        index = build(q)
        assert candidates_of(index, {"tag": 2}) == {q.query_id}
        assert candidates_of(index, {"tag": 3}) == set()

    def test_array_element_fires_equality(self):
        q = Query({"tag": 7})
        index = build(q)
        assert candidates_of(index, {"tag": [3, 7]}) == {q.query_id}


class TestRangeProbes:
    def test_one_sided_boundary_inclusivity(self):
        gt = Query({"v": {"$gt": 10}})
        gte = Query({"v": {"$gte": 10}})
        lt = Query({"v": {"$lt": 10}})
        lte = Query({"v": {"$lte": 10}})
        index = build(gt, gte, lt, lte)
        assert candidates_of(index, {"v": 10}) == {
            gte.query_id, lte.query_id
        }
        assert candidates_of(index, {"v": 11}) == {
            gt.query_id, gte.query_id
        }
        assert candidates_of(index, {"v": 9}) == {lt.query_id, lte.query_id}

    def test_interval_boundaries(self):
        q = Query({"v": {"$gte": 10, "$lt": 20}})
        index = build(q)
        assert candidates_of(index, {"v": 10}) == {q.query_id}
        assert candidates_of(index, {"v": 19.5}) == {q.query_id}
        assert candidates_of(index, {"v": 20}) == set()
        assert candidates_of(index, {"v": 9.999}) == set()

    def test_empty_interval_is_never_a_candidate(self):
        q = Query({"v": {"$gte": 20, "$lt": 10}})
        index = build(q)
        assert q.query_id in index
        for value in (5, 10, 15, 20, 25):
            assert candidates_of(index, {"v": value}) == set()

    def test_string_and_number_brackets_are_separate(self):
        nums = Query({"v": {"$gte": 10}})
        strs = Query({"v": {"$gte": "m"}})
        index = build(nums, strs)
        assert candidates_of(index, {"v": 50}) == {nums.query_id}
        assert candidates_of(index, {"v": "z"}) == {strs.query_id}
        # Bools never probe the numeric bracket (own BSON bracket).
        assert candidates_of(index, {"v": True}) == set()

    def test_interval_tree_stabbing_at_scale(self):
        # Enough intervals to force the tree past its linear leaves.
        queries = [
            Query({"v": {"$gte": i, "$lt": i + 1}}) for i in range(200)
        ]
        index = build(*queries)
        for probe in (0, 0.5, 99, 150.25, 199, 199.999):
            expected = {
                q.query_id for i, q in enumerate(queries)
                if i <= probe < i + 1
            }
            assert candidates_of(index, {"v": probe}) == expected
        assert candidates_of(index, {"v": 200}) == set()
        assert candidates_of(index, {"v": -0.001}) == set()

    def test_overlapping_intervals(self):
        wide = Query({"v": {"$gte": 0, "$lte": 100}})
        narrow = Query({"v": {"$gt": 40, "$lt": 60}})
        point = Query({"v": {"$gte": 50, "$lte": 50}})
        index = build(wide, narrow, point)
        assert candidates_of(index, {"v": 50}) == {
            wide.query_id, narrow.query_id, point.query_id
        }
        assert candidates_of(index, {"v": 40}) == {wide.query_id}
        assert candidates_of(index, {"v": 101}) == set()


class TestConservativeProbes:
    def test_array_fan_out_keeps_intervals_sound(self):
        # No single element lies inside [12, 14), but MongoDB matches:
        # element 10 satisfies nothing, but $gte:12 is satisfied by 15
        # and $lt:14 by 10 — the conjunction is evaluated per bound.
        q = Query({"arr": {"$gte": 12, "$lt": 14}})
        index = build(q)
        engine = MongoQueryEngine()
        doc = {"_id": 0, "arr": [10, 15]}
        assert engine.matches(q, doc)
        assert index.candidates(doc, "default") == {q.query_id}

    def test_nan_document_value_returns_numeric_ranges(self):
        # A NaN value satisfies no numeric bound; the probe still takes
        # every numeric entry on the path — a superset, never wrong.
        rng = Query({"v": {"$gte": 10}})
        interval = Query({"v": {"$gte": 0, "$lte": 5}})
        other = Query({"w": {"$gte": 10}})
        index = build(rng, interval, other)
        got = candidates_of(index, {"v": float("nan")})
        assert got == {rng.query_id, interval.query_id}

    def test_residual_queries_are_always_candidates(self):
        residual = Query({"v": {"$ne": 3}})
        indexed = Query({"v": 5})
        index = build(residual, indexed)
        assert candidates_of(index, {"anything": 1}) == {residual.query_id}

    def test_nan_equality_query_is_residual_and_sound(self):
        q = Query({"v": float("nan")})
        index = build(q)
        engine = MongoQueryEngine()
        doc = {"_id": 0, "v": float("nan")}
        # NaN equals only NaN, which no equality bucket can key: the
        # query stays residual, a candidate for every document.
        assert engine.matches(q, doc)
        assert not engine.matches(q, {"_id": 1, "v": 3})
        assert index.candidates(doc, "default") == {q.query_id}


class TestCollectionsAndPaths:
    def test_collection_discriminator(self):
        a = Query({"v": 1}, collection="a")
        b = Query({"v": 1}, collection="b")
        index = build(a, b)
        assert candidates_of(index, {"v": 1}, "a") == {a.query_id}
        assert candidates_of(index, {"v": 1}, "b") == {b.query_id}
        assert candidates_of(index, {"v": 1}, "c") == set()

    def test_nested_paths(self):
        q = Query({"address.city": "berlin"})
        index = build(q)
        assert candidates_of(
            index, {"address": {"city": "berlin"}}
        ) == {q.query_id}
        assert candidates_of(index, {"address": {"city": "munich"}}) == set()
        assert candidates_of(index, {"address": {}}) == set()

    def test_array_of_documents_fans_out(self):
        q = Query({"items.sku": 42})
        index = build(q)
        doc = {"items": [{"sku": 1}, {"sku": 42}]}
        assert candidates_of(index, doc) == {q.query_id}


class TestLifecycle:
    def test_add_reports_indexability(self):
        index = QueryIndex()
        assert index.add(Query({"v": 5})) is True
        assert index.add(Query({"v": {"$ne": 5}})) is False

    def test_add_is_idempotent(self):
        q = Query({"v": 5})
        index = build(q)
        assert index.add(q) is True
        assert len(index) == 1
        assert candidates_of(index, {"v": 5}) == {q.query_id}

    def test_remove_drops_all_entry_kinds(self):
        queries = [
            Query({"v": 5}),
            Query({"tag": {"$in": [1, 2]}}),
            Query({"v": {"$gte": 10}}),
            Query({"v": {"$lt": 3}}),
            Query({"v": {"$gte": 0, "$lt": 100}}),
            Query({"v": {"$ne": 9}}),
        ]
        index = build(*queries)
        for query in queries:
            assert index.remove(query.query_id) is True
        assert len(index) == 0
        for doc in ({"v": 5}, {"tag": 1}, {"v": 50}, {"v": 1}):
            assert candidates_of(index, doc) == set()

    def test_remove_unknown_is_false(self):
        assert QueryIndex().remove("nope") is False

    def test_interval_tree_rebuilds_after_mutation(self):
        queries = [
            Query({"v": {"$gte": i, "$lt": i + 1}}) for i in range(50)
        ]
        index = build(*queries)
        # Force a tree build, then mutate and probe again.
        assert candidates_of(index, {"v": 25.5}) == {queries[25].query_id}
        index.remove(queries[25].query_id)
        assert candidates_of(index, {"v": 25.5}) == set()
        assert candidates_of(index, {"v": 26.5}) == {queries[26].query_id}


class TestSupersetSpotCheck:
    """Brute-force the contract over a deterministic document grid."""

    QUERIES = [
        Query({"v": 5}),
        Query({"v": {"$gte": 10, "$lt": 20}}),
        Query({"v": {"$gt": 25}}),
        Query({"v": {"$lte": 3}}),
        Query({"tag": {"$in": [0, 2]}}),
        Query({"$or": [{"v": 7}, {"tag": 1}]}),
        Query({"v": {"$ne": 12}}),
        Query({"v": {"$exists": False}}),
        Query({"nested.x": {"$gte": 1, "$lte": 2}}),
    ]

    def test_candidates_superset_of_matches(self):
        engine = MongoQueryEngine()
        index = build(*self.QUERIES)
        documents = [
            {"_id": i, "v": value, "tag": value % 3,
             "nested": {"x": value % 4}}
            for i, value in enumerate(range(-2, 32))
        ] + [
            {"_id": 100},
            {"_id": 101, "v": [4, 11, 26]},
            {"_id": 102, "v": "ten"},
            {"_id": 103, "v": None},
            {"_id": 104, "v": float("nan")},
            {"_id": 105, "v": math.inf},
        ]
        for doc in documents:
            got = index.candidates(doc, "default")
            matching = {
                q.query_id for q in self.QUERIES if engine.matches(q, doc)
            }
            assert matching <= got, (doc, matching - got)


class TestIntrospection:
    def test_stats_shape(self):
        index = build(
            Query({"v": 5}),
            Query({"v": {"$gte": 1}}),
            Query({"v": {"$gte": 1, "$lt": 2}}),
            Query({"v": {"$ne": 0}}),
        )
        stats = index.stats()
        assert stats["queries"] == 4
        assert stats["residual_queries"] == 1
        assert stats["eq_entries"] == 1
        assert stats["range_entries"] == 1
        assert stats["interval_entries"] == 1
        assert "QueryIndex" in repr(index)


class TestSpatialDecomposition:
    def test_box_covers_cells(self):
        entries = decompose(
            Query({"loc": {"$geoWithin": {"$box": [[-10, -10], [10, 10]]}}})
        )
        assert entries is not None and len(entries) == 1
        entry = entries[0]
        assert entry.path == "loc"
        assert entry.cells  # a small box covers a bounded cell set

    def test_unbounded_near_sphere_is_broad(self):
        entries = decompose(Query({"loc": {"$nearSphere": {
            "$geometry": {"type": "Point", "coordinates": [0, 0]},
        }}}))
        assert entries is not None and len(entries) == 1
        assert entries[0].cells is None  # broad: fired by any point probe

    @pytest.mark.parametrize("cells", [0, -1, 4097, True, False, 8.0, "64"])
    def test_grid_cells_outside_range_rejected(self, cells):
        with pytest.raises(ValueError):
            QueryIndex(grid_cells=cells)

    def test_grid_cells_range_bounds_accepted(self):
        for cells in (1, 4096):
            index = QueryIndex(grid_cells=cells)
            index.add(Query({"loc": {"$geoWithin": {
                "$box": [[0, 0], [1, 1]]}}}))
            assert candidates_of(index, {"loc": [0.5, 0.5]})

    def test_grid_resolution_changes_cover_size(self):
        query = Query(
            {"loc": {"$geoWithin": {"$box": [[-90, -45], [90, 45]]}}}
        )
        coarse = decompose(query, grid_cells=4)[0]
        fine = decompose(query, grid_cells=32)[0]
        assert len(coarse.cells) < len(fine.cells)

    def test_geo_or_indexable_when_all_branches_are(self):
        entries = decompose(Query({"$or": [
            {"loc": {"$geoWithin": {"$box": [[0, 0], [1, 1]]}}},
            {"loc": {"$geoWithin": {"$box": [[20, 20], [21, 21]]}}},
        ]}))
        assert entries is not None and len(entries) == 2


class TestSpatialProbes:
    BOX = Query({"loc": {"$geoWithin": {"$box": [[-10, -10], [10, 10]]}}})
    BROAD = Query({"loc": {"$nearSphere": {
        "$geometry": {"type": "Point", "coordinates": [0, 0]},
    }}})

    def test_point_in_box_is_candidate(self):
        index = build(self.BOX)
        assert candidates_of(index, {"loc": [5, 5]})
        assert not candidates_of(index, {"loc": [90, 5]})

    def test_non_point_value_is_never_a_candidate(self):
        # The engine cannot match a geo predicate against a non-point,
        # so pruning it is sound even for broad entries.
        index = build(self.BOX, self.BROAD)
        assert candidates_of(index, {"loc": "junk"}) == set()
        assert candidates_of(index, {"other": [5, 5]}) == set()

    def test_out_of_range_latitude_probes_broadly(self):
        # |lat| > 90 has no grid row: a conservative probe must return
        # every spatial entry on the path.
        index = build(self.BOX, self.BROAD)
        got = candidates_of(index, {"loc": [0, 120]})
        assert got == {self.BOX.query_id, self.BROAD.query_id}

    def test_broad_entry_fires_on_any_point(self):
        index = build(self.BROAD)
        assert candidates_of(index, {"loc": [179, -80]})

    def test_antimeridian_seam(self):
        hugging = Query({"loc": {"$geoWithin": {
            "$centerSphere": [[179.9, 0], 0.01],
        }}})
        index = build(hugging)
        assert candidates_of(index, {"loc": [-179.95, 0]})
        assert candidates_of(index, {"loc": [180.0, 0.0]})

    def test_array_of_points_fans_out(self):
        index = build(Query({"pts": {"$geoWithin": {
            "$box": [[-10, -10], [10, 10]],
        }}}))
        assert candidates_of(index, {"pts": [[90, 0], [5, 5]]})
        assert not candidates_of(index, {"pts": [[90, 0], [80, 0]]})


class TestTextIndex:
    def test_positive_terms_bucket_queries(self):
        alpha = Query({"$text": {"$search": "alpha"}})
        beta = Query({"$text": {"$search": "beta gamma"}})
        index = build(alpha, beta)
        assert candidates_of(index, {"note": "ALPHA!"}) == {alpha.query_id}
        assert candidates_of(index, {"note": "some gamma"}) == {
            beta.query_id
        }
        assert candidates_of(index, {"note": "delta"}) == set()

    def test_negated_terms_never_prune(self):
        query = Query({"$text": {"$search": "alpha -beta"}})
        index = build(query)
        # The positive term buckets it; the negation must not shrink
        # the candidate set (the engine decides the final answer).
        assert candidates_of(index, {"note": "alpha beta"}) == {
            query.query_id
        }

    def test_phrase_only_search_is_residual(self):
        query = Query({"$text": {"$search": '"alpha beta"'}})
        index = build(query)
        assert index.stats()["residual_queries"] == 1
        assert candidates_of(index, {"note": "anything"}) == {
            query.query_id
        }


class TestSpatioTextualLifecycle:
    def test_remove_drops_spatial_and_text_entries(self):
        geo = Query({"loc": {"$geoWithin": {"$box": [[0, 0], [5, 5]]}}})
        text = Query({"$text": {"$search": "alpha"}})
        index = build(geo, text)
        stats = index.stats()
        assert stats["spatial_entries"] == 1
        assert stats["text_entries"] == 1
        assert index.remove(geo.query_id)
        assert index.remove(text.query_id)
        stats = index.stats()
        assert stats["spatial_entries"] == 0
        assert stats["spatial_cells"] == 0
        assert stats["text_entries"] == 0
        assert stats["text_tokens"] == 0

    def test_hit_counters_attribute_by_family(self):
        geo = Query({"loc": {"$geoWithin": {"$box": [[0, 0], [5, 5]]}}})
        text = Query({"$text": {"$search": "alpha"}})
        residual = Query({"v": {"$ne": 1}})
        index = build(geo, text, residual)
        candidates_of(index, {"loc": [2, 2], "note": "alpha"})
        hits = index.stats()["hits"]
        assert hits["spatial"] == 1
        assert hits["text"] == 1
        assert hits["residual"] == 1
        assert hits["equality"] == 0
