"""Unit tests for the $text and geo operator internals."""

import math

import pytest

from repro.errors import GeoError, QueryParseError
from repro.query.geo import (
    Box,
    Circle,
    EARTH_RADIUS_METERS,
    GeoWithin,
    NearSphere,
    Polygon,
    haversine_meters,
    point_in_polygon,
)
from repro.query.text import TextSearch, fold, parse_search, tokenize


class TestTokenizer:
    def test_tokenize_splits_and_folds(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_fold_strips_diacritics(self):
        assert fold("Café") == "cafe"
        assert fold("STRASSE") == "strasse"

    def test_parse_search_components(self):
        parsed = parse_search('fast "real time" -slow databases')
        assert parsed.terms == ("fast", "databases")
        assert parsed.phrases == ("real time",)
        assert parsed.negated == ("slow",)


class TestTextSearch:
    def test_from_spec_validation(self):
        with pytest.raises(QueryParseError):
            TextSearch.from_spec({"$search": "x", "$caseSensitive": True})
        with pytest.raises(QueryParseError):
            TextSearch.from_spec({"$search": "x", "$unknown": 1})

    def test_phrase_only_search(self):
        node = TextSearch.from_spec({"$search": '"push based"'})
        assert node.matches_document({"t": "push based systems"})
        assert not node.matches_document({"t": "based on push"})

    def test_negation_only_rejects_hit(self):
        node = TextSearch.from_spec({"$search": "-legacy"})
        assert not node.matches_document({"t": "legacy code"})


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_meters((10.0, 50.0), (10.0, 50.0)) == 0.0

    def test_quarter_meridian(self):
        # Equator to pole along a meridian: a quarter of the circumference.
        distance = haversine_meters((0.0, 0.0), (0.0, 90.0))
        expected = math.pi * EARTH_RADIUS_METERS / 2
        assert distance == pytest.approx(expected, rel=1e-6)

    def test_hamburg_berlin_plausible(self):
        distance = haversine_meters((9.99, 53.55), (13.40, 52.52))
        assert 230_000 < distance < 280_000


class TestPolygon:
    SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]

    def test_inside(self):
        assert point_in_polygon((2, 2), self.SQUARE)

    def test_outside(self):
        assert not point_in_polygon((5, 2), self.SQUARE)

    def test_on_edge_counts_as_inside(self):
        assert point_in_polygon((2, 0), self.SQUARE)
        assert point_in_polygon((0, 0), self.SQUARE)

    def test_concave_polygon(self):
        concave = [(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)]
        assert point_in_polygon((1, 1), concave)
        assert not point_in_polygon((2, 3.5), concave)

    def test_geojson_ring_closing_vertex_dropped(self):
        ring = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
        assert len(Polygon(ring).vertices) == 4

    def test_too_few_vertices(self):
        with pytest.raises(QueryParseError):
            Polygon([[0, 0], [1, 1]])


class TestShapes:
    def test_box_normalizes_corners(self):
        box = Box([[11, 54], [9, 52]])  # corners swapped
        assert box.contains((10, 53))

    def test_center_planar(self):
        circle = Circle([[0, 0], 2.0], spherical=False)
        assert circle.contains((1, 1))
        assert not circle.contains((2, 2))

    def test_center_sphere_radians(self):
        # 0.01 rad of arc is ~63.7 km.
        circle = Circle([[10, 53], 0.01], spherical=True)
        assert circle.contains((10.3, 53))
        assert not circle.contains((12, 53))

    def test_geo_within_geometry_polygon(self):
        operator = GeoWithin(
            {"$geometry": {"type": "Polygon",
                           "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4],
                                            [0, 0]]]}}
        )
        assert operator.evaluate([2, 2])
        assert operator.evaluate({"type": "Point", "coordinates": [2, 2]})
        assert not operator.evaluate([9, 9])
        assert not operator.evaluate("not a point")

    def test_geo_within_requires_single_shape(self):
        with pytest.raises(QueryParseError):
            GeoWithin({"$box": [[0, 0], [1, 1]], "$polygon": []})
        with pytest.raises(QueryParseError):
            GeoWithin({"$sphere": 1})


class TestNearSphere:
    def test_min_and_max_distance(self):
        operator = NearSphere(
            {
                "$geometry": {"type": "Point", "coordinates": [10, 53]},
                "$minDistance": 10_000,
                "$maxDistance": 100_000,
            }
        )
        assert not operator.evaluate([10, 53])  # inside min distance
        assert operator.evaluate([10.5, 53])  # ~33 km
        assert not operator.evaluate([13, 53])  # ~200 km

    def test_legacy_pair_form(self):
        operator = NearSphere([10, 53])
        assert operator.evaluate([11, 54])  # no max distance: everything

    def test_invalid_distances(self):
        with pytest.raises(QueryParseError):
            NearSphere({"$geometry": {"type": "Point", "coordinates": [0, 0]},
                        "$maxDistance": -1})


class TestGeoParserAudit:
    """Regression pins for the degenerate-input audit: every malformed
    shape is a parse-time QueryParseError, never a silent mis-match."""

    def test_degenerate_polygon_duplicate_vertices(self):
        with pytest.raises(QueryParseError, match="distinct"):
            Polygon([[1, 1], [1, 1], [1, 1]])

    def test_collapsed_ring_after_closing_vertex(self):
        # Closing duplicate is dropped first, leaving only two points.
        with pytest.raises(QueryParseError):
            Polygon([[0, 0], [1, 1], [0, 0]])

    def test_empty_polygon(self):
        with pytest.raises(QueryParseError):
            Polygon([])

    def test_zero_radius_circle_contains_exactly_center(self):
        circle = Circle([[10, 53], 0.0], spherical=True)
        assert circle.contains((10, 53))
        assert not circle.contains((10.0001, 53))

    def test_nan_radius_rejected(self):
        for spherical in (False, True):
            with pytest.raises(QueryParseError):
                Circle([[0, 0], float("nan")], spherical=spherical)

    def test_infinite_radius_rejected(self):
        with pytest.raises(QueryParseError):
            Circle([[0, 0], float("inf")], spherical=True)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(QueryParseError):
            Box([[float("nan"), 0], [1, 1]])
        with pytest.raises(QueryParseError):
            Polygon([[0, 0], [float("inf"), 0], [1, 1]])

    @pytest.mark.parametrize("value", [
        [0, float("inf")], [float("nan"), 0.0], [0.0, float("-inf")],
        {"type": "Point", "coordinates": [float("inf"), 0]},
    ])
    def test_a_stored_non_finite_point_matches_nothing(self, value):
        """Not a point: no geo predicate matches it, and neither the
        fast path nor the general one raises on it."""
        operators = [
            GeoWithin({"$centerSphere": [[0.0, 0.0], 0.0]}),
            GeoWithin({"$center": [[0.0, 0.0], 1.0]}),
            GeoWithin({"$box": [[-1, -1], [1, 1]]}),
            NearSphere({"$geometry": {"type": "Point",
                                      "coordinates": [0, 0]}}),
        ]
        for operator in operators:
            assert operator.evaluate(value) is False
            assert operator.value_test()(value) is False

    def test_spherical_center_must_be_on_the_sphere(self):
        with pytest.raises(QueryParseError):
            Circle([[200, 0], 0.1], spherical=True)
        with pytest.raises(QueryParseError):
            NearSphere({"$geometry": {"type": "Point",
                                      "coordinates": [0, 95]}})

    def test_near_sphere_nan_distance_rejected(self):
        with pytest.raises(QueryParseError):
            NearSphere({"$geometry": {"type": "Point",
                                      "coordinates": [0, 0]},
                        "$maxDistance": float("nan")})

    def test_near_sphere_min_above_max_rejected(self):
        with pytest.raises(QueryParseError):
            NearSphere({"$geometry": {"type": "Point",
                                      "coordinates": [0, 0]},
                        "$minDistance": 2_000, "$maxDistance": 1_000})

    def test_near_sphere_without_max_distance_is_unbounded(self):
        # Documented behaviour: no $maxDistance means every point on
        # the sphere satisfies the distance filter (subject to $min).
        operator = NearSphere({"$geometry": {"type": "Point",
                                             "coordinates": [0, 0]}})
        assert operator.evaluate([179, -89])
        assert operator.bounding_boxes() is None  # whole sphere


class TestTokenizeCache:
    def test_cached_result_is_a_fresh_list(self):
        first = tokenize("Alpha beta")
        first.append("mutated")
        assert tokenize("Alpha beta") == ["alpha", "beta"]

    def test_cache_agrees_with_direct_tokenization(self):
        from repro.query.text import _TOKEN_RE, _cached_tokens

        for text in ["Crème BRÛLÉE", "don't stop", "", "a  b\tc"]:
            assert list(_cached_tokens(text)) == _TOKEN_RE.findall(
                fold(text)
            )

    def test_document_tokens_spans_nested_strings(self):
        from repro.query.text import document_tokens

        doc = {"a": "Alpha", "b": {"c": ["Beta", {"d": "gamma"}]}, "e": 1}
        assert document_tokens(doc) == {"alpha", "beta", "gamma"}
