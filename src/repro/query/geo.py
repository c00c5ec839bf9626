"""Geo query operators: ``$geoWithin`` and ``$nearSphere``.

The paper's MongoDB-compatible engine supports geo queries (Section
5.4).  We implement the two families the paper names:

* ``$geoWithin`` with ``$box``, ``$polygon``, ``$center``,
  ``$centerSphere`` and GeoJSON ``$geometry`` (Polygon) shapes;
* ``$nearSphere`` as a spherical distance filter with ``$maxDistance``
  and ``$minDistance`` (meters).

Coordinates follow the MongoDB convention ``[longitude, latitude]`` in
degrees.  ``$nearSphere`` in a find-query also implies distance
ordering in MongoDB; in the real-time engine it acts as a pure distance
predicate, which is the semantics relevant for change detection.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import GeoError, QueryParseError
from repro.query.operators import Operator, ValueTest

EARTH_RADIUS_METERS = 6_371_008.8

Point = Tuple[float, float]


def _pair(value: Any) -> Optional[Point]:
    """``(lon, lat)`` of a legacy coordinate pair ``[lon, lat]`` or a
    GeoJSON Point ``{"type": "Point", "coordinates": [lon, lat]}``, or
    None."""
    if isinstance(value, dict) and value.get("type") == "Point":
        value = value.get("coordinates")
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(coord, (int, float)) and not isinstance(coord, bool)
                for coord in value)
    ):
        return float(value[0]), float(value[1])
    return None


def _as_point(value: Any) -> Optional[Point]:
    """Coerce a stored field value into ``(lon, lat)`` or return None.

    A pair with a NaN or infinite coordinate is no point: it matches no
    geo predicate (a spherical distance to it is undefined).
    """
    point = _pair(value)
    if point is not None and math.isfinite(point[0]) and math.isfinite(point[1]):
        return point
    return None


def _point_test(accepts: Callable[[Point], bool]) -> ValueTest:
    """The value test "*value* is a point that *accepts* takes".

    A plain ``[float, float]`` pair (a position as every writer stores
    it) is recognised by its exact types; every other value takes the
    general coercion of :func:`_as_point`.
    """

    finite = math.isfinite

    def test(value: Any) -> bool:
        if type(value) is list and len(value) == 2:
            lon, lat = value
            if (type(lon) is float and type(lat) is float
                    and finite(lon) and finite(lat)):
                return accepts((lon, lat))
        point = _as_point(value)
        return point is not None and accepts(point)

    return test


#: Public alias for probe-side point extraction (used by the query
#: index when rasterizing document values into grid cells).
def as_point(value: Any) -> Optional[Point]:
    return _as_point(value)


def _require_point(value: Any, what: str) -> Point:
    """Query-side point validation (shape corners, centers, vertices).

    Unlike the lenient document-side :func:`_as_point`, query shapes
    with non-finite coordinates are rejected outright: NaN/inf corners
    would silently define shapes that compare unpredictably.
    """
    point = _pair(value)
    if point is None:
        raise GeoError(f"{what} must be a [lon, lat] pair or GeoJSON Point")
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise QueryParseError(f"{what} coordinates must be finite")
    return point


def _require_sphere_point(value: Any, what: str) -> Point:
    """Spherical query centers must additionally be real coordinates:
    longitude in [-180, 180] and latitude in [-90, 90].  Out-of-range
    values have no unambiguous position on the sphere (MongoDB rejects
    them too)."""
    point = _require_point(value, what)
    if not (-180.0 <= point[0] <= 180.0 and -90.0 <= point[1] <= 90.0):
        raise QueryParseError(
            f"{what} must have longitude in [-180, 180] and latitude "
            f"in [-90, 90]"
        )
    return point


def haversine_meters(a: Point, b: Point) -> float:
    """Great-circle distance between two ``(lon, lat)`` points in meters."""
    lon1, lat1 = map(math.radians, a)
    lon2, lat2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        dlon / 2
    ) ** 2
    return 2 * EARTH_RADIUS_METERS * math.asin(min(1.0, math.sqrt(h)))


#: A conservative planar bounding box: (min_lon, min_lat, max_lon,
#: max_lat).  Longitudes are *raw* (they may exceed [-180, 180] for
#: legacy planar shapes or wrapped spherical caps); the query index
#: wraps them into grid columns.
BBox = Tuple[float, float, float, float]

#: Tiny absolute pad applied to computed (non-exact) bounds so float
#: rounding can never shave a matching point off a conservative box.
_BBOX_EPSILON = 1e-9


def _spherical_cap_boxes(center: Point, radius_radians: float) -> (
        Optional[List[BBox]]):
    """Bounding boxes of a spherical cap, or None for the whole sphere.

    The latitude band is ``lat +- r``; the longitude half-width is
    ``asin(sin r / cos(lat_edge))`` — evaluated at the band edge
    closest to a pole, which upper-bounds the exact cap extent — so the
    boxes are a superset of the cap.  A cap touching a pole spans every
    longitude.  The returned longitude interval is centered on the
    (in-range) cap center and may stick out past +-180; callers wrap it.
    """
    if radius_radians >= math.pi:
        return None
    r_deg = math.degrees(radius_radians) + _BBOX_EPSILON
    lat_min = center[1] - r_deg
    lat_max = center[1] + r_deg
    if lat_min <= -90.0 or lat_max >= 90.0:
        return [(-180.0, max(-90.0, lat_min), 180.0, min(90.0, lat_max))]
    sin_r = math.sin(radius_radians)
    cos_edge = math.cos(math.radians(max(abs(lat_min), abs(lat_max))))
    if sin_r >= cos_edge:
        dlon = 180.0
    else:
        dlon = min(
            180.0,
            math.degrees(math.asin(sin_r / cos_edge)) + _BBOX_EPSILON,
        )
    return [(center[0] - dlon, lat_min, center[0] + dlon, lat_max)]


def point_in_polygon(point: Point, vertices: Sequence[Point]) -> bool:
    """Ray-casting point-in-polygon test on planar (lon, lat) coordinates.

    Points exactly on an edge are considered inside, which matches the
    inclusive behaviour users expect from ``$geoWithin``.
    """
    x, y = point
    inside = False
    count = len(vertices)
    for i in range(count):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % count]
        if (x1, y1) == (x, y):
            return True
        # Edge hit: collinear and within the segment's bounding box.
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if (
            cross == 0
            and min(x1, x2) <= x <= max(x1, x2)
            and min(y1, y2) <= y <= max(y1, y2)
        ):
            return True
        if (y1 > y) != (y2 > y):
            x_intersect = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_intersect:
                inside = not inside
    return inside


class _GeoShape:
    """A shape that can answer containment for a point."""

    kind = "abstract"

    def contains(self, point: Point) -> bool:
        raise NotImplementedError

    def canonical(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def bounding_boxes(self) -> Optional[List[BBox]]:
        """Conservative covering boxes, or None for "everywhere".

        Soundness contract for the query index: every point the shape
        contains lies inside one of the returned boxes (false area is
        fine — the engine re-checks candidates — missing area is not).
        """
        raise NotImplementedError


class Box(_GeoShape):
    kind = "$box"

    def __init__(self, corners: Any):
        if not isinstance(corners, (list, tuple)) or len(corners) != 2:
            raise QueryParseError("$box requires [bottom-left, top-right]")
        bottom_left = _require_point(corners[0], "$box corner")
        top_right = _require_point(corners[1], "$box corner")
        self.min_x = min(bottom_left[0], top_right[0])
        self.max_x = max(bottom_left[0], top_right[0])
        self.min_y = min(bottom_left[1], top_right[1])
        self.max_y = max(bottom_left[1], top_right[1])

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def canonical(self) -> Tuple[Any, ...]:
        return (self.kind, self.min_x, self.min_y, self.max_x, self.max_y)

    def bounding_boxes(self) -> Optional[List[BBox]]:
        return [(self.min_x, self.min_y, self.max_x, self.max_y)]


class Polygon(_GeoShape):
    kind = "$polygon"

    def __init__(self, vertices: Any):
        if not isinstance(vertices, (list, tuple)) or len(vertices) < 3:
            raise QueryParseError("$polygon requires at least three vertices")
        self.vertices: List[Point] = [
            _require_point(vertex, "$polygon vertex") for vertex in vertices
        ]
        # A GeoJSON ring repeats the first vertex at the end; drop it.
        if len(self.vertices) > 3 and self.vertices[0] == self.vertices[-1]:
            self.vertices = self.vertices[:-1]
        # Degenerate rings (all vertices on one or two points) define no
        # area and make the ray cast meaningless: reject them clearly
        # instead of silently matching nothing or everything.
        if len(set(self.vertices)) < 3:
            raise QueryParseError(
                "$polygon requires at least three distinct vertices"
            )

    def contains(self, point: Point) -> bool:
        return point_in_polygon(point, self.vertices)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.kind, tuple(self.vertices))

    def bounding_boxes(self) -> Optional[List[BBox]]:
        xs = [vertex[0] for vertex in self.vertices]
        ys = [vertex[1] for vertex in self.vertices]
        return [(min(xs), min(ys), max(xs), max(ys))]


class Circle(_GeoShape):
    """``$center`` (planar degrees) or ``$centerSphere`` (radians)."""

    def __init__(self, spec: Any, spherical: bool):
        if not isinstance(spec, (list, tuple)) or len(spec) != 2:
            raise QueryParseError("$center/$centerSphere requires [center, radius]")
        if spherical:
            self.center = _require_sphere_point(spec[0], "$centerSphere center")
        else:
            self.center = _require_point(spec[0], "$center center")
        radius = spec[1]
        # NaN slips past a bare ``radius < 0`` check — require a real,
        # finite, non-negative number.  Zero is allowed and documented:
        # the circle contains exactly its center point.
        if (
            isinstance(radius, bool)
            or not isinstance(radius, (int, float))
            or not math.isfinite(radius)
            or radius < 0
        ):
            raise QueryParseError(
                "circle radius must be a finite non-negative number"
            )
        self.radius = float(radius)
        self.spherical = spherical
        self.kind = "$centerSphere" if spherical else "$center"

    def contains(self, point: Point) -> bool:
        if self.spherical:
            # Radius is in radians of great-circle arc.
            distance = haversine_meters(self.center, point) / EARTH_RADIUS_METERS
        else:
            distance = math.hypot(
                point[0] - self.center[0], point[1] - self.center[1]
            )
        return distance <= self.radius

    def canonical(self) -> Tuple[Any, ...]:
        return (self.kind, self.center, self.radius)

    def bounding_boxes(self) -> Optional[List[BBox]]:
        if self.spherical:
            return _spherical_cap_boxes(self.center, self.radius)
        pad = self.radius + _BBOX_EPSILON
        return [(
            self.center[0] - pad, self.center[1] - pad,
            self.center[0] + pad, self.center[1] + pad,
        )]


def parse_shape(spec: Any) -> _GeoShape:
    """Parse the operand of ``$geoWithin`` into a shape object."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise QueryParseError("$geoWithin requires exactly one shape operator")
    (shape_name, operand), = spec.items()
    if shape_name == "$box":
        return Box(operand)
    if shape_name == "$polygon":
        return Polygon(operand)
    if shape_name == "$center":
        return Circle(operand, spherical=False)
    if shape_name == "$centerSphere":
        return Circle(operand, spherical=True)
    if shape_name == "$geometry":
        if not isinstance(operand, dict) or operand.get("type") != "Polygon":
            raise QueryParseError("$geometry only supports Polygon geometries")
        rings = operand.get("coordinates")
        if not isinstance(rings, (list, tuple)) or not rings:
            raise QueryParseError("$geometry Polygon needs a coordinate ring")
        return Polygon(rings[0])
    raise QueryParseError(f"unsupported $geoWithin shape: {shape_name!r}")


class GeoWithin(Operator):
    """``$geoWithin`` — the point value lies inside the shape."""

    name = "$geoWithin"

    def __init__(self, spec: Any):
        self.shape = parse_shape(spec)

    def evaluate(self, value: Any) -> bool:
        point = _as_point(value)
        return point is not None and self.shape.contains(point)

    def value_test(self) -> ValueTest:
        if type(self).evaluate is not GeoWithin.evaluate:
            return self.evaluate
        return _point_test(self.shape.contains)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.shape.canonical())

    def bounding_boxes(self) -> Optional[List[BBox]]:
        return self.shape.bounding_boxes()


class NearSphere(Operator):
    """``$nearSphere`` — spherical distance filter in meters."""

    name = "$nearSphere"

    def __init__(self, spec: Any):
        if isinstance(spec, dict) and "$geometry" in spec:
            center = spec["$geometry"]
            max_distance = spec.get("$maxDistance")
            min_distance = spec.get("$minDistance", 0)
        elif isinstance(spec, dict):
            center = {"type": "Point", "coordinates": spec.get("coordinates")} if (
                spec.get("type") == "Point"
            ) else None
            if center is None:
                raise QueryParseError("$nearSphere requires a point or $geometry")
            max_distance = None
            min_distance = 0
        else:
            center = spec
            max_distance = None
            min_distance = 0
        self.center = _require_sphere_point(center, "$nearSphere center")
        if max_distance is not None and (
            isinstance(max_distance, bool)
            or not isinstance(max_distance, (int, float))
            or not math.isfinite(max_distance)
            or max_distance < 0
        ):
            raise QueryParseError(
                "$maxDistance must be a finite non-negative number"
            )
        if (
            isinstance(min_distance, bool)
            or not isinstance(min_distance, (int, float))
            or not math.isfinite(min_distance)
            or min_distance < 0
        ):
            raise QueryParseError(
                "$minDistance must be a finite non-negative number"
            )
        if max_distance is not None and min_distance > max_distance:
            raise QueryParseError(
                "$minDistance must not exceed $maxDistance"
            )
        # Without $maxDistance the predicate is an unbounded distance
        # filter: every point value at or beyond $minDistance matches.
        # That is documented (not an error) — the query index treats it
        # as a point-presence test covering the whole sphere.
        self.max_distance = None if max_distance is None else float(max_distance)
        self.min_distance = float(min_distance)

    def evaluate(self, value: Any) -> bool:
        point = _as_point(value)
        return point is not None and self._in_range(point)

    def _in_range(self, point: Point) -> bool:
        distance = haversine_meters(self.center, point)
        if distance < self.min_distance:
            return False
        return self.max_distance is None or distance <= self.max_distance

    def value_test(self) -> ValueTest:
        if type(self).evaluate is not NearSphere.evaluate:
            return self.evaluate
        return _point_test(self._in_range)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.center, self.min_distance, self.max_distance)

    def bounding_boxes(self) -> Optional[List[BBox]]:
        """Covering boxes of the ``$maxDistance`` cap, or None when the
        filter is unbounded (``$minDistance`` never shrinks the cover —
        an annulus is conservatively boxed as its outer disc)."""
        if self.max_distance is None:
            return None
        return _spherical_cap_boxes(
            self.center, self.max_distance / EARTH_RADIUS_METERS
        )
