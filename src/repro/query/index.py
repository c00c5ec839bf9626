"""A predicate index over registered queries: sublinear candidate
generation for the filtering stage.

Without an index, a matching node compares every incoming after-image
against every active query of its partition — per-write cost grows
linearly with queries-per-partition even though almost all of them are
trivially irrelevant.  Distributed pub/sub matching systems avoid this
by indexing *subscriptions*, so each event only evaluates a small
candidate subset.  :class:`QueryIndex` is that structure for InvaliDB's
MongoDB-style queries.

Each registered query's AST is decomposed into one *access predicate* —
a necessary condition the engine-level match implies — and the access
predicate is stored in one of five structures, always scoped by the
query's collection (the per-collection discriminator):

* **equality buckets** — a hash map keyed on ``(path, value)`` for
  ``$eq`` and ``$in`` over safely hashable scalars;
* **range boundaries** — per-path sorted lists of one-sided
  ``$gt``/``$gte``/``$lt``/``$lte`` bounds (bisect + prefix/suffix
  scan), kept separately per BSON type bracket because MongoDB range
  operators never match across brackets;
* **interval tree** — two-sided ranges (a lower *and* an upper bound on
  the same path, the paper-workload shape ``random >= i AND random <
  j``) in a centered interval tree, rebuilt lazily after mutations, so
  a stabbing query costs ``O(log n + matches)`` instead of a linear
  boundary scan;
* **spatial grid** — ``$geoWithin`` / ``$nearSphere`` shapes
  conservatively rasterized into cells of a fixed-resolution lon/lat
  grid (per query path); a write's point value probes only its own
  cell.  Longitudes are wrapped modulo 360 on both sides of the
  structure, so spherical caps crossing the antimeridian stay sound;
  shapes covering too many cells (or unbounded ones, e.g.
  ``$nearSphere`` without ``$maxDistance``) become *broad* entries
  fired by every point probe on the path, and point values outside the
  latitude domain probe broadly — still strictly cheaper than
  residual, because documents without a point at the path are never
  candidates;
* **inverted token index** — ``$text`` searches with positive terms
  are bucketed under each folded term (document-level, since ``$text``
  spans all string fields); a write probes the buckets of its own
  token set.  Phrases and negated terms never prune (they only
  restrict further); searches with *no* positive term (phrase-only or
  negation-only) stay residual because substring phrase semantics
  cannot be decided from token buckets.

Queries whose filter offers no indexable access predicate (``{}``,
negations, ``$exists``, ``$regex``, ``$or`` with a non-indexable
branch, …) fall into a per-collection **residual set** and are
candidates for every after-image of that collection — exactly the
pre-index behaviour, but only for the queries that need it.

Soundness contract: for any document, ``candidates(document,
collection)`` is a **superset** of the queries the engine would report
as matching.  False positives are filtered by the engine; false
negatives would lose notifications and are therefore treated as bugs
(see ``tests/test_index_equivalence.py`` for the property test).  Two
subtleties guard the contract:

* a predicate on an array field matches when *any element* matches, so
  candidate values fan out exactly like the matcher's candidate set —
  and a *two-sided* interval may be satisfied by two **different**
  elements; when a path resolves to more than one comparable value the
  interval tree is bypassed and every interval entry on the path is
  conservatively returned;
* ``NaN`` has no place in a sorted boundary list or a hash bucket, so
  a NaN document value conservatively returns every numeric range
  *and equality* entry on the path.  The engine then rejects nearly
  all of them (range operators never match NaN against a number,
  equality only against a NaN operand): over-delivery, never a loss.

The index answers *"which queries might match this after-image?"* —
queries that previously matched an entity must additionally be
re-evaluated to emit ``remove``/``change``; that reverse map is
maintained by :class:`~repro.core.filtering.FilteringNode`, not here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.query.ast import (
    AllOf,
    AnyOf,
    FieldPredicate,
    Node,
    conjunctive_branches,
)
from repro.query.engine import Query
from repro.query.geo import GeoWithin, NearSphere, as_point
from repro.query.matcher import resolve_path
from repro.query.operators import Eq, Gt, Gte, In, Lt, Lte
from repro.query.sortspec import type_bracket
from repro.query.text import LazyTokens, TextSearch, document_tokens
from repro.types import Document

_NUMBER = type_bracket(0)
_STRING = type_bracket("")

#: Sentinel: a value that cannot serve as an equality bucket key.
_UNSAFE = object()

#: Sentinel: a field the probed document does not hold.
_MISSING = object()


def _eq_key(value: Any) -> Any:
    """Equality bucket key for *value*, or ``_UNSAFE``.

    The contract is: ``values_equal(a, b)`` implies ``_eq_key(a) ==
    _eq_key(b)`` whenever neither side is unsafe.  Plain Python values
    satisfy this (``1 == 1.0`` conflates the numeric bracket, which is
    a *superset* — harmless).  Unsafe values: ``None`` (null equality
    also matches missing fields), NaN (equal to itself under BSON
    comparison but not under ``dict`` lookup), and containers.
    """
    if value is None or isinstance(value, (dict, list, tuple, set, frozenset)):
        return _UNSAFE
    if isinstance(value, float) and math.isnan(value):
        return _UNSAFE
    if isinstance(value, (bool, int, float, str)):
        return value
    return _UNSAFE


def _range_bracket(value: Any) -> Optional[int]:
    """BSON bracket of an indexable range bound/probe value, or None.

    Only numbers (bools excluded — they live in their own bracket) and
    strings are range-indexable; within one bracket plain Python
    comparisons agree with the engine's ``compare_values``.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            return None
        return _NUMBER
    if isinstance(value, str):
        return _STRING
    return None


# ---------------------------------------------------------------------------
# Access-predicate decomposition
# ---------------------------------------------------------------------------

#: Selectivity scores for choosing among conjunction branches.
_SCORE_EQ = 3
_SCORE_INTERVAL = 2
_SCORE_SPATIAL = 2
_SCORE_HALF_RANGE = 1
_SCORE_TEXT = 1

Bound = Tuple[Any, bool]  # (boundary value, inclusive)


@dataclass(frozen=True)
class _EqEntry:
    path: str
    key: Any


@dataclass(frozen=True)
class _RangeEntry:
    path: str
    bracket: int
    lower: Optional[Bound]
    upper: Optional[Bound]


#: A grid cell: (column from wrapped longitude, row from latitude).
_Cell = Tuple[int, int]


@dataclass(frozen=True)
class _SpatialEntry:
    """A geo predicate rasterized onto the grid.

    ``cells is None`` marks a *broad* entry: the shape is unbounded or
    covers more than :data:`_CELL_CAP` cells, so every point probe on
    the path returns it (the predicate still requires a point value at
    the path, which is why broad beats residual).
    """

    path: str
    cells: Optional[FrozenSet[_Cell]]


@dataclass(frozen=True)
class _TextEntry:
    """A ``$text`` search bucketed under its positive terms
    (document-level: ``$text`` has no path)."""

    tokens: FrozenSet[str]


_Entry = Any  # _EqEntry | _RangeEntry | _SpatialEntry | _TextEntry
_Plan = Tuple[int, List[_Entry]]

#: A shape rasterizing to more cells than this becomes a broad entry —
#: bounding per-query memory and insert/remove cost.
_CELL_CAP = 1024


def _grid_col(lon: float, cells: int) -> int:
    """Column of a longitude already wrapped into [-180, 180]."""
    return min(cells - 1, max(0, int((lon + 180.0) / 360.0 * cells)))


def _grid_row(lat: float, cells: int) -> int:
    return min(cells - 1, max(0, int((lat + 90.0) / 180.0 * cells)))


def _wrap_interval(lo: float, hi: float) -> List[Tuple[float, float]]:
    """Wrap a raw longitude interval into [-180, 180] segments.

    Both planar shapes with out-of-range legacy coordinates and
    spherical caps sticking past the antimeridian decompose into one or
    two in-range segments; a point's wrapped longitude then falls into
    a segment exactly when its raw longitude falls into the raw
    interval (up to the +-180 seam, which probes handle by checking
    both seam columns).
    """
    if hi - lo >= 360.0:
        return [(-180.0, 180.0)]
    lo_w = ((lo + 180.0) % 360.0) - 180.0
    hi_w = lo_w + (hi - lo)
    if hi_w <= 180.0:
        return [(lo_w, hi_w)]
    return [(lo_w, 180.0), (-180.0, hi_w - 360.0)]


def _raster_cells(
    boxes: List[Tuple[float, float, float, float]], cells: int
) -> Optional[FrozenSet[_Cell]]:
    """Grid cells covering *boxes*, or None when the cover is broad.

    Soundness: every in-domain point inside one of the boxes maps to a
    returned cell (latitude clamping is monotone; longitude wrapping is
    exact via :func:`_wrap_interval`).  Points outside the latitude
    domain probe broadly, so boxes entirely outside it rasterize to
    nothing — and an all-empty result falls back to broad, since only
    such out-of-domain points could ever fall into those boxes.
    """
    out: Set[_Cell] = set()
    for min_x, min_y, max_x, max_y in boxes:
        if min_y > 90.0 or max_y < -90.0:
            continue
        row_lo = _grid_row(max(min_y, -90.0), cells)
        row_hi = _grid_row(min(max_y, 90.0), cells)
        for lo, hi in _wrap_interval(min_x, max_x):
            col_lo = _grid_col(lo, cells)
            col_hi = _grid_col(hi, cells)
            span = (col_hi - col_lo + 1) * (row_hi - row_lo + 1)
            if len(out) + span > _CELL_CAP:
                return None
            for col in range(col_lo, col_hi + 1):
                for row in range(row_lo, row_hi + 1):
                    out.add((col, row))
    return frozenset(out) if out else None


def _probe_cells(point: Tuple[float, float], cells: int) -> (
        Optional[List[_Cell]]):
    """Cells a document point value probes, or None for a broad probe.

    Non-finite coordinates and latitudes outside [-90, 90] have no
    sound cell (spherical distance wraps them around the poles), so
    they conservatively probe every spatial entry on the path.  A
    longitude on the +-180 seam probes both seam columns, covering
    shapes rasterized up to either edge.
    """
    lon, lat = point
    if not (math.isfinite(lon) and math.isfinite(lat)):
        return None
    if lat < -90.0 or lat > 90.0:
        return None
    lon_w = ((lon + 180.0) % 360.0) - 180.0
    row = _grid_row(lat, cells)
    probes = [(_grid_col(lon_w, cells), row)]
    if lon_w == -180.0:
        probes.append((cells - 1, row))
    return probes


def _tighter_lower(current: Optional[Bound], new: Bound) -> Bound:
    if current is None:
        return new
    if new[0] > current[0]:
        return new
    if new[0] < current[0]:
        return current
    # Equal boundary: the exclusive bound is the stricter one.
    return new if not new[1] else current


def _tighter_upper(current: Optional[Bound], new: Bound) -> Bound:
    if current is None:
        return new
    if new[0] < current[0]:
        return new
    if new[0] > current[0]:
        return current
    return new if not new[1] else current


def _plan_leaf(predicate: FieldPredicate, grid_cells: int) -> Optional[_Plan]:
    operator = predicate.operator
    if isinstance(operator, (GeoWithin, NearSphere)):
        # Both evaluate to False for non-point values, so "a point
        # value exists at the path AND its cell is covered" is a
        # necessary condition.  Unbounded shapes (no $maxDistance,
        # whole-sphere caps, > _CELL_CAP covers) become broad entries:
        # any point at the path fires them.
        boxes = operator.bounding_boxes()
        cover = None if boxes is None else _raster_cells(boxes, grid_cells)
        return _SCORE_SPATIAL, [_SpatialEntry(predicate.path, cover)]
    if isinstance(operator, Eq):
        key = _eq_key(operator.value)
        if key is _UNSAFE:
            return None
        return _SCORE_EQ, [_EqEntry(predicate.path, key)]
    if isinstance(operator, In):
        keys = [_eq_key(item) for item in operator.values]
        if any(key is _UNSAFE for key in keys):
            return None
        # An empty $in matches nothing: an indexable plan with zero
        # entries, i.e. the query is never a candidate.
        return _SCORE_EQ, [_EqEntry(predicate.path, key) for key in keys]
    if isinstance(operator, (Gt, Gte)):
        bracket = _range_bracket(operator.value)
        if bracket is None:
            return None
        bound: Bound = (operator.value, isinstance(operator, Gte))
        return _SCORE_HALF_RANGE, [
            _RangeEntry(predicate.path, bracket, bound, None)
        ]
    if isinstance(operator, (Lt, Lte)):
        bracket = _range_bracket(operator.value)
        if bracket is None:
            return None
        bound = (operator.value, isinstance(operator, Lte))
        return _SCORE_HALF_RANGE, [
            _RangeEntry(predicate.path, bracket, None, bound)
        ]
    return None


def _plan_conjunction(
    branches: Tuple[Node, ...], grid_cells: int
) -> Optional[_Plan]:
    """Choose the best access predicate among conjunction branches.

    Every branch of a conjunction is individually *necessary*, so any
    indexable branch is a sound access predicate — we pick the highest
    scoring one.  Additionally, a lower and an upper bound on the same
    path (and bracket) combine into one interval entry: if the document
    matches, some value satisfies the tightest lower bound and some
    value the tightest upper bound; for single-valued paths that is one
    value inside the interval (the multi-value fan-out case is handled
    conservatively at probe time, see ``_PathIndex.collect``).
    """
    candidates: List[_Plan] = []
    bounds: Dict[Tuple[str, int], List[Optional[Bound]]] = {}
    for branch in branches:
        plan = _plan_node(branch, grid_cells)
        if plan is not None:
            candidates.append(plan)
        if isinstance(branch, FieldPredicate):
            operator = branch.operator
            if isinstance(operator, (Gt, Gte)):
                bracket = _range_bracket(operator.value)
                if bracket is not None:
                    slot = bounds.setdefault((branch.path, bracket), [None, None])
                    slot[0] = _tighter_lower(
                        slot[0], (operator.value, isinstance(operator, Gte))
                    )
            elif isinstance(operator, (Lt, Lte)):
                bracket = _range_bracket(operator.value)
                if bracket is not None:
                    slot = bounds.setdefault((branch.path, bracket), [None, None])
                    slot[1] = _tighter_upper(
                        slot[1], (operator.value, isinstance(operator, Lte))
                    )
    for (path, bracket), (lower, upper) in bounds.items():
        if lower is not None and upper is not None:
            candidates.append(
                (_SCORE_INTERVAL, [_RangeEntry(path, bracket, lower, upper)])
            )
    if not candidates:
        return None
    return max(candidates, key=lambda plan: (plan[0], -len(plan[1])))


def _plan_node(node: Node, grid_cells: int) -> Optional[_Plan]:
    """Decompose *node* into access-predicate entries, or None (residual).

    The returned entries have *union* semantics: the query is a
    candidate as soon as any one entry fires.
    """
    if isinstance(node, FieldPredicate):
        return _plan_leaf(node, grid_cells)
    if isinstance(node, TextSearch):
        # Indexable by its positive terms alone: a match requires SOME
        # positive term in the document's token set, so bucketing under
        # each term is a necessary condition.  Phrases and negated
        # terms only restrict further — they never prune.  Without a
        # positive term the match can hinge on substring phrases (or
        # pure negation), which token buckets cannot decide: residual.
        terms = frozenset(node.parsed.terms)
        if not terms:
            return None
        return _SCORE_TEXT, [_TextEntry(terms)]
    if isinstance(node, AllOf):
        return _plan_conjunction(conjunctive_branches(node), grid_cells)
    if isinstance(node, AnyOf):
        # A disjunction is indexable only when EVERY branch is: the
        # matching branch is unknown in advance, so each contributes its
        # entries and the union stays a necessary condition.
        plans = [_plan_node(branch, grid_cells) for branch in node.branches]
        if any(plan is None for plan in plans):
            return None
        entries = [entry for _, branch_entries in plans for entry in branch_entries]
        return min(score for score, _ in plans), entries
    # Always, Not, NoneOf (and anything unknown): residual.
    return None


def decompose(query: Query, *, grid_cells: int = 64) -> Optional[List[_Entry]]:
    """Public decomposition hook: entries for *query*, or None (residual).

    An empty entry list means the access predicate is unsatisfiable
    (e.g. ``$in: []`` or an empty interval): the query can never match
    and is never a candidate.  *grid_cells* is the spatial grid
    resolution (cells per axis).
    """
    branches = conjunctive_branches(query.node)
    if not branches:
        return None  # the empty filter matches everything: residual
    plan = _plan_conjunction(branches, grid_cells)
    return None if plan is None else plan[1]


# ---------------------------------------------------------------------------
# Centered interval tree (two-sided ranges)
# ---------------------------------------------------------------------------

#: (lower, lower_inclusive, upper, upper_inclusive, query_id)
_Interval = Tuple[Any, bool, Any, bool, str]

_LEAF_SIZE = 8


def _interval_empty(lower: Bound, upper: Bound) -> bool:
    if lower[0] > upper[0]:
        return True
    if lower[0] == upper[0]:
        return not (lower[1] and upper[1])
    return False


class _IntervalNode:
    """One node of a centered interval tree.

    ``center is None`` marks a leaf holding few intervals scanned
    linearly.  Interior nodes keep the intervals containing ``center``
    sorted by lower bound (ascending, inclusive-first) and by upper
    bound (descending, inclusive-first) so a stab only walks the
    matching prefix.
    """

    __slots__ = ("center", "left", "right", "by_lower", "by_upper")

    def __init__(self) -> None:
        self.center: Any = None
        self.left: Optional["_IntervalNode"] = None
        self.right: Optional["_IntervalNode"] = None
        self.by_lower: List[_Interval] = []
        self.by_upper: List[_Interval] = []


def _build_tree(intervals: List[_Interval]) -> Optional[_IntervalNode]:
    if not intervals:
        return None
    node = _IntervalNode()
    if len(intervals) <= _LEAF_SIZE:
        node.by_lower = list(intervals)
        return node
    endpoints = sorted(
        [iv[0] for iv in intervals] + [iv[2] for iv in intervals]
    )
    center = endpoints[len(endpoints) // 2]
    left: List[_Interval] = []
    right: List[_Interval] = []
    mid: List[_Interval] = []
    for iv in intervals:
        lower, lower_incl, upper, upper_incl, _ = iv
        if upper < center or (upper == center and not upper_incl):
            left.append(iv)
        elif lower > center or (lower == center and not lower_incl):
            right.append(iv)
        else:
            mid.append(iv)
    if not mid and (not left or not right):
        # Degenerate split (identical endpoints): linear leaf.
        node.by_lower = list(intervals)
        return node
    node.center = center
    node.by_lower = sorted(mid, key=lambda iv: (_SortKey(iv[0]), not iv[1]))
    node.by_upper = sorted(
        mid, key=lambda iv: (_SortKey(iv[2]), iv[3]), reverse=True
    )
    node.left = _build_tree(left)
    node.right = _build_tree(right)
    return node


class _SortKey:
    """Total-order wrapper so mixed int/float bounds sort stably."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _stab_tree(node: Optional[_IntervalNode], value: Any, out: Set[str]) -> None:
    while node is not None:
        if node.center is None:
            for lower, lower_incl, upper, upper_incl, query_id in node.by_lower:
                if (lower < value or (lower == value and lower_incl)) and (
                    upper > value or (upper == value and upper_incl)
                ):
                    out.add(query_id)
            return
        if value < node.center:
            for lower, lower_incl, _, _, query_id in node.by_lower:
                if lower < value or (lower == value and lower_incl):
                    out.add(query_id)
                else:
                    break
            node = node.left
        elif value > node.center:
            for _, _, upper, upper_incl, query_id in node.by_upper:
                if upper > value or (upper == value and upper_incl):
                    out.add(query_id)
                else:
                    break
            node = node.right
        else:
            # Every mid interval contains the center by construction.
            for iv in node.by_lower:
                out.add(iv[4])
            return


# ---------------------------------------------------------------------------
# Per-path structures
# ---------------------------------------------------------------------------


class _PathIndex:
    """All indexable entries for one ``(collection, path)``."""

    __slots__ = ("eq", "lower_keys", "lowers", "upper_keys", "uppers",
                 "intervals", "trees", "spatial_cells", "spatial_broad")

    def __init__(self) -> None:
        self.eq: Dict[Any, Set[str]] = {}
        # One-sided bounds: parallel (keys, entries) lists per bracket,
        # sorted by boundary for bisect.
        self.lower_keys: Dict[int, List[Any]] = {}
        self.lowers: Dict[int, List[Tuple[Any, bool, str]]] = {}
        self.upper_keys: Dict[int, List[Any]] = {}
        self.uppers: Dict[int, List[Tuple[Any, bool, str]]] = {}
        # Two-sided intervals per bracket + lazily (re)built trees.
        self.intervals: Dict[int, List[_Interval]] = {}
        self.trees: Dict[int, Optional[_IntervalNode]] = {}
        # Spatial grid: cell -> query ids, plus the broad set fired by
        # every point probe (unbounded / over-cap shapes).
        self.spatial_cells: Dict[_Cell, Set[str]] = {}
        self.spatial_broad: Set[str] = set()

    @property
    def has_spatial(self) -> bool:
        return bool(self.spatial_cells) or bool(self.spatial_broad)

    # -- mutation -----------------------------------------------------------

    def insert(self, entry: _Entry, query_id: str) -> None:
        if isinstance(entry, _SpatialEntry):
            if entry.cells is None:
                self.spatial_broad.add(query_id)
            else:
                for cell in entry.cells:
                    self.spatial_cells.setdefault(cell, set()).add(query_id)
            return
        if isinstance(entry, _EqEntry):
            self.eq.setdefault(entry.key, set()).add(query_id)
            return
        if entry.lower is not None and entry.upper is not None:
            if _interval_empty(entry.lower, entry.upper):
                # Unsatisfiable access predicate: the query can never
                # match, so it is (correctly) never a candidate.
                return
            interval: _Interval = (
                entry.lower[0], entry.lower[1],
                entry.upper[0], entry.upper[1], query_id,
            )
            self.intervals.setdefault(entry.bracket, []).append(interval)
            self.trees.pop(entry.bracket, None)  # mark dirty
            return
        if entry.lower is not None:
            keys = self.lower_keys.setdefault(entry.bracket, [])
            entries = self.lowers.setdefault(entry.bracket, [])
            position = bisect_right(keys, entry.lower[0])
            keys.insert(position, entry.lower[0])
            entries.insert(position, (entry.lower[0], entry.lower[1], query_id))
            return
        if entry.upper is not None:
            keys = self.upper_keys.setdefault(entry.bracket, [])
            entries = self.uppers.setdefault(entry.bracket, [])
            position = bisect_right(keys, entry.upper[0])
            keys.insert(position, entry.upper[0])
            entries.insert(position, (entry.upper[0], entry.upper[1], query_id))

    def remove(self, entry: _Entry, query_id: str) -> None:
        if isinstance(entry, _SpatialEntry):
            if entry.cells is None:
                self.spatial_broad.discard(query_id)
            else:
                for cell in entry.cells:
                    bucket = self.spatial_cells.get(cell)
                    if bucket is not None:
                        bucket.discard(query_id)
                        if not bucket:
                            del self.spatial_cells[cell]
            return
        if isinstance(entry, _EqEntry):
            bucket = self.eq.get(entry.key)
            if bucket is not None:
                bucket.discard(query_id)
                if not bucket:
                    del self.eq[entry.key]
            return
        bracket = entry.bracket
        if entry.lower is not None and entry.upper is not None:
            intervals = self.intervals.get(bracket)
            if intervals is not None:
                self.intervals[bracket] = [
                    iv for iv in intervals if iv[4] != query_id
                ]
                if not self.intervals[bracket]:
                    del self.intervals[bracket]
                self.trees.pop(bracket, None)
            return
        if entry.lower is not None:
            self._remove_one_sided(
                self.lower_keys, self.lowers, bracket, query_id
            )
        elif entry.upper is not None:
            self._remove_one_sided(
                self.upper_keys, self.uppers, bracket, query_id
            )

    @staticmethod
    def _remove_one_sided(
        keys_map: Dict[int, List[Any]],
        entries_map: Dict[int, List[Tuple[Any, bool, str]]],
        bracket: int,
        query_id: str,
    ) -> None:
        entries = entries_map.get(bracket)
        if entries is None:
            return
        kept = [item for item in entries if item[2] != query_id]
        if kept:
            entries_map[bracket] = kept
            keys_map[bracket] = [item[0] for item in kept]
        else:
            del entries_map[bracket]
            del keys_map[bracket]

    # -- probing ------------------------------------------------------------

    def collect(
        self,
        values: List[Any],
        fan_out: bool,
        out: Set[str],
        hits: Dict[str, int],
    ) -> None:
        """Add every query id whose entry fires for *values*.

        *values* are the comparable candidate values the path resolves
        to (containers already dropped — no indexed entry can match
        them).  *fan_out* signals more than one candidate value: the
        interval tree is bypassed (two different elements may satisfy
        the two bounds) in favour of returning every interval entry.
        *hits* accumulates per-family candidate counts (first-touch
        attribution: a query already produced by an earlier family is
        not recounted).  Only the families the path holds are probed.
        """
        eq = self.eq
        one_sided = bool(self.lower_keys or self.upper_keys)
        intervals = self.intervals
        probed_brackets: Optional[Set[int]] = set() if fan_out else None
        for value in values:
            if eq:
                key = _eq_key(value)
                if key is not _UNSAFE:
                    bucket = eq.get(key)
                    if bucket is not None:
                        before = len(out)
                        out.update(bucket)
                        hits["equality"] += len(out) - before
            if isinstance(value, float) and math.isnan(value):
                # NaN cannot be bisected into a boundary list or
                # looked up in a bucket.  The engine matches it against
                # almost nothing, so returning every numeric bound AND
                # every numeric equality entry is merely conservative.
                before = len(out)
                self._collect_all_ranges(_NUMBER, out)
                hits["range"] += len(out) - before
                before = len(out)
                for key, bucket in self.eq.items():
                    if (
                        not isinstance(key, bool)
                        and isinstance(key, (int, float))
                    ):
                        out.update(bucket)
                hits["equality"] += len(out) - before
                if probed_brackets is not None:
                    probed_brackets.add(_NUMBER)
                continue
            bracket = _range_bracket(value)
            if bracket is None:
                continue
            if one_sided:
                before = len(out)
                self._stab_one_sided(bracket, value, out)
                hits["range"] += len(out) - before
            if probed_brackets is not None:
                probed_brackets.add(bracket)
            elif bracket in intervals:
                tree = self.trees.get(bracket)
                if tree is None:
                    tree = self.trees[bracket] = _build_tree(intervals[bracket])
                before = len(out)
                _stab_tree(tree, value, out)
                hits["interval"] += len(out) - before
        if probed_brackets:
            before = len(out)
            for bracket in probed_brackets:
                for iv in intervals.get(bracket, ()):
                    out.add(iv[4])
            hits["interval"] += len(out) - before

    def collect_spatial(
        self,
        probes: Optional[List[_Cell]],
        out: Set[str],
        hits: Dict[str, int],
    ) -> None:
        """Add spatial candidates for the given cell probes.

        ``probes is None`` is the broad probe (a point value outside
        the grid's domain): every spatial entry on the path fires.  An
        empty probe list means the path held no point value — no
        spatial predicate can match, so nothing fires (this is the
        pruning win over residual)."""
        before = len(out)
        if probes is None:
            out.update(self.spatial_broad)
            for bucket in self.spatial_cells.values():
                out.update(bucket)
        elif probes:
            out.update(self.spatial_broad)
            for cell in probes:
                bucket = self.spatial_cells.get(cell)
                if bucket is not None:
                    out.update(bucket)
        hits["spatial"] += len(out) - before

    def _stab_one_sided(self, bracket: int, value: Any, out: Set[str]) -> None:
        keys = self.lower_keys.get(bracket)
        if keys:
            entries = self.lowers[bracket]
            strict = bisect_left(keys, value)
            loose = bisect_right(keys, value, lo=strict)
            for item in entries[:strict]:
                out.add(item[2])
            for item in entries[strict:loose]:
                if item[1]:  # inclusive bound at exactly this value
                    out.add(item[2])
        keys = self.upper_keys.get(bracket)
        if keys:
            entries = self.uppers[bracket]
            strict = bisect_left(keys, value)
            loose = bisect_right(keys, value, lo=strict)
            for item in entries[loose:]:
                out.add(item[2])
            for item in entries[strict:loose]:
                if item[1]:
                    out.add(item[2])

    def _collect_all_ranges(self, bracket: int, out: Set[str]) -> None:
        for item in self.lowers.get(bracket, ()):
            out.add(item[2])
        for item in self.uppers.get(bracket, ()):
            out.add(item[2])
        for iv in self.intervals.get(bracket, ()):
            out.add(iv[4])

    # -- introspection ------------------------------------------------------

    def entry_counts(self) -> Dict[str, int]:
        spatial_queries: Set[str] = set(self.spatial_broad)
        for bucket in self.spatial_cells.values():
            spatial_queries.update(bucket)
        return {
            "eq_buckets": len(self.eq),
            "eq_entries": sum(len(bucket) for bucket in self.eq.values()),
            "range_entries": sum(len(v) for v in self.lowers.values())
            + sum(len(v) for v in self.uppers.values()),
            "interval_entries": sum(len(v) for v in self.intervals.values()),
            "spatial_entries": len(spatial_queries),
            "spatial_cells": len(self.spatial_cells),
        }


class _CollectionIndex:
    """The per-collection discriminator: paths + residual set + the
    document-level inverted token index for ``$text``."""

    __slots__ = ("paths", "residual", "text_tokens")

    def __init__(self) -> None:
        self.paths: Dict[str, _PathIndex] = {}
        self.residual: Set[str] = set()
        #: Folded positive term -> query ids searching for it.
        self.text_tokens: Dict[str, Set[str]] = {}

    def insert(self, entry: _Entry, query_id: str) -> None:
        if isinstance(entry, _TextEntry):
            for token in entry.tokens:
                self.text_tokens.setdefault(token, set()).add(query_id)
            return
        path_index = self.paths.get(entry.path)
        if path_index is None:
            path_index = self.paths[entry.path] = _PathIndex()
        path_index.insert(entry, query_id)

    def remove(self, entry: _Entry, query_id: str) -> None:
        if isinstance(entry, _TextEntry):
            for token in entry.tokens:
                bucket = self.text_tokens.get(token)
                if bucket is not None:
                    bucket.discard(query_id)
                    if not bucket:
                        del self.text_tokens[token]
            return
        path_index = self.paths.get(entry.path)
        if path_index is not None:
            path_index.remove(entry, query_id)


# ---------------------------------------------------------------------------
# The index proper
# ---------------------------------------------------------------------------


class QueryIndex:
    """Candidate generation over the active queries of a matching node.

    ``grid_cells`` is the spatial grid resolution per axis, an int in
    [1, 4096].
    """

    def __init__(self, grid_cells: int = 64) -> None:
        if (
            isinstance(grid_cells, bool)
            or not isinstance(grid_cells, int)
            or not 1 <= grid_cells <= 4096
        ):
            raise ValueError("grid_cells must be an int in [1, 4096]")
        self._grid_cells = grid_cells
        self._collections: Dict[str, _CollectionIndex] = {}
        #: query_id -> (collection, entries or None when residual)
        self._plans: Dict[str, Tuple[str, Optional[List[_Entry]]]] = {}
        #: Candidate hits attributed to the access path that produced
        #: them (first-touch within one probe; see ``_PathIndex.collect``).
        self.hits: Dict[str, int] = {
            "residual": 0,
            "equality": 0,
            "range": 0,
            "interval": 0,
            "spatial": 0,
            "text": 0,
        }

    def add(self, query: Query, query_id: Optional[str] = None) -> bool:
        """Index *query* under *query_id* (default: its own); True when
        it got an access predicate.

        Re-adding an already indexed query id is a no-op (query ids are
        canonical: the same id is always the same query).
        """
        if query_id is None:
            query_id = query.query_id
        existing = self._plans.get(query_id)
        if existing is not None:
            return existing[1] is not None
        entries = decompose(query, grid_cells=self._grid_cells)
        collection_index = self._collections.get(query.collection)
        if collection_index is None:
            collection_index = _CollectionIndex()
            self._collections[query.collection] = collection_index
        if entries is None:
            collection_index.residual.add(query_id)
        else:
            for entry in entries:
                collection_index.insert(entry, query_id)
        self._plans[query_id] = (query.collection, entries)
        return entries is not None

    def remove(self, query_id: str) -> bool:
        """Drop a query's entries; True when it was indexed."""
        plan = self._plans.pop(query_id, None)
        if plan is None:
            return False
        collection, entries = plan
        collection_index = self._collections[collection]
        if entries is None:
            collection_index.residual.discard(query_id)
        else:
            for entry in entries:
                collection_index.remove(entry, query_id)
        return True

    def candidates(
        self,
        document: Document,
        collection: str,
        tokens: Optional[LazyTokens] = None,
    ) -> Set[str]:
        """Query ids that might match *document* (a superset, see module
        docstring).  Queries over other collections never appear.
        *tokens* is the document's lazy token set when the caller shares
        one with the evaluation that follows; the text probe reads it."""
        out: Set[str] = set()
        collection_index = self._collections.get(collection)
        if collection_index is None:
            return out
        hits = self.hits
        if collection_index.residual:
            out.update(collection_index.residual)
            hits["residual"] += len(collection_index.residual)
        grid_cells = self._grid_cells
        # A top-level path of a plain dict is one lookup (the rule
        # ``matcher._compile_field`` follows); every other shape is walked.
        plain = type(document) is dict
        for path, path_index in collection_index.paths.items():
            if plain and "." not in path:
                value = document.get(path, _MISSING)
                if value is _MISSING:
                    continue
                terminals: List[Any] = [value]
            else:
                terminals, exists = resolve_path(document, path)
                if not exists:
                    continue
            values: List[Any] = []
            for terminal in terminals:
                if isinstance(terminal, (list, tuple)):
                    values.extend(
                        element for element in terminal
                        if not isinstance(element, (dict, list, tuple))
                    )
                elif not isinstance(terminal, dict):
                    values.append(terminal)
            if values:
                path_index.collect(values, len(values) > 1, out, hits)
            if path_index.has_spatial:
                # Spatial probing runs over the RAW terminals: point
                # values are containers ([lon, lat] pairs or GeoJSON
                # dicts), which the comparable-value filter above
                # rightly drops.  Candidate points mirror the matcher's
                # array fan-out — the terminal itself plus, for array
                # terminals, each element.
                probes: Optional[List[_Cell]] = []
                for terminal in terminals:
                    candidates = [terminal]
                    if isinstance(terminal, (list, tuple)):
                        candidates.extend(terminal)
                    for value in candidates:
                        point = as_point(value)
                        if point is None:
                            continue
                        cell_probe = _probe_cells(point, grid_cells)
                        if cell_probe is None:
                            probes = None
                            break
                        probes.extend(cell_probe)
                    if probes is None:
                        break
                path_index.collect_spatial(probes, out, hits)
        if collection_index.text_tokens:
            before = len(out)
            buckets = collection_index.text_tokens
            for token in (
                document_tokens(document) if tokens is None else tokens()
            ):
                bucket = buckets.get(token)
                if bucket is not None:
                    out.update(bucket)
            hits["text"] += len(out) - before
        return out

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._plans

    @property
    def residual_count(self) -> int:
        return sum(
            1 for _, entries in self._plans.values() if entries is None
        )

    def stats(self) -> Dict[str, Any]:
        """Structure counters for operational introspection."""
        totals = {
            "eq_buckets": 0,
            "eq_entries": 0,
            "range_entries": 0,
            "interval_entries": 0,
            "spatial_entries": 0,
            "spatial_cells": 0,
        }
        paths = 0
        text_tokens = 0
        text_queries: Set[str] = set()
        for collection_index in self._collections.values():
            paths += len(collection_index.paths)
            for path_index in collection_index.paths.values():
                for key, count in path_index.entry_counts().items():
                    totals[key] += count
            text_tokens += len(collection_index.text_tokens)
            for bucket in collection_index.text_tokens.values():
                text_queries.update(bucket)
        return {
            "queries": len(self._plans),
            "residual_queries": self.residual_count,
            "collections": len(self._collections),
            "paths": paths,
            **totals,
            "text_tokens": text_tokens,
            "text_entries": len(text_queries),
            "hits": dict(self.hits),
        }

    def __repr__(self) -> str:
        return (
            f"QueryIndex({len(self._plans)} queries, "
            f"{self.residual_count} residual, "
            f"{len(self._collections)} collections)"
        )


__all__ = ["QueryIndex", "decompose"]
