"""Sort specifications and BSON-style value ordering.

The paper requires the real-time query engine to "sort the result
according to database semantics" (Section 5.3) and notes that the
sorting key must be unambiguous, so the prototype "adds the primary key
as final attribute to the sorting key".  This module implements both:

* :func:`compare_values` — the one executable definition of the total
  order over JSON values, following the BSON type-bracket ordering used
  by MongoDB (null < numbers < strings < objects < arrays < booleans;
  within the numbers NaN sorts below every other number and equals
  only NaN);
* :func:`value_sort_key` — the same order compiled into a native key: a
  plain tuple ``(bracket, payload…)`` that CPython compares in C, so
  every ``sorted``/``bisect`` over keys runs without a Python-level
  comparator (``tests/test_native_sort_keys.py`` pins the keys to
  :func:`compare_values`);
* :class:`SortSpec` — a multi-attribute sort specification with
  ascending/descending directions and an implicit primary-key tiebreak;
  its ``key()`` is the tuple of the fields' native keys.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import SortSpecError
from repro.types import PRIMARY_KEY, Document

# BSON type brackets, in ascending order.  MongoDB orders missing/null
# lowest, then numbers (int and float compare numerically with each
# other), then strings, objects, arrays and booleans.
_TYPE_MISSING = 0
_TYPE_NULL = 1
_TYPE_NUMBER = 2
_TYPE_STRING = 3
_TYPE_OBJECT = 4
_TYPE_ARRAY = 5
_TYPE_BOOL = 6

_MISSING = object()
_FIELD_NAME = operator.itemgetter(0)


def type_bracket(value: Any) -> int:
    """Return the BSON type bracket of *value* (used for cross-type order)."""
    if value is _MISSING:
        return _TYPE_MISSING
    if value is None:
        return _TYPE_NULL
    # bool is a subclass of int in Python; BSON orders booleans separately
    # and *after* arrays, so it must be tested before the number check.
    if isinstance(value, bool):
        return _TYPE_BOOL
    if isinstance(value, (int, float)):
        return _TYPE_NUMBER
    if isinstance(value, str):
        return _TYPE_STRING
    if isinstance(value, dict):
        return _TYPE_OBJECT
    if isinstance(value, (list, tuple)):
        return _TYPE_ARRAY
    raise SortSpecError(f"value of unsupported type for ordering: {value!r}")


def compare_values(a: Any, b: Any) -> int:
    """Three-way comparison of two JSON values under BSON ordering.

    Returns a negative number, zero, or a positive number as *a* sorts
    before, equal to, or after *b*.
    """
    bracket_a, bracket_b = type_bracket(a), type_bracket(b)
    if bracket_a != bracket_b:
        return -1 if bracket_a < bracket_b else 1
    if bracket_a in (_TYPE_MISSING, _TYPE_NULL):
        return 0
    if bracket_a == _TYPE_NUMBER:
        if a < b:
            return -1
        if a > b:
            return 1
        if a == b:
            return 0
        # Unordered means NaN is involved.  MongoDB's sort order: NaN
        # sorts below every other number and is equal only to NaN —
        # without this the comparator is not a total order.
        return (b != b) - (a != a)
    if bracket_a == _TYPE_STRING:
        return (a > b) - (a < b)
    if bracket_a == _TYPE_BOOL:
        return (a is True) - (b is True) if a is not b else 0
    if bracket_a == _TYPE_ARRAY:
        for elem_a, elem_b in zip(a, b):
            cmp = compare_values(elem_a, elem_b)
            if cmp != 0:
                return cmp
        return (len(a) > len(b)) - (len(a) < len(b))
    # Objects: compare by ordered (key, value) pairs, like BSON does by
    # field order; we canonicalize to sorted key order for determinism.
    items_a = sorted(a.items(), key=_FIELD_NAME)
    items_b = sorted(b.items(), key=_FIELD_NAME)
    for (key_a, val_a), (key_b, val_b) in zip(items_a, items_b):
        if key_a != key_b:
            return -1 if key_a < key_b else 1
        cmp = compare_values(val_a, val_b)
        if cmp != 0:
            return cmp
    return (len(items_a) > len(items_b)) - (len(items_a) < len(items_b))


class _Descending:
    """Invert the order of one non-numeric payload (descending fields).

    Numbers, booleans and the brackets themselves are negated instead,
    so only strings, objects and arrays of a descending field pay for a
    Python-level comparison.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        return self.payload == other.payload  # type: ignore[attr-defined]

    def __lt__(self, other: "_Descending") -> bool:
        return self.payload > other.payload

    def __le__(self, other: "_Descending") -> bool:
        return self.payload >= other.payload

    def __gt__(self, other: "_Descending") -> bool:
        return self.payload < other.payload

    def __ge__(self, other: "_Descending") -> bool:
        return self.payload <= other.payload

    def __repr__(self) -> str:
        return f"_Descending({self.payload!r})"


def value_sort_key(value: Any, direction: int = 1) -> Tuple[Any, ...]:
    """Return the native sort key of one JSON value.

    The key is a plain tuple ``(bracket, payload…)`` that CPython
    compares in C and that orders exactly like :func:`compare_values`:
    missing ``(0,)``, null ``(1,)``, numbers ``(2, 1, x)`` with NaN
    ``(2, 0, 0)``, strings ``(3, s)``, objects ``(4, ((k, key(v)), …))``
    in sorted key order, arrays ``(5, (key(e), …))``, booleans
    ``(6, b)``.  The number itself is kept (never coerced to float), so
    integers beyond 2**53 keep their order next to floats.

    With ``direction=-1`` the bracket, numbers and booleans are negated
    (``(-2, -1, -x)``) and every other payload is wrapped in
    :class:`_Descending`; nested keys stay ascending under the wrapper.
    """
    kind = type(value)
    if kind is float or kind is int:
        bracket = _TYPE_NUMBER
    elif kind is str:
        bracket = _TYPE_STRING
    else:
        bracket = type_bracket(value)
    if bracket == _TYPE_NUMBER:
        if value != value:
            return (bracket * direction, 0, 0)
        return (bracket * direction, direction, value * direction)
    if bracket == _TYPE_STRING:
        payload: Any = value
    elif bracket == _TYPE_OBJECT:
        payload = tuple(
            (name, value_sort_key(member))
            for name, member in sorted(value.items(), key=_FIELD_NAME)
        )
    elif bracket == _TYPE_ARRAY:
        payload = tuple(value_sort_key(element) for element in value)
    elif bracket == _TYPE_BOOL:
        return (bracket * direction, value * direction)
    else:
        return (bracket * direction,)
    if direction == 1:
        return (bracket, payload)
    return (-bracket, _Descending(payload))


def resolve_simple_path(document: Document, path: str) -> Any:
    """Resolve a dotted *path* for sorting (no array fan-out).

    Returns the sentinel ``_MISSING`` when the path does not exist,
    which sorts lowest — matching MongoDB, where documents missing the
    sort field come first in ascending order.
    """
    current: Any = document
    for part in path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        elif isinstance(current, (list, tuple)) and part.isdigit():
            index = int(part)
            if index < len(current):
                current = current[index]
            else:
                return _MISSING
        else:
            return _MISSING
    return current


SortInput = Union[
    "SortSpec",
    Sequence[Tuple[str, int]],
    Dict[str, int],
    None,
]


# Precompiled sort-key extractors, shared across every SortSpec with the
# same normalized field tuple.  The sorting stage calls ``key()`` once
# per window event, so the extractor pre-splits each dotted path (and
# pre-parses numeric steps) exactly once per distinct spec instead of
# on every call.
_EXTRACTOR_CACHE: Dict[Tuple[Tuple[str, int], ...], Any] = {}


def _compile_extractor(fields: Tuple[Tuple[str, int], ...]):
    plan = []
    for path, direction in fields:
        steps = tuple(
            (part, int(part) if part.isdigit() else None)
            for part in path.split(".")
        )
        plan.append((steps, direction))

    def extract(document: Document) -> Tuple[Any, ...]:
        parts: List[Any] = []
        for steps, direction in plan:
            current: Any = document
            for part, index in steps:
                if isinstance(current, dict):
                    if part in current:
                        current = current[part]
                        continue
                elif index is not None and isinstance(current, (list, tuple)):
                    if index < len(current):
                        current = current[index]
                        continue
                current = _MISSING
                break
            parts.append(value_sort_key(current, direction))
        return tuple(parts)

    return extract


def compiled_sort_key_extractor(fields: Tuple[Tuple[str, int], ...]):
    """Return the shared compiled extractor for a normalized field tuple."""
    extractor = _EXTRACTOR_CACHE.get(fields)
    if extractor is None:
        extractor = _compile_extractor(fields)
        _EXTRACTOR_CACHE[fields] = extractor
    return extractor


class SortSpec:
    """A multi-attribute sort specification.

    Constructed from a list of ``(field, direction)`` pairs (direction
    ``1`` ascending, ``-1`` descending), or a dict in insertion order.
    The primary key is always appended as a final ascending tiebreak
    unless it already appears, making the order total over documents
    with distinct keys — exactly the disambiguation the paper's
    prototype applies (Section 5.2, footnote 4).
    """

    __slots__ = ("fields", "_extractor")

    def __init__(self, fields: Sequence[Tuple[str, int]]):
        if not fields:
            raise SortSpecError("sort specification must not be empty")
        seen = set()
        cleaned: List[Tuple[str, int]] = []
        for path, direction in fields:
            if direction not in (1, -1):
                raise SortSpecError(
                    f"sort direction must be 1 or -1, got {direction!r} for {path!r}"
                )
            if not isinstance(path, str) or not path:
                raise SortSpecError(f"sort field must be a non-empty string: {path!r}")
            if path in seen:
                raise SortSpecError(f"duplicate sort field: {path!r}")
            seen.add(path)
            cleaned.append((path, direction))
        if PRIMARY_KEY not in seen:
            cleaned.append((PRIMARY_KEY, 1))
        self.fields = tuple(cleaned)
        self._extractor = compiled_sort_key_extractor(self.fields)

    @classmethod
    def coerce(cls, spec: SortInput) -> "SortSpec":
        """Build a :class:`SortSpec` from user input, or raise."""
        if isinstance(spec, SortSpec):
            return spec
        if spec is None:
            raise SortSpecError("cannot coerce None into a sort specification")
        if isinstance(spec, dict):
            return cls(list(spec.items()))
        return cls(list(spec))

    def key(self, document: Document) -> Tuple[Any, ...]:
        """Return the composite sort key of *document*.

        Delegates to the precompiled extractor shared across all specs
        with the same normalized field tuple (paths pre-split) —
        semantics identical to resolving each path with
        :func:`resolve_simple_path` and taking :func:`value_sort_key`
        in the field's direction.
        """
        return self._extractor(document)

    def compare(self, a: Document, b: Document) -> int:
        """Three-way comparison of two documents under this spec."""
        for path, direction in self.fields:
            cmp = compare_values(
                resolve_simple_path(a, path), resolve_simple_path(b, path)
            )
            if cmp != 0:
                return cmp * direction
        return 0

    def sort(self, documents: Iterable[Document]) -> List[Document]:
        """Return *documents* as a new list sorted under this spec."""
        return sorted(documents, key=self.key)

    def canonical(self) -> Tuple[Tuple[str, int], ...]:
        """A hashable canonical representation (used for query identity)."""
        return self.fields

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortSpec) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{path}:{direction:+d}" for path, direction in self.fields)
        return f"SortSpec({inner})"


def compare_documents(a: Document, b: Document, spec: SortInput) -> int:
    """Three-way comparison of documents under *spec* (coerced)."""
    return SortSpec.coerce(spec).compare(a, b)


def document_sort_key(document: Document, spec: SortInput) -> Tuple[Any, ...]:
    """Return the composite sort key of *document* under *spec*."""
    return SortSpec.coerce(spec).key(document)
