"""Leaf query operators of the MongoDB-compatible engine.

Each operator decides a single *candidate value*.  MongoDB's array
fan-out (a predicate on ``tags`` matches when *any element* of an array
field matches) is handled by the matcher, not here.  Operators that
apply to the array as a whole (``$size``, ``$all``, ``$elemMatch``) set
:attr:`Operator.whole_array_only`.

:meth:`Operator.evaluate` is where an operator's semantics are defined.
What the compiled matcher (:func:`repro.query.matcher.compile_node`)
actually calls per candidate is :meth:`Operator.value_test`, built once
per leaf: by default ``evaluate`` itself; ``$eq``, ``$in``, the four
comparisons and the geo operators return a closure that decides the
value types their *operand* makes comparable natively (no type-bracket
lookup, no three-way comparison, no ``try``) and hands every other
value to ``evaluate``.  A value test must agree with ``evaluate`` on
every value (``tests/test_compiled_matcher.py``).

Every operator also provides :meth:`Operator.canonical`, a hashable,
order-independent representation used to compute the canonical query
hash for partitioning (Section 5.1 of the paper).
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable, Sequence, Tuple

from repro.errors import QueryParseError, SortSpecError
from repro.query.sortspec import compare_values, type_bracket

_NUMBER = type_bracket(0)

ValueTest = Callable[[Any], bool]


def freeze(value: Any) -> Any:
    """Recursively convert *value* into a hashable structure."""
    if isinstance(value, dict):
        return tuple(sorted((key, freeze(val)) for key, val in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(freeze, value), key=repr))
    return value


def values_equal(a: Any, b: Any) -> bool:
    """MongoDB equality: same type bracket and equal under BSON ordering.

    A value of a type BSON ordering does not cover equals nothing.
    """
    try:
        if type_bracket(a) != type_bracket(b):
            return False
        return compare_values(a, b) == 0
    except SortSpecError:
        return False


def _natively_comparable(operand: Any) -> Tuple[type, ...]:
    """The value types Python compares with *operand* exactly as BSON does.

    A string operand compares natively with ``str`` values, a non-NaN
    ``int``/``float`` operand with ``int``/``float`` values (a NaN
    *value* is then unequal and unordered, which is the NaN rule);
    ``()`` for every other operand.  Exact types only: ``bool`` and any
    subclass take the generic path.
    """
    if type(operand) is str:
        return (str,)
    if type(operand) in (int, float) and operand == operand:
        return (int, float)
    return ()


def _native_test(
    native: Tuple[type, ...],
    decide: Callable[[Any, Any], bool],
    operand: Any,
    generic: ValueTest,
) -> ValueTest:
    """``decide(value, operand)`` for values of a *native* type,
    *generic* (the operator's ``evaluate``) for every other value."""

    def test(value: Any) -> bool:
        if type(value) in native:
            return decide(value, operand)
        return generic(value)

    return test


def _is_member(value: Any, members: Any) -> bool:
    return value in members


class Operator:
    """Base class for leaf operators."""

    name = "$abstract"
    #: When True the matcher evaluates only the whole field value, never
    #: individual array elements.
    whole_array_only = False

    def evaluate(self, value: Any) -> bool:
        raise NotImplementedError

    def value_test(self) -> ValueTest:
        """The per-candidate test a compiled leaf calls (see module
        docstring).  Overrides return ``self.evaluate`` when a subclass
        redefined ``evaluate``, so a subclass never runs its parent's
        specialisation."""
        return self.evaluate

    def canonical(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def _identity(self) -> Tuple[Tuple[Any, ...], int]:
        """Canonical form and its hash, computed on first use.

        Operators are immutable after construction, so the canonical
        form is built once instead of paying a recursive ``freeze``
        (and a sort for ``$in``/``$all``) per ``hash``/``==``.
        """
        try:
            return self._cached_identity
        except AttributeError:
            canonical = self.canonical()
            self._cached_identity = (canonical, hash(canonical))
            return self._cached_identity

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        mine, theirs = self._identity(), other._identity()
        return mine[1] == theirs[1] and mine[0] == theirs[0]

    def __hash__(self) -> int:
        return self._identity()[1]

    def __repr__(self) -> str:
        return f"{self.name}{self.canonical()[1:]}"


class Eq(Operator):
    """``$eq`` — BSON equality."""

    name = "$eq"

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, value: Any) -> bool:
        return values_equal(value, self.value)

    def value_test(self) -> ValueTest:
        native = _natively_comparable(self.value)
        if not native or type(self).evaluate is not Eq.evaluate:
            return self.evaluate
        return _native_test(native, operator.eq, self.value, self.evaluate)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, freeze(self.value))


class _Comparison(Operator):
    """Shared machinery for ``$gt``/``$gte``/``$lt``/``$lte``.

    MongoDB range comparisons only match values within the same type
    bracket as the operand; nulls only ever match equality.  NaN sorts
    below the other numbers (:func:`compare_values`) but is not
    *comparable* with them: a comparison involving NaN matches only
    NaN against NaN, and only where equality is accepted.
    """

    _accepts: Tuple[int, ...] = ()
    #: ``_accepts`` -> the native comparison with the same outcomes.
    _NATIVE = {
        (1,): operator.gt,
        (0, 1): operator.ge,
        (-1,): operator.lt,
        (-1, 0): operator.le,
    }

    def __init__(self, value: Any):
        if value is None:
            raise QueryParseError(f"{self.name} does not accept null operands")
        self.value = value
        self._bracket = type_bracket(value)

    def evaluate(self, value: Any) -> bool:
        try:
            if type_bracket(value) != self._bracket:
                return False
            outcome = compare_values(value, self.value)
        except SortSpecError:
            # A value of unsupported type matches nothing.
            return False
        if outcome != 0 and self._bracket == _NUMBER and (
            value != value or self.value != self.value
        ):
            return False
        return outcome in self._accepts

    def value_test(self) -> ValueTest:
        compare = self._NATIVE.get(self._accepts)
        native = _natively_comparable(self.value)
        if (
            compare is None
            or not native
            or type(self).evaluate is not _Comparison.evaluate
        ):
            return self.evaluate
        return _native_test(native, compare, self.value, self.evaluate)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, freeze(self.value))


class Gt(_Comparison):
    name = "$gt"
    _accepts = (1,)


class Gte(_Comparison):
    name = "$gte"
    _accepts = (0, 1)


class Lt(_Comparison):
    name = "$lt"
    _accepts = (-1,)


class Lte(_Comparison):
    name = "$lte"
    _accepts = (-1, 0)


class In(Operator):
    """``$in`` — equals any of the listed values (regexes allowed)."""

    name = "$in"

    def __init__(self, values: Sequence[Any]):
        if not isinstance(values, (list, tuple)):
            raise QueryParseError("$in requires an array operand")
        self.values = list(values)
        self._regexes = [
            re.compile(item.pattern) if isinstance(item, re.Pattern) else None
            for item in self.values
        ]

    def evaluate(self, value: Any) -> bool:
        for item, regex in zip(self.values, self._regexes):
            if regex is not None:
                if isinstance(value, str) and regex.search(value):
                    return True
            elif values_equal(value, item):
                return True
        return False

    def value_test(self) -> ValueTest:
        if type(self).evaluate is not In.evaluate or not self.values:
            return self.evaluate
        comparable = [_natively_comparable(item) for item in self.values]
        if not all(comparable):
            return self.evaluate
        native = tuple({cls for types in comparable for cls in types})
        return _native_test(
            native, _is_member, frozenset(self.values), self.evaluate
        )

    def canonical(self) -> Tuple[Any, ...]:
        frozen = tuple(
            sorted(
                (
                    item.pattern if isinstance(item, re.Pattern) else freeze(item)
                    for item in self.values
                ),
                key=repr,
            )
        )
        return (self.name, frozen)


class Exists(Operator):
    """``$exists`` — a test of path resolution, not of values.

    Every resolved value passes ``evaluate``, so the matcher's "some
    candidate passes" *is* path existence; the matcher inverts it when
    :attr:`flag` is false.
    """

    name = "$exists"
    whole_array_only = True

    def __init__(self, flag: Any):
        self.flag = bool(flag)

    def evaluate(self, value: Any) -> bool:
        return True

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.flag)


class Mod(Operator):
    """``$mod`` — ``value % divisor == remainder`` for numeric values."""

    name = "$mod"

    def __init__(self, operand: Sequence[Any]):
        if (
            not isinstance(operand, (list, tuple))
            or len(operand) != 2
            or any(isinstance(item, bool) for item in operand)
            or not all(isinstance(item, (int, float)) for item in operand)
        ):
            raise QueryParseError("$mod requires [divisor, remainder]")
        divisor, remainder = operand
        if divisor == 0:
            raise QueryParseError("$mod divisor must not be zero")
        self.divisor = int(divisor)
        self.remainder = int(remainder)

    def evaluate(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            # NaN and the infinities have no remainder (MongoDB: no match).
            return False
        return int(value) % self.divisor == self.remainder

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.divisor, self.remainder)


class Size(Operator):
    """``$size`` — the field is an array of exactly *n* elements."""

    name = "$size"
    whole_array_only = True

    def __init__(self, count: Any):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise QueryParseError("$size requires a non-negative integer")
        self.count = count

    def evaluate(self, value: Any) -> bool:
        return isinstance(value, (list, tuple)) and len(value) == self.count

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.count)


class All(Operator):
    """``$all`` — the array field contains every listed value."""

    name = "$all"
    whole_array_only = True

    def __init__(self, values: Sequence[Any]):
        if not isinstance(values, (list, tuple)):
            raise QueryParseError("$all requires an array operand")
        self.values = list(values)

    def evaluate(self, value: Any) -> bool:
        if isinstance(value, (list, tuple)):
            elements = list(value)
        else:
            elements = [value]
        return all(
            any(values_equal(element, wanted) for element in elements)
            for wanted in self.values
        )

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, tuple(sorted(map(freeze, self.values), key=repr)))


class ElemMatch(Operator):
    """``$elemMatch`` — some array element satisfies a sub-predicate.

    The sub-predicate is supplied by the parser as a callable from
    element value to bool (it may close over a full sub-AST for the
    document form ``{$elemMatch: {a: 1, b: {$gt: 2}}}`` or over operator
    list for the value form ``{$elemMatch: {$gte: 10, $lt: 20}}``).
    """

    name = "$elemMatch"
    whole_array_only = True

    def __init__(self, predicate: Callable[[Any], bool], canonical_form: Any):
        self._predicate = predicate
        self._canonical = canonical_form

    def evaluate(self, value: Any) -> bool:
        if not isinstance(value, (list, tuple)):
            return False
        return any(self._predicate(element) for element in value)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, freeze(self._canonical))


class Regex(Operator):
    """``$regex`` — the string value matches the pattern (``re.search``)."""

    name = "$regex"
    _FLAG_MAP = {
        "i": re.IGNORECASE,
        "m": re.MULTILINE,
        "s": re.DOTALL,
        "x": re.VERBOSE,
    }

    def __init__(self, pattern: Any, options: str = ""):
        if isinstance(pattern, re.Pattern):
            self.pattern = pattern.pattern
            flags = pattern.flags
        elif isinstance(pattern, str):
            self.pattern = pattern
            flags = 0
        else:
            raise QueryParseError("$regex requires a string or compiled pattern")
        self.options = "".join(sorted(options))
        for option in self.options:
            if option not in self._FLAG_MAP:
                raise QueryParseError(f"unsupported $regex option: {option!r}")
            flags |= self._FLAG_MAP[option]
        try:
            self._compiled = re.compile(self.pattern, flags)
        except re.error as exc:
            raise QueryParseError(f"invalid $regex pattern: {exc}") from exc

    def evaluate(self, value: Any) -> bool:
        return isinstance(value, str) and self._compiled.search(value) is not None

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.pattern, self.options)


class Negated(Operator):
    """Document-level negation wrapper used for ``$ne`` and ``$nin``.

    MongoDB's ``$ne`` matches when *no* value of the field equals the
    operand — it is not a per-element test.  The matcher recognizes
    :class:`Negated` and inverts the *any-candidate-matches* outcome.
    Missing fields match (a document without the field trivially has no
    equal value), which also mirrors MongoDB.
    """

    name = "$negated"
    whole_array_only = False

    def __init__(self, inner: Operator, display_name: str):
        self.inner = inner
        self.display_name = display_name

    def evaluate(self, value: Any) -> bool:
        return self.inner.evaluate(value)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.display_name, self.inner.canonical())


def ne(value: Any) -> Negated:
    """Build the ``$ne`` operator."""
    return Negated(Eq(value), "$ne")


def nin(values: Sequence[Any]) -> Negated:
    """Build the ``$nin`` operator."""
    return Negated(In(values), "$nin")


class TypeOf(Operator):
    """``$type`` — the value belongs to the named BSON type bracket."""

    name = "$type"

    _ALIASES = {
        "null": (type(None),),
        "int": (int,),
        "long": (int,),
        "double": (float,),
        "number": (int, float),
        "string": (str,),
        "object": (dict,),
        "array": (list, tuple),
        "bool": (bool,),
    }

    def __init__(self, type_name: Any):
        if type_name not in self._ALIASES:
            raise QueryParseError(f"unsupported $type alias: {type_name!r}")
        self.type_name = type_name

    def evaluate(self, value: Any) -> bool:
        expected = self._ALIASES[self.type_name]
        if self.type_name in ("int", "long", "double", "number") and isinstance(
            value, bool
        ):
            return False
        if self.type_name == "null":
            return value is None
        return isinstance(value, expected)

    def canonical(self) -> Tuple[Any, ...]:
        return (self.name, self.type_name)
