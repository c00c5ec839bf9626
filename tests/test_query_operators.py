"""Unit tests for leaf query operators."""

import re

import pytest

from repro.errors import QueryParseError
from repro.query import operators as ops


class TestEq:
    def test_scalar_equality(self):
        assert ops.Eq(5).evaluate(5)
        assert ops.Eq(5).evaluate(5.0)
        assert not ops.Eq(5).evaluate(6)

    def test_cross_type_never_equal(self):
        assert not ops.Eq(5).evaluate("5")
        assert not ops.Eq(0).evaluate(False)
        assert not ops.Eq(1).evaluate(True)

    def test_null_equality(self):
        assert ops.Eq(None).evaluate(None)
        assert not ops.Eq(None).evaluate(0)

    def test_array_equality(self):
        assert ops.Eq([1, 2]).evaluate([1, 2])
        assert not ops.Eq([1, 2]).evaluate([2, 1])

    def test_document_equality_ignores_key_order(self):
        assert ops.Eq({"a": 1, "b": 2}).evaluate({"b": 2, "a": 1})


class TestComparisons:
    def test_gt_gte_lt_lte(self):
        assert ops.Gt(3).evaluate(4)
        assert not ops.Gt(3).evaluate(3)
        assert ops.Gte(3).evaluate(3)
        assert ops.Lt(3).evaluate(2)
        assert not ops.Lt(3).evaluate(3)
        assert ops.Lte(3).evaluate(3)

    def test_string_comparison(self):
        assert ops.Gt("apple").evaluate("banana")
        assert not ops.Gt("banana").evaluate("apple")

    def test_cross_type_comparison_never_matches(self):
        assert not ops.Gt(3).evaluate("zebra")
        assert not ops.Lt("m").evaluate(1)
        assert not ops.Gt(3).evaluate(True)

    def test_null_operand_rejected(self):
        with pytest.raises(QueryParseError):
            ops.Gt(None)

    def test_null_value_never_in_range(self):
        assert not ops.Gte(0).evaluate(None)


class TestIn:
    def test_membership(self):
        operator = ops.In([1, "two", None])
        assert operator.evaluate(1)
        assert operator.evaluate("two")
        assert operator.evaluate(None)
        assert not operator.evaluate(2)

    def test_regex_member(self):
        operator = ops.In([re.compile("^ab")])
        assert operator.evaluate("abc")
        assert not operator.evaluate("xabc")

    def test_requires_array(self):
        with pytest.raises(QueryParseError):
            ops.In("not-a-list")


class TestNegations:
    def test_ne(self):
        operator = ops.ne(5)
        assert isinstance(operator, ops.Negated)
        assert operator.inner.evaluate(5)
        assert not operator.inner.evaluate(6)

    def test_nin_canonical_differs_from_ne(self):
        assert ops.nin([1]).canonical() != ops.ne(1).canonical()


class TestMod:
    def test_basic(self):
        operator = ops.Mod([4, 0])
        assert operator.evaluate(8)
        assert not operator.evaluate(7)

    def test_float_values_truncate(self):
        assert ops.Mod([4, 0]).evaluate(8.0)

    def test_non_numeric_value(self):
        assert not ops.Mod([4, 0]).evaluate("8")
        assert not ops.Mod([2, 0]).evaluate(True)

    def test_invalid_operands(self):
        with pytest.raises(QueryParseError):
            ops.Mod([4])
        with pytest.raises(QueryParseError):
            ops.Mod([0, 1])
        with pytest.raises(QueryParseError):
            ops.Mod("nope")


class TestSize:
    def test_array_size(self):
        assert ops.Size(2).evaluate([1, 2])
        assert not ops.Size(2).evaluate([1])
        assert not ops.Size(2).evaluate("ab")

    def test_invalid_count(self):
        with pytest.raises(QueryParseError):
            ops.Size(-1)
        with pytest.raises(QueryParseError):
            ops.Size(True)


class TestAll:
    def test_all_values_present(self):
        operator = ops.All([1, 2])
        assert operator.evaluate([2, 1, 3])
        assert not operator.evaluate([1, 3])

    def test_scalar_matches_single_element_all(self):
        assert ops.All([5]).evaluate(5)
        assert not ops.All([5, 6]).evaluate(5)

    def test_requires_array_operand(self):
        with pytest.raises(QueryParseError):
            ops.All(5)


class TestRegex:
    def test_search_semantics(self):
        assert ops.Regex("bc").evaluate("abcd")
        assert not ops.Regex("^bc").evaluate("abcd")

    def test_case_insensitive_option(self):
        assert ops.Regex("abc", "i").evaluate("ABC")
        assert not ops.Regex("abc").evaluate("ABC")

    def test_non_string_value(self):
        assert not ops.Regex("1").evaluate(1)

    def test_invalid_pattern(self):
        with pytest.raises(QueryParseError):
            ops.Regex("(")

    def test_invalid_option(self):
        with pytest.raises(QueryParseError):
            ops.Regex("a", "q")

    def test_compiled_pattern(self):
        assert ops.Regex(re.compile("ab", re.IGNORECASE)).evaluate("AB")


class TestTypeOf:
    @pytest.mark.parametrize(
        "alias,value,expected",
        [
            ("string", "x", True),
            ("string", 1, False),
            ("int", 1, True),
            ("int", True, False),
            ("number", 1.5, True),
            ("number", True, False),
            ("bool", True, True),
            ("null", None, True),
            ("array", [1], True),
            ("object", {"a": 1}, True),
        ],
    )
    def test_aliases(self, alias, value, expected):
        assert ops.TypeOf(alias).evaluate(value) is expected

    def test_unknown_alias(self):
        with pytest.raises(QueryParseError):
            ops.TypeOf("decimal128")


class TestCanonicalForms:
    def test_equality_and_hash(self):
        assert ops.Eq(5) == ops.Eq(5)
        assert hash(ops.Eq(5)) == hash(ops.Eq(5))
        assert ops.Eq(5) != ops.Eq(6)
        assert ops.Eq(5) != ops.Gt(5)

    def test_in_canonical_is_order_independent(self):
        assert ops.In([1, 2, 3]).canonical() == ops.In([3, 1, 2]).canonical()

    def test_freeze_handles_nested_structures(self):
        frozen = ops.freeze({"a": [1, {"b": 2}]})
        assert isinstance(frozen, tuple)
        hash(frozen)  # must be hashable


class TestCachedIdentity:
    """``hash``/``==`` read a canonical form computed once per operator
    (operators are hashed and compared by canonical form)."""

    # Factories, not instances: every test starts from operators whose
    # identity has not been computed yet.
    PAIRS = [
        (lambda: ops.Eq({"a": [1, {"b": 2}]}), lambda: ops.Eq({"a": [1, {"b": 2}]})),
        (lambda: ops.Gte(3), lambda: ops.Gte(3)),
        (lambda: ops.In([1, "x", 2.5]), lambda: ops.In([2.5, 1, "x"])),
        (lambda: ops.All([1, 2, 3]), lambda: ops.All([3, 2, 1])),
        (lambda: ops.nin(["a", "b"]), lambda: ops.nin(["b", "a"])),
        (lambda: ops.Regex("^a", "mi"), lambda: ops.Regex("^a", "im")),
        (lambda: ops.Mod([4, 1]), lambda: ops.Mod([4.0, 1])),
    ]

    @pytest.mark.parametrize("left, right", PAIRS)
    def test_equal_canonical_form_means_equal_hash_and_eq(self, left, right):
        a, b = left(), right()
        assert a is not b
        assert a.canonical() == b.canonical()
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("left, right", PAIRS)
    def test_hash_is_stable_and_canonical_is_built_once(
        self, left, right, monkeypatch
    ):
        operator = left()
        first = hash(operator)
        calls = []
        original = type(operator).canonical
        monkeypatch.setattr(
            type(operator), "canonical",
            lambda self: calls.append(1) or original(self),
        )
        assert hash(operator) == first
        assert operator == right()
        assert operator == operator
        # Only the fresh right-hand operator had to canonicalize.
        assert len(calls) == 1

    def test_different_operands_or_types_stay_unequal(self):
        assert ops.In([1, 2]) != ops.In([1, 2, 3])
        assert ops.In([1, 2]) != ops.All([1, 2])
        assert ops.Gt(3) != ops.Gte(3)
        assert ops.Eq(1) != 1
