"""The native sort keys order exactly like ``compare_values``.

``compare_values`` is the executable definition of the BSON value order;
``value_sort_key`` compiles it into plain tuples that CPython compares
in C.  Every property here pins the second to the first, for both
directions, so no sorted window, pull ``sort`` or ordered index can
drift from the comparator the operators use.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.filtering import MatchEvent
from repro.core.sorting import SortingNode
from repro.errors import SortSpecError
from repro.query.engine import Query
from repro.query.sortspec import (
    _MISSING,
    SortSpec,
    compare_values,
    value_sort_key,
)
from repro.types import MatchType

NAN = float("nan")


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


def _sign(number):
    return (number > 0) - (number < 0)


def _native(a, b):
    """Three-way result of CPython's own comparison of two keys."""
    assert (a == b) == (not a < b and not b < a)
    assert (a <= b) == (a < b or a == b) and (a >= b) == (b <= a)
    return (a > b) - (a < b)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    # ints beyond 2**53 next to the floats that cannot tell them apart
    st.integers(2**53 - 2, 2**53 + 3),
    st.integers(-(2**53) - 3, -(2**53) + 2),
    st.sampled_from([float(2**53), float(2**53 + 2), -float(2**53)]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([NAN, math.inf, -math.inf, 0.0, -0.0, 0, 1, 1.0, True]),
    st.text(alphabet="abz", max_size=3),
    st.text(alphabet="abz", max_size=3).map(_Str),
    st.integers(-3, 3).map(_Int),
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(alphabet="xy", max_size=2), children,
                        max_size=3),
        st.dictionaries(st.text(alphabet="xy", max_size=2), children,
                        max_size=3).map(_Dict),
    ),
    max_leaves=8,
)

sort_values = st.one_of(json_values, st.just(_MISSING))


class TestKeysOrderLikeCompareValues:
    @settings(max_examples=600, deadline=None)
    @given(a=sort_values, b=sort_values)
    def test_both_directions_agree_with_the_comparator(self, a, b):
        expected = _sign(compare_values(a, b))
        assert _native(value_sort_key(a), value_sort_key(b)) == expected
        assert _native(value_sort_key(a, -1), value_sort_key(b, -1)) == -expected

    @settings(max_examples=200, deadline=None)
    @given(base=st.lists(json_values, max_size=3), extra=json_values)
    def test_a_prefix_array_sorts_before_its_extension(self, base, extra):
        longer = base + [extra]
        assert compare_values(base, longer) < 0
        assert value_sort_key(base) < value_sort_key(longer)
        assert value_sort_key(base, -1) > value_sort_key(longer, -1)

    def test_the_named_corner_cases(self):
        ascending = [
            _MISSING, None, NAN, -math.inf, -(2**53) - 1, -float(2**53), -1,
            0, 0.5, 1, 2**53, 2**53 + 1, math.inf, "", "a", "b", {},
            {"a": 1}, {"a": 1, "b": 0}, {"a": 2}, [], [1], [1, 0], [2],
            False, True,
        ]
        for position, earlier in enumerate(ascending):
            for later in ascending[position + 1:]:
                assert compare_values(earlier, later) < 0, (earlier, later)
                assert value_sort_key(earlier) < value_sort_key(later)
                assert value_sort_key(earlier, -1) > value_sort_key(later, -1)
        for a, b in [(0.0, -0.0), (1, 1.0), (NAN, float("nan")), ((1, 2), [1, 2]),
                     (_Dict(a=1), {"a": 1}), (_Str("a"), "a"), (_Int(1), 1)]:
            assert compare_values(a, b) == 0
            assert value_sort_key(a) == value_sort_key(b)
            assert value_sort_key(a, -1) == value_sort_key(b, -1)
        assert value_sort_key(True) != value_sort_key(1)

    def test_the_key_form(self):
        assert value_sort_key(_MISSING) == (0,)
        assert value_sort_key(None) == (1,)
        assert value_sort_key(2**60) == (2, 1, 2**60)
        assert value_sort_key(NAN) == (2, 0, 0)
        assert value_sort_key("s") == (3, "s")
        assert value_sort_key({"b": 1, "a": "x"}) == (
            4, (("a", (3, "x")), ("b", (2, 1, 1))))
        assert value_sort_key([None, [True]]) == (5, ((1,), (5, ((6, True),))))
        # A descending number is wrapper-free: plain negated ints/floats.
        assert value_sort_key(1.5, -1) == (-2, -1, -1.5)
        assert value_sort_key(NAN, -1) == (-2, 0, 0)
        assert value_sort_key(True, -1) == (-6, -1)
        assert type(value_sort_key(2**60, -1)[2]) is int

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, b"bytes", 1j, [1, object()], {"a": {"b": object()}},
    ])
    def test_unsupported_types_still_raise(self, value):
        for direction in (1, -1):
            with pytest.raises(SortSpecError):
                value_sort_key(value, direction)
        with pytest.raises(SortSpecError):
            SortSpec([("v", 1)]).key({"_id": 1, "v": value})


fields = st.sampled_from(["a", "b", "c.d", "e.0"])
documents = st.fixed_dictionaries(
    {"_id": st.integers(0, 5)},
    optional={
        "a": json_values,
        "b": json_values,
        "c": st.one_of(json_values, st.fixed_dictionaries({"d": json_values})),
        "e": st.one_of(json_values, st.lists(json_values, max_size=2)),
    },
)
specs = st.lists(
    st.tuples(fields, st.sampled_from([1, -1])),
    min_size=1, max_size=3, unique_by=lambda field: field[0],
).map(SortSpec)


class TestSpecKeysOrderLikeSpecCompare:
    @settings(max_examples=300, deadline=None)
    @given(spec=specs, docs=st.lists(documents, max_size=8))
    def test_key_sort_equals_comparator_sort(self, spec, docs):
        by_comparator = sorted(docs, key=functools.cmp_to_key(spec.compare))
        assert sorted(docs, key=spec.key) == by_comparator
        assert spec.sort(docs) == by_comparator

    @settings(max_examples=300, deadline=None)
    @given(spec=specs, a=documents, b=documents)
    def test_pairwise(self, spec, a, b):
        assert _native(spec.key(a), spec.key(b)) == _sign(spec.compare(a, b))


class TestProbeDepthCounter:
    """``window_comparisons`` counts probe depth: ``len(keys).bit_length()``
    per bisect plus 1 per horizon test — a function of the window sizes
    alone, so the harness's counts repeat exactly."""

    @staticmethod
    def _node(limit, slack, documents):
        node = SortingNode()
        query = Query({}, sort=[("score", -1)], limit=limit)
        bootstrap = sorted(documents, key=query.sort.key)[: limit + slack]
        node.register_query(query, bootstrap,
                            {doc["_id"]: 1 for doc in bootstrap}, slack=slack)
        return node, query

    @staticmethod
    def _event(query, match_type, key, document, version):
        return MatchEvent(query_id=query.core_id, match_type=match_type,
                          key=key, document=document, version=version,
                          timestamp=0.0, needs_sorting=True)

    def test_counts_are_probe_depths(self):
        documents = [{"_id": key, "score": float(key)} for key in range(5)]
        node, query = self._node(limit=5, slack=2, documents=documents)
        # Complete window of 5: no horizon test, one bisect at depth 3.
        node.handle_event(self._event(
            query, MatchType.ADD, 9, {"_id": 9, "score": 2.5}, 2))
        assert node.window_comparisons == (5).bit_length()
        # A move bisects twice (old and new position) over 6 keys.
        node.handle_event(self._event(
            query, MatchType.CHANGE, 9, {"_id": 9, "score": 0.5}, 3))
        assert node.window_comparisons == 3 + 2 * (6).bit_length()

    def test_the_event_that_causes_a_renewal_is_counted(self):
        documents = [{"_id": key, "score": float(key)} for key in range(10)]
        node, query = self._node(limit=3, slack=1, documents=documents)
        state = node.state_of(query.query_id)
        assert not state.core.complete and len(state.core.entries) == 4
        # Slack 1 -> 0, then a demotion below the horizon: the horizon
        # test and the bisect for the old position run before the window
        # turns out to be unmaintainable.
        node.handle_event(self._event(query, MatchType.REMOVE, 9, None, 2))
        before = node.window_comparisons
        changes = node.handle_event(self._event(
            query, MatchType.CHANGE, 8, {"_id": 8, "score": -1.0}, 2))
        assert len(changes) == 1 and changes[0].is_error
        assert node.renewals_requested == 1
        assert node.window_comparisons - before == 1 + (3).bit_length()
