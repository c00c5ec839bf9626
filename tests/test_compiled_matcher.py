"""The compiled matcher against the walk it replaced.

``compile_node`` is the only evaluator under ``src/``; the interpreter
it replaced (``matches_node`` -> ``_evaluate_field`` -> ``resolve_path``
-> ``_candidates`` -> ``Operator.evaluate``) lives on here as the
reference.  Three layers are pinned separately:

* the *walk* — path resolution, array fan-out, negation, missing
  fields, the logical combinators — compiled closure vs. the
  transcription, over every operator the parser accepts;
* the *value tests* — every specialised ``Operator.value_test`` vs. its
  operator's ``evaluate`` (where the semantics, including the NaN
  rule, are defined), and the fallback for subclasses;
* the *holders* — ``Query`` (re-compiles when ``node`` is reassigned),
  the DAG (compiles a leaf on first evaluation, counts exactly like the
  recursive pass it replaced) and the filtering stage (one token set
  per write).
"""

import math
import re
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.query import index as index_module
from repro.query import operators as ops
from repro.query import text as text_module
from repro.query.ast import (
    AllOf,
    Always,
    AnyOf,
    FieldPredicate,
    Node,
    NoneOf,
    Not,
    iter_nodes,
)
from repro.query.engine import Query
from repro.query.geo import GeoWithin
from repro.query.matcher import compile_node, matches, matches_node
from repro.query.parser import parse_query
from repro.query.shared import SharedPredicateDAG
from repro.query.text import TextSearch
from repro.types import AfterImage, WriteKind

NAN = float("nan")


# ----------------------------------------------------------------------
# The reference: a transcription of the parent commit's interpreter
# ----------------------------------------------------------------------

def ref_resolve_path(document: Any, path: str) -> Tuple[List[Any], bool]:
    terminals: List[Any] = []
    parts = path.split(".")

    def descend(current: Any, index: int) -> None:
        if index == len(parts):
            terminals.append(current)
            return
        part = parts[index]
        if isinstance(current, dict):
            if part in current:
                descend(current[part], index + 1)
            return
        if isinstance(current, (list, tuple)):
            if part.isdigit():
                position = int(part)
                if position < len(current):
                    descend(current[position], index + 1)
            for element in current:
                if isinstance(element, dict) and part in element:
                    descend(element[part], index + 1)

    descend(document, 0)
    return terminals, bool(terminals)


def ref_candidates(terminals: List[Any], whole_array_only: bool) -> List[Any]:
    if whole_array_only:
        return terminals
    expanded: List[Any] = []
    for value in terminals:
        expanded.append(value)
        if isinstance(value, (list, tuple)):
            expanded.extend(value)
    return expanded


def ref_null_equality(operator: ops.Operator) -> bool:
    if isinstance(operator, ops.Eq):
        return operator.value is None
    if isinstance(operator, ops.In):
        return any(item is None for item in operator.values)
    return False


def ref_evaluate_field(document: Any, predicate: FieldPredicate) -> bool:
    operator = predicate.operator
    terminals, exists = ref_resolve_path(document, predicate.path)
    if isinstance(operator, ops.Exists):
        return exists == operator.flag
    if isinstance(operator, ops.Negated):
        inner = operator.inner
        if not exists:
            return not ref_null_equality(inner)
        candidates = ref_candidates(terminals, inner.whole_array_only)
        return not any(inner.evaluate(value) for value in candidates)
    if not exists:
        return ref_null_equality(operator)
    candidates = ref_candidates(terminals, operator.whole_array_only)
    return any(operator.evaluate(value) for value in candidates)


def ref_matches_node(document: Any, node: Node) -> bool:
    if isinstance(node, Always):
        return True
    if isinstance(node, FieldPredicate):
        return ref_evaluate_field(document, node)
    if isinstance(node, AllOf):
        return all(ref_matches_node(document, b) for b in node.branches)
    if isinstance(node, AnyOf):
        return any(ref_matches_node(document, b) for b in node.branches)
    if isinstance(node, NoneOf):
        return not any(ref_matches_node(document, b) for b in node.branches)
    if isinstance(node, Not):
        return not ref_matches_node(document, node.branch)
    if isinstance(node, TextSearch):
        return node.matches_document(document)
    raise TypeError(f"unknown AST node: {node!r}")


def outcome(call) -> Any:
    """The call's result, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return type(exc)


# ----------------------------------------------------------------------
# Strategies: values, documents, paths, every operator the parser takes
# ----------------------------------------------------------------------

numbers = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([0.0, 1.0, 2.5, -1.5, 5.0, 1e20, 10**20,
                     NAN, math.inf, -math.inf]),
)
strings = st.sampled_from(["", "a", "b", "ab", "B", "push based",
                           "real time push", "Ab"])
scalars = st.one_of(numbers, strings, st.booleans(), st.none())
coordinates = st.one_of(st.floats(-4.0, 4.0), st.integers(-4, 4))
points = st.one_of(
    st.lists(coordinates, min_size=2, max_size=2),
    st.lists(coordinates, min_size=2, max_size=2).map(
        lambda pair: {"type": "Point", "coordinates": pair}),
)
values = st.recursive(
    st.one_of(scalars, points),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "x"]), inner, max_size=2),
    ),
    max_leaves=6,
)
sub_documents = st.fixed_dictionaries(
    {}, optional={"a": values, "c": values, "x": scalars})
documents = st.fixed_dictionaries({}, optional={
    "a": values,
    "b": st.one_of(values, st.lists(st.one_of(sub_documents, scalars),
                                    max_size=3)),
    "n": st.one_of(
        values,
        st.fixed_dictionaries({}, optional={
            "a": values,
            "b": st.lists(st.one_of(sub_documents, scalars), max_size=3),
        }),
    ),
    "loc": st.one_of(points, values, st.lists(points, max_size=2)),
    "t": strings,
})
PATHS = ["a", "b", "n", "loc", "t", "missing", "a.0", "a.a", "a.b.x", "b.a",
         "b.1", "b.1.a", "b.0.c.x", "n.a", "n.b", "n.b.a", "n.b.0",
         "n.b.1.a", "n.b.c.0", "n.missing", "loc.0", "loc.coordinates"]
paths = st.sampled_from(PATHS)

comparison_operands = st.one_of(
    numbers, strings, st.booleans(),
    st.lists(scalars, max_size=2),
    st.dictionaries(st.sampled_from(["a", "x"]), scalars, max_size=2),
)
patterns = st.sampled_from(["^a", "b$", "push", "A"])
in_items = st.lists(
    st.one_of(scalars, patterns.map(re.compile)), max_size=4)
boxes = st.tuples(coordinates, coordinates, coordinates, coordinates).map(
    lambda c: {"$box": [[c[0], c[1]], [c[2], c[3]]]})
shapes = st.one_of(
    boxes,
    st.tuples(coordinates, coordinates, st.floats(0.0, 3.0)).map(
        lambda c: {"$center": [[c[0], c[1]], c[2]]}),
    st.tuples(coordinates, coordinates, st.floats(0.0, 0.1)).map(
        lambda c: {"$centerSphere": [[c[0], c[1]], c[2]]}),
    st.just({"$polygon": [[-2, -2], [3, -2], [3, 3], [-2, 3]]}),
    st.just({"$geometry": {"type": "Polygon", "coordinates": [
        [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]}}),
)
near = st.tuples(coordinates, coordinates,
                 st.one_of(st.none(), st.floats(0.0, 500_000.0))).map(
    lambda c: {"$geometry": {"type": "Point", "coordinates": [c[0], c[1]]},
               **({} if c[2] is None else {"$maxDistance": c[2]})})

simple_operators = st.one_of(
    values.map(lambda v: {"$eq": v}),
    values.map(lambda v: {"$ne": v}),
    st.tuples(st.sampled_from(["$gt", "$gte", "$lt", "$lte"]),
              comparison_operands).map(lambda t: {t[0]: t[1]}),
    st.tuples(numbers, numbers).map(lambda t: {"$gte": t[0], "$lt": t[1]}),
    in_items.map(lambda items: {"$in": items}),
    in_items.map(lambda items: {"$nin": items}),
    st.booleans().map(lambda flag: {"$exists": flag}),
    st.tuples(st.sampled_from([1, 2, 3, -2]), st.integers(0, 2)).map(
        lambda t: {"$mod": [t[0], t[1]]}),
    st.integers(0, 3).map(lambda n: {"$size": n}),
    st.lists(scalars, max_size=3).map(lambda items: {"$all": items}),
    st.tuples(patterns, st.sampled_from(["", "i"])).map(
        lambda t: {"$regex": t[0], "$options": t[1]}),
    st.sampled_from(["null", "int", "double", "number", "string", "object",
                     "array", "bool"]).map(lambda name: {"$type": name}),
    shapes.map(lambda shape: {"$geoWithin": shape}),
    near.map(lambda spec: {"$nearSphere": spec}),
)
elem_match = st.one_of(
    # value form: operators applied to each element
    st.tuples(numbers, numbers, scalars).map(
        lambda t: {"$elemMatch": {"$gte": t[0], "$lt": t[1], "$ne": t[2]}}),
    in_items.map(lambda items: {"$elemMatch": {"$nin": items}}),
    # document form: each element matched as a sub-document
    st.tuples(scalars, numbers).map(
        lambda t: {"$elemMatch": {"a": t[0], "c": {"$gt": t[1]}}}),
    scalars.map(lambda v: {"$elemMatch": {"x": {"$ne": v}}}),
)
operator_documents = st.one_of(
    simple_operators,
    elem_match,
    st.one_of(simple_operators, elem_match).map(lambda op: {"$not": op}),
    patterns.map(lambda p: {"$not": re.compile(p)}),
)
field_filters = st.one_of(
    st.tuples(paths, operator_documents).map(lambda t: {t[0]: t[1]}),
    st.tuples(paths, values).filter(
        # a plain value that is not itself an operator document
        lambda t: not (isinstance(t[1], dict) and t[1]
                       and all(str(k).startswith("$") for k in t[1]))
    ).map(lambda t: {t[0]: t[1]}),
    st.tuples(paths, patterns).map(lambda t: {t[0]: re.compile(t[1])}),
)
text_filters = st.sampled_from([
    "push", "push real", "-push based", '"push based"', '"time push" -real',
    "a", "",
]).map(lambda search: {"$text": {"$search": search}})
filters = st.recursive(
    st.one_of(field_filters, text_filters, st.just({})),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["$and", "$or", "$nor"]),
                  st.lists(inner, min_size=1, max_size=3)).map(
            lambda t: {t[0]: t[1]}),
        # implicit conjunction of two filters with distinct keys
        st.tuples(inner, inner).map(lambda t: {**t[0], **t[1]}),
    ),
    max_leaves=5,
)


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------

@settings(max_examples=600, deadline=None)
@given(filter_doc=filters, docs=st.lists(documents, min_size=1, max_size=4))
def test_compiled_closure_equals_the_reference_walk(filter_doc, docs):
    node = parse_query(filter_doc)
    compiled = compile_node(node)
    query = Query(filter_doc)
    for document in docs:
        expected = outcome(lambda: ref_matches_node(document, node))
        assert outcome(lambda: compiled(document)) == expected, (
            filter_doc, document)
        # The three holders run the same closure.
        assert outcome(lambda: matches_node(document, node)) == expected
        assert outcome(lambda: query.matches(document)) == expected
        assert outcome(lambda: matches(document, filter_doc)) == expected


_small = st.integers(0, 2)
_nested_arrays = st.lists(
    st.one_of(_small, st.lists(_small, max_size=3)), max_size=3)
_whole_array_operators = st.one_of(
    st.integers(0, 3).map(lambda n: {"$size": n}),
    st.lists(_small, max_size=2).map(lambda items: {"$all": items}),
    st.tuples(_small, _small).map(
        lambda t: {"$elemMatch": {"$gte": t[0], "$lte": t[1]}}),
    st.lists(_small, max_size=2).map(lambda items: {"$eq": items}),
    st.lists(_small, max_size=2).map(lambda items: {"$ne": items}),
    _small.map(lambda v: {"$gt": v}),
)


@settings(max_examples=300, deadline=None)
@given(operator=_whole_array_operators, negate=st.booleans(),
       array=_nested_arrays)
def test_whole_array_operators_see_terminals_only(operator, negate, array):
    """``$size``/``$all``/``$elemMatch`` decide the array a path resolves
    to and never its elements; the others see both.  Arrays of arrays
    are where the two differ."""
    if negate:
        operator = {"$not": operator}
    for path, document in (("a", {"a": array}),
                           ("n.a", {"n": {"a": array}}),
                           ("n.a", {"n": [{"a": array}, {"a": [array]}]})):
        node = parse_query({path: operator})
        assert compile_node(node)(document) is ref_matches_node(
            document, node), (path, operator, document)


@settings(max_examples=200, deadline=None)
@given(path=paths, document=documents)
def test_dotted_paths_resolve_like_the_reference(path, document):
    """``$exists`` is exactly path resolution; ``$size`` sees terminals
    only (no element fan-out)."""
    _, exists = ref_resolve_path(document, path)
    assert matches(document, {path: {"$exists": True}}) is exists
    assert matches(document, {path: {"$exists": False}}) is (not exists)


@settings(max_examples=150, deadline=None)
@given(sub_filter=st.tuples(scalars, numbers).map(
           lambda t: {"a": t[0], "c": {"$gt": t[1]}}),
       elements=st.lists(st.one_of(sub_documents, scalars), max_size=4))
def test_elem_match_document_form_runs_the_sub_predicate(sub_filter, elements):
    """The ``$elemMatch`` sub-predicate holds its own compiled closure;
    it must decide each element like the reference decides the
    sub-filter."""
    sub_node = parse_query(sub_filter)
    expected = any(
        isinstance(element, dict) and ref_matches_node(element, sub_node)
        for element in elements
    )
    assert matches({"arr": elements},
                   {"arr": {"$elemMatch": sub_filter}}) is expected


@settings(max_examples=150, deadline=None)
@given(operators=st.fixed_dictionaries({}, optional={
           "$gte": numbers, "$lt": numbers, "$ne": scalars,
           "$nin": st.lists(scalars, max_size=2), "$in": st.lists(scalars, max_size=3),
       }).filter(bool),
       elements=st.lists(scalars, max_size=4))
def test_elem_match_value_form_applies_every_operator_to_an_element(
        operators, elements):
    """Some single element passes every listed operator; ``$ne``/``$nin``
    reject an element their inner test passes."""

    def passes(name: str, operand: Any, element: Any) -> bool:
        operator = parse_query({"f": {name: operand}}).operator
        if isinstance(operator, ops.Negated):
            return not operator.inner.evaluate(element)
        return operator.evaluate(element)

    expected = any(
        all(passes(name, operand, element)
            for name, operand in operators.items())
        for element in elements
    )
    assert matches({"arr": elements},
                   {"arr": {"$elemMatch": operators}}) is expected


def test_non_dict_documents_take_the_general_path():
    """The ``dict.get`` fast path is only for plain dicts; anything else
    resolves through the general walk, as before."""

    class Mapping(dict):
        pass

    node = parse_query({"a": {"$gte": 2}})
    compiled = compile_node(node)
    assert compiled(Mapping(a=3)) and not compiled(Mapping(a=1))
    # A top-level array fans out over its sub-documents.
    assert compiled([{"a": 1}, {"a": 5}]) is ref_matches_node(
        [{"a": 1}, {"a": 5}], node) is True


def test_unknown_node_raises_the_same_type_error():
    class Rogue(Node):
        pass

    with pytest.raises(TypeError, match="unknown AST node"):
        compile_node(Rogue())
    with pytest.raises(TypeError, match="unknown AST node"):
        matches_node({}, Rogue())
    with pytest.raises(TypeError, match="unknown AST node"):
        compile_node(AllOf((Always(), Rogue())))


# ----------------------------------------------------------------------
# The value tests
# ----------------------------------------------------------------------

def _leaf_operators(node: Node) -> List[ops.Operator]:
    found: List[ops.Operator] = []
    for sub in iter_nodes(node):
        if isinstance(sub, FieldPredicate):
            operator = sub.operator
            found.append(operator)
            if isinstance(operator, ops.Negated):
                found.append(operator.inner)
    return found


@settings(max_examples=400, deadline=None)
@given(filter_doc=field_filters,
       candidates=st.lists(st.one_of(values, points), min_size=1, max_size=8))
def test_every_value_test_equals_its_operators_evaluate(filter_doc, candidates):
    for operator in _leaf_operators(parse_query(filter_doc)):
        test = operator.value_test()
        for value in candidates:
            assert outcome(lambda: bool(test(value))) == outcome(
                lambda: bool(operator.evaluate(value))), (operator, value)


@settings(max_examples=200, deadline=None)
@given(operator=st.one_of(shapes.map(lambda shape: {"$geoWithin": shape}),
                          near.map(lambda spec: {"$nearSphere": spec})),
       candidates=st.lists(st.one_of(points, values), min_size=1, max_size=8))
def test_geo_value_tests_equal_evaluate(operator, candidates):
    """The exact-type fast path for ``[float, float]`` pairs and the
    general coercion agree on every value."""
    operator = parse_query({"loc": operator}).operator
    test = operator.value_test()
    assert test != operator.evaluate
    for value in candidates:
        assert test(value) is operator.evaluate(value), (operator, value)


@pytest.mark.parametrize("operator", [
    ops.Eq(5), ops.Eq(5.0), ops.Eq("a"), ops.In([1, 2.0, "a"]),
    ops.In([2, "b"]), ops.In([5.0]),
    ops.Gt(1), ops.Gte(1.5), ops.Lt("b"), ops.Lte(10**20),
])
def test_specialised_value_tests_are_closures_not_evaluate(operator):
    """Guards the premise of the property above: these operators really
    take the specialised path (otherwise it would compare ``evaluate``
    with itself)."""
    assert operator.value_test() != operator.evaluate
    for value in [True, False, None, NAN, 1, 1.0, 5, "a", "b", [1], {"a": 1},
                  10**20, 1e20, math.inf, -math.inf]:
        assert operator.value_test()(value) is operator.evaluate(value)


@pytest.mark.parametrize("operator", [
    ops.Eq(None), ops.Eq(True), ops.Eq(NAN), ops.Eq([1]), ops.Eq({"a": 1}),
    ops.In([]), ops.In([1, None]), ops.In([re.compile("a")]), ops.In([NAN]),
    ops.Gte(NAN), ops.Gt(True), ops.Lt([1, 2]), ops.Size(2), ops.All([1]),
    ops.Regex("a"), ops.Mod([2, 0]), ops.TypeOf("int"), ops.Exists(True),
])
def test_other_operands_fall_back_to_evaluate(operator):
    assert operator.value_test() == operator.evaluate


class _UnhashableGte(ops.Gte):
    """Redefines only ``canonical``: the specialisation still applies."""

    def canonical(self):
        return ("$gte", [self.value])


class _EvenOnlyGte(ops.Gte):
    def evaluate(self, value):
        return super().evaluate(value) and value % 2 == 0


class _CaselessEq(ops.Eq):
    def evaluate(self, value):
        return isinstance(value, str) and value.lower() == self.value


class _PrefixIn(ops.In):
    def evaluate(self, value):
        return isinstance(value, str) and value[:1] in self.values


class _NowhereWithin(GeoWithin):
    def evaluate(self, value):
        return False


@pytest.mark.parametrize("operator, document, expected", [
    (_EvenOnlyGte(5), {"a": 7}, False),
    (_EvenOnlyGte(5), {"a": 8}, True),
    (_CaselessEq("ab"), {"a": "AB"}, True),
    (_PrefixIn(["a"]), {"a": "abc"}, True),
    (_NowhereWithin({"$box": [[0, 0], [2, 2]]}), {"a": [1.0, 1.0]}, False),
    (_UnhashableGte(5), {"a": 7}, True),
    (_UnhashableGte(5), {"a": True}, False),
])
def test_a_subclassed_operator_runs_its_own_evaluate(operator, document, expected):
    """A subclass that redefines ``evaluate`` must never run its
    parent's specialised closure."""
    compiled = compile_node(FieldPredicate("a", operator))
    assert compiled(document) is expected
    assert ref_matches_node(document, FieldPredicate("a", operator)) is expected
    if type(operator) is not _UnhashableGte:
        assert operator.value_test() == operator.evaluate


class TestUnsupportedTypes:
    """A value BSON ordering does not cover matches nothing — the one
    exception the operators expect (``SortSpecError``), nothing wider."""

    VALUES = [object(), {1, 2}, b"bytes", 1 + 2j]

    @pytest.mark.parametrize("value", VALUES)
    def test_equality_and_comparisons_do_not_match(self, value):
        assert not ops.values_equal(value, value)
        for filter_doc in [{"a": 5}, {"a": {"$gte": 5}}, {"a": {"$lt": "x"}},
                           {"a": {"$in": [1, "a"]}}, {"a": {"$gt": [1]}},
                           {"a": [1, 2]}]:
            assert not matches({"a": value}, filter_doc)
            assert not matches({"a": [1, value]}, {"a": {"$eq": [1, 2]}})
        assert matches({"a": value}, {"a": {"$ne": 5}})

    def test_other_errors_are_not_swallowed(self):
        class Hostile(dict):
            def items(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ops.values_equal(Hostile(a=1), {"a": 1})
        with pytest.raises(RuntimeError):
            ops.Gte({"a": 1}).evaluate(Hostile(a=1))


def test_mod_never_matches_non_finite_numbers():
    """``int(nan)`` / ``int(inf)`` raise; a stored NaN must not crash
    every ``$mod`` query over the field."""
    for value in (NAN, math.inf, -math.inf):
        assert not matches({"a": value}, {"a": {"$mod": [2, 0]}})
        assert matches({"a": value}, {"a": {"$not": {"$mod": [2, 0]}}})
    assert matches({"a": 4.0}, {"a": {"$mod": [2, 0]}})


# ----------------------------------------------------------------------
# The holders: Query, the DAG, the filtering stage
# ----------------------------------------------------------------------

class TestQueryHoldsItsClosure:
    def test_compiled_on_first_match_and_kept(self):
        query = Query({"a": {"$gte": 2}})
        assert query._compiled is None
        assert query.matches({"a": 3})
        compiled = query._compiled
        assert compiled is not None and compiled[0] is query.node
        assert not query.matches({"a": 1})
        assert query._compiled is compiled

    def test_reassigning_node_recompiles(self):
        query = Query({"a": 1})
        assert query.matches({"a": 1})
        query.node = FieldPredicate("a", ops.Eq(2))
        assert not query.matches({"a": 1})
        assert query.matches({"a": 2})
        assert query._compiled[0] is query.node


class _RecursivePass:
    """Transcription of the parent commit's ``DagEvaluation``: recursive,
    ``all``/``any`` over generators, one label dispatch per call."""

    def __init__(self, dag: SharedPredicateDAG, document: Dict[str, Any]):
        self.dag = dag
        self.document = document
        self.cache: Dict[int, bool] = {}
        self.nodes_evaluated = self.node_hits = self.queries_served = 0

    def matches(self, query_id: str) -> Optional[bool]:
        root = self.dag._roots.get(query_id)
        if root is None:
            return None
        self.queries_served += 1
        cached = self.cache.get(root.node_id)
        if cached is not None:
            self.node_hits += 1
            return cached
        return self._evaluate(root)

    def _evaluate(self, node) -> bool:
        cached = self.cache.get(node.node_id)
        if cached is not None:
            self.node_hits += 1
            return cached
        self.nodes_evaluated += 1
        label = node.key[0]
        if label == "leaf":
            value = ref_matches_node(self.document, node.leaf)
        elif label == "and":
            value = all(self._evaluate(child) for child in node.children)
        elif label == "or":
            value = any(self._evaluate(child) for child in node.children)
        elif label == "nor":
            value = not any(self._evaluate(child) for child in node.children)
        else:
            assert label == "not"
            value = not self._evaluate(node.children[0])
        self.cache[node.node_id] = value
        return value


# Small alphabets, so that queries share leaves and whole subtrees.
_dag_leaves = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "n.a"]),
              st.sampled_from(["$gte", "$lt", "$eq", "$ne"]),
              st.integers(0, 3)).map(lambda t: {t[0]: {t[1]: t[2]}}),
    st.sampled_from(["a", "b"]).map(lambda p: {p: {"$not": {"$gte": 2}}}),
    st.sampled_from(["push", "real"]).map(
        lambda term: {"$text": {"$search": term}}),
)
_dag_filters = st.recursive(
    _dag_leaves,
    lambda inner: st.tuples(
        st.sampled_from(["$and", "$or", "$nor"]),
        st.lists(inner, min_size=1, max_size=3),
    ).map(lambda t: {t[0]: t[1]}),
    max_leaves=6,
)
_dag_documents = st.fixed_dictionaries({}, optional={
    "a": st.integers(0, 3), "b": st.one_of(st.integers(0, 3), st.none()),
    "n": st.fixed_dictionaries({"a": st.integers(0, 3)}),
    "t": st.sampled_from(["push based", "real time", ""]),
})


class TestDagLeaves:
    def test_a_leaf_is_compiled_by_its_first_evaluation_not_by_add(self):
        dag = SharedPredicateDAG()
        query = Query({"a": {"$gte": 5}, "b": 1})
        assert dag.add(query)
        leaves = {node.leaf.path: node for node in dag._interned.values()
                  if node.leaf is not None}
        assert set(leaves) == {"a", "b"}
        assert leaves["a"].test is None and leaves["b"].test is None
        # ``a`` decides the conjunction; ``b`` is never reached.
        assert dag.begin({"a": 1, "b": 1}).matches(query.query_id) is False
        assert leaves["a"].test is not None and leaves["b"].test is None
        compiled = leaves["a"].test
        assert dag.begin({"a": 9, "b": 1}).matches(query.query_id) is True
        assert leaves["a"].test is compiled and leaves["b"].test is not None

    @settings(max_examples=150, deadline=None)
    @given(filter_docs=st.lists(_dag_filters, min_size=1, max_size=6),
           docs=st.lists(_dag_documents, min_size=1, max_size=3),
           asks=st.lists(st.integers(0, 5), min_size=1, max_size=10))
    def test_the_flat_pass_counts_exactly_like_the_recursive_one(
            self, filter_docs, docs, asks):
        dag = SharedPredicateDAG()
        queries = [Query(filter_doc, limit=position, sort=[("a", 1)])
                   for position, filter_doc in enumerate(filter_docs)]
        for query in queries:
            assert dag.add(query)
        for document in docs:
            before = (dag.nodes_evaluated, dag.node_hits, dag.queries_served,
                      dag.evaluations)
            evaluation = dag.begin(document)
            reference = _RecursivePass(dag, document)
            for ask in asks:
                query_id = queries[ask % len(queries)].query_id
                assert evaluation.matches(query_id) is reference.matches(
                    query_id)
            assert evaluation.matches("q-unknown") is None
            assert (dag.nodes_evaluated - before[0],
                    dag.node_hits - before[1],
                    dag.queries_served - before[2],
                    dag.evaluations - before[3]) == (
                reference.nodes_evaluated, reference.node_hits,
                reference.queries_served, 1)


class TestOneTokenSetPerWrite:
    """However many ``$text`` leaves a pass evaluates, and whether or
    not the index probes its token buckets, a cell tokenizes an
    after-image at most once — and not at all when nothing reads it."""

    @pytest.fixture
    def tokenized(self, monkeypatch):
        calls: List[Any] = []
        real = text_module.document_tokens

        def counting(document):
            calls.append(document)
            return real(document)

        monkeypatch.setattr(text_module, "document_tokens", counting)
        monkeypatch.setattr(index_module, "document_tokens", counting)
        return calls

    @staticmethod
    def _write(node, key, document):
        return node.process_write(
            AfterImage(key, 1, WriteKind.INSERT, {"_id": key, **document}),
            now=0.0)

    @pytest.mark.parametrize("use_index", [True, False])
    def test_text_queries_share_one_token_set(self, tokenized, use_index):
        node = FilteringNode(NodeCoordinates(0, 0), use_index=use_index)
        searches = ["alpha", "beta", "gamma -delta", '"alpha beta"',
                    "alpha gamma", "omega"]
        for search in searches:
            node.register_query(
                Query({"$text": {"$search": search}}), [], {}, now=0.0)
        events = self._write(node, 1, {"note": "alpha beta gamma"})
        assert len(events) == 5
        assert len(tokenized) == 1
        assert node.dag.evaluations == 1
        if use_index:
            assert node.index.hits["text"] == 4

    def test_no_reader_no_tokens(self, tokenized):
        node = FilteringNode(NodeCoordinates(0, 0))
        node.register_query(Query({"v": {"$gte": 1}}), [], {}, now=0.0)
        assert len(self._write(node, 1, {"v": 2, "note": "alpha"})) == 1
        assert tokenized == []
