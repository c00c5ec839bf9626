"""Parse MongoDB-style query documents into the predicate AST.

Supported syntax (matching the prototype's engine described in Section
5.4 of the paper):

* implicit conjunction: ``{"a": 1, "b": {"$gt": 2}}``;
* logical operators ``$and``, ``$or``, ``$nor`` and field-level
  ``$not``;
* comparison operators ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``,
  ``$lte``;
* array operators ``$in``, ``$nin``, ``$all``, ``$size``,
  ``$elemMatch``;
* element operators ``$exists``, ``$mod``, ``$type``;
* content-based filtering with ``$regex`` (plus ``$options``) and
  bare ``re.Pattern`` values;
* full-text search ``$text`` and geo operators ``$geoWithin`` /
  ``$nearSphere``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List

from repro.errors import QueryParseError, UnsupportedOperatorError
from repro.query import operators as ops
from repro.query.ast import AllOf, Always, AnyOf, FieldPredicate, Node, NoneOf, Not
from repro.query.geo import GeoWithin, NearSphere
from repro.query.matcher import compile_node
from repro.query.text import TextSearch

_LOGICAL = ("$and", "$or", "$nor")


def _flatten_all_of(branches: List[Node]) -> Node:
    """Collapse trivial conjunctions: 0 branches → Always, 1 → itself."""
    if not branches:
        return Always()
    if len(branches) == 1:
        return branches[0]
    return AllOf(tuple(branches))


def parse_query(filter_doc: Dict[str, Any]) -> Node:
    """Parse *filter_doc* into an AST :class:`~repro.query.ast.Node`."""
    if not isinstance(filter_doc, dict):
        raise QueryParseError(f"query filter must be a dict, got {type(filter_doc)}")
    branches: List[Node] = []
    for key, operand in filter_doc.items():
        if key in _LOGICAL:
            branches.append(_parse_logical(key, operand))
        elif key == "$text":
            branches.append(TextSearch.from_spec(operand))
        elif key.startswith("$"):
            raise UnsupportedOperatorError(key)
        else:
            branches.append(_parse_field(key, operand))
    return _flatten_all_of(branches)


def _parse_logical(name: str, operand: Any) -> Node:
    if not isinstance(operand, (list, tuple)) or not operand:
        raise QueryParseError(f"{name} requires a non-empty array of queries")
    children = tuple(parse_query(sub) for sub in operand)
    if name == "$and":
        return AllOf(children) if len(children) > 1 else children[0]
    if name == "$or":
        return AnyOf(children)
    return NoneOf(children)


def _is_operator_dict(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and bool(value)
        and all(isinstance(key, str) and key.startswith("$") for key in value)
    )


def _parse_field(path: str, operand: Any) -> Node:
    if isinstance(operand, re.Pattern):
        return FieldPredicate(path, ops.Regex(operand))
    if _is_operator_dict(operand):
        return _parse_operator_dict(path, operand)
    # Plain value (scalar, array, or embedded document): BSON equality.
    return FieldPredicate(path, ops.Eq(operand))


def _parse_operator_dict(path: str, operand: Dict[str, Any]) -> Node:
    branches: List[Node] = []
    pending_regex: Any = None
    pending_options = ""
    for name, arg in operand.items():
        if name == "$regex":
            pending_regex = arg
        elif name == "$options":
            if not isinstance(arg, str):
                raise QueryParseError("$options must be a string")
            pending_options = arg
        elif name == "$not":
            branches.append(Not(_parse_not(path, arg)))
        else:
            branches.append(FieldPredicate(path, _build_operator(name, arg)))
    if pending_regex is not None:
        branches.append(FieldPredicate(path, ops.Regex(pending_regex, pending_options)))
    elif pending_options:
        raise QueryParseError("$options given without $regex")
    if not branches:
        raise QueryParseError(f"empty operator document for field {path!r}")
    return _flatten_all_of(branches)


def _parse_not(path: str, arg: Any) -> Node:
    """Parse the operand of ``field: {$not: ...}``."""
    if isinstance(arg, re.Pattern):
        return FieldPredicate(path, ops.Regex(arg))
    if _is_operator_dict(arg):
        if "$not" in arg:
            raise QueryParseError("$not cannot be nested directly")
        return _parse_operator_dict(path, arg)
    raise QueryParseError("$not requires an operator document or regex")


def _build_operator(name: str, arg: Any) -> ops.Operator:
    builder = _OPERATOR_BUILDERS.get(name)
    if builder is None:
        raise UnsupportedOperatorError(name)
    return builder(arg)


def _build_elem_match(arg: Any) -> ops.Operator:
    if not isinstance(arg, dict) or not arg:
        raise QueryParseError("$elemMatch requires a non-empty document")
    if _is_operator_dict(arg):
        # Value form: operators applied directly to each array element.
        if "$not" in arg:
            raise QueryParseError("$not is not supported inside $elemMatch")
        element_ops = [
            _build_operator(name, operand) for name, operand in arg.items()
        ]
        # $ne/$nin reject an element their inner test passes.
        tests = [
            (operator.inner.value_test(), True)
            if isinstance(operator, ops.Negated)
            else (operator.value_test(), False)
            for operator in element_ops
        ]

        def predicate(element: Any) -> bool:
            for test, negated in tests:
                if negated:
                    if test(element):
                        return False
                elif not test(element):
                    return False
            return True

        canonical = {name: operand for name, operand in arg.items()}
        return ops.ElemMatch(predicate, ("value", ops.freeze(canonical)))

    # Document form: each element is matched as a sub-document.
    sub_matches = compile_node(parse_query(arg))

    def doc_predicate(element: Any) -> bool:
        return isinstance(element, dict) and sub_matches(element)

    return ops.ElemMatch(doc_predicate, ("doc", ops.freeze(arg)))


_OPERATOR_BUILDERS: Dict[str, Callable[[Any], ops.Operator]] = {
    "$eq": ops.Eq,
    "$ne": ops.ne,
    "$gt": ops.Gt,
    "$gte": ops.Gte,
    "$lt": ops.Lt,
    "$lte": ops.Lte,
    "$in": ops.In,
    "$nin": ops.nin,
    "$exists": ops.Exists,
    "$mod": ops.Mod,
    "$size": ops.Size,
    "$all": ops.All,
    "$type": ops.TypeOf,
    "$elemMatch": _build_elem_match,
    "$geoWithin": GeoWithin,
    "$nearSphere": NearSphere,
}

SUPPORTED_OPERATORS = tuple(sorted(_OPERATOR_BUILDERS)) + (
    "$and",
    "$nor",
    "$not",
    "$options",
    "$or",
    "$regex",
    "$text",
)
