"""Document-versus-predicate evaluation with MongoDB array semantics.

The matcher resolves dotted paths (fanning out over arrays of embedded
documents), feeds candidate values to leaf operators, and combines the
results through the logical AST nodes.  The notable MongoDB behaviours
reproduced here:

* a predicate on an array field matches when the *whole array* or *any
  element* satisfies it (except whole-array operators such as
  ``$size``);
* ``$ne`` / ``$nin`` are document-level negations — they match when no
  candidate satisfies the inner test, including when the field is
  missing;
* an equality test against ``null`` matches missing fields;
* ``$exists`` tests path resolution, not values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.query.ast import AllOf, Always, AnyOf, FieldPredicate, Node, NoneOf, Not
from repro.query.operators import Eq, Exists, In, Negated, Operator
from repro.query.text import TextSearch
from repro.types import Document

def resolve_path(document: Document, path: str) -> Tuple[List[Any], bool]:
    """Resolve dotted *path* in *document* with array fan-out.

    Returns ``(terminal_values, exists)``.  ``terminal_values`` holds
    every value the path resolves to (several when intermediate arrays
    fan out); ``exists`` is True when at least one resolution succeeded.
    """
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


def _candidates(terminals: List[Any], whole_array_only: bool) -> List[Any]:
    """Expand terminal values into the candidate set an operator sees."""
    if whole_array_only:
        return terminals
    expanded: List[Any] = []
    for value in terminals:
        expanded.append(value)
        if isinstance(value, (list, tuple)):
            expanded.extend(value)
    return expanded


def _null_equality(operator: Operator) -> bool:
    """True when the operator treats missing fields as a match.

    MongoDB: ``{field: null}`` and ``{field: {$in: [..., null, ...]}}``
    match documents where the field is absent.
    """
    if isinstance(operator, Eq):
        return operator.value is None
    if isinstance(operator, In):
        return any(item is None for item in operator.values)
    return False


def _evaluate_field(document: Document, predicate: FieldPredicate) -> bool:
    operator = predicate.operator
    terminals, exists = resolve_path(document, predicate.path)

    if isinstance(operator, Exists):
        return exists == operator.flag

    if isinstance(operator, Negated):
        inner = operator.inner
        if not exists:
            return not _null_equality(inner)
        candidates = _candidates(terminals, inner.whole_array_only)
        return not any(inner.evaluate(value) for value in candidates)

    if not exists:
        return _null_equality(operator)

    candidates = _candidates(terminals, operator.whole_array_only)
    return any(operator.evaluate(value) for value in candidates)


def matches_node(document: Document, node: Node) -> bool:
    """Evaluate AST *node* against *document*.

    This is the per-query walk — the pull store's own matcher and the
    reference the matching stage is tested against.  The filtering
    stage shares work across queries one level up, in
    :class:`~repro.query.shared.SharedPredicateDAG`, which calls this
    only for leaves.
    """
    if isinstance(node, Always):
        return True
    if isinstance(node, FieldPredicate):
        return _evaluate_field(document, node)
    if isinstance(node, AllOf):
        return all(matches_node(document, branch) for branch in node.branches)
    if isinstance(node, AnyOf):
        return any(matches_node(document, branch) for branch in node.branches)
    if isinstance(node, NoneOf):
        return not any(
            matches_node(document, branch) for branch in node.branches
        )
    if isinstance(node, Not):
        return not matches_node(document, node.branch)
    if isinstance(node, TextSearch):
        return node.matches_document(document)
    raise TypeError(f"unknown AST node: {node!r}")


def matches(document: Document, filter_doc: Dict[str, Any]) -> bool:
    """One-shot convenience: parse *filter_doc* and evaluate it.

    For repeated evaluation of the same query, parse once with
    :func:`repro.query.parser.parse_query` and call
    :func:`matches_node`, or use
    :class:`repro.query.engine.MongoQueryEngine`.
    """
    from repro.query.parser import parse_query

    return matches_node(document, parse_query(filter_doc))
