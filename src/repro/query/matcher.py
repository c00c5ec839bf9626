"""Document-versus-predicate evaluation with MongoDB array semantics.

There is one evaluator, and it is compiled: :func:`compile_node` turns
a predicate AST into a closure ``(document, tokens=None) -> bool``
once, and every caller that decides more than one document holds on to
it — a :class:`~repro.query.engine.Query` (the filtering stage's
per-query fallback; the pull store's read holds one for its scan), each
leaf of the shared predicate DAG (:mod:`repro.query.shared`), the
``$elemMatch`` sub-predicate.  *tokens* is an optional zero-argument supplier of the
document's ``$text`` token set (a :class:`~repro.query.text.LazyTokens`,
the same hook the DAG pass uses): a caller that already holds or
memoizes the set passes it, and only ``$text`` leaves ever call it.
:func:`matches_node` is the uncached convenience on top.

A field leaf compiles to *resolver, fan-out, value test*: the path is
split once (a top-level field of a plain ``dict`` is one ``dict.get``;
dotted paths fan out over arrays of embedded documents), the candidate
values are visited in a loop, and each is decided by the operator's
:meth:`~repro.query.operators.Operator.value_test` — which is where
operator semantics live; this module only knows how values are found
and combined.  The notable MongoDB behaviours reproduced here:

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

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.query.ast import AllOf, Always, AnyOf, FieldPredicate, Node, NoneOf, Not
from repro.query.operators import Eq, Exists, In, Negated, Operator
from repro.query.text import TextSearch
from repro.types import Document

#: A compiled predicate: ``matcher(document)`` or
#: ``matcher(document, tokens)`` with a token-set supplier.
Matcher = Callable[..., bool]

#: What a compiled predicate takes as its optional second argument.
TokenSupplier = Optional[Callable[[], Set[str]]]

_MISSING = object()


def _descend(
    current: Any, parts: Sequence[str], index: int, terminals: List[Any]
) -> None:
    """Append every value ``parts[index:]`` resolves to under *current*."""
    if index == len(parts):
        terminals.append(current)
        return
    part = parts[index]
    if isinstance(current, dict):
        if part in current:
            _descend(current[part], parts, index + 1, terminals)
        return
    if isinstance(current, (list, tuple)):
        if part.isdigit():
            position = int(part)
            if position < len(current):
                _descend(current[position], parts, index + 1, terminals)
        for element in current:
            if isinstance(element, dict) and part in element:
                _descend(element[part], parts, index + 1, terminals)


def resolve_path(document: Document, path: str) -> Tuple[List[Any], bool]:
    """Resolve dotted *path* in *document* with array fan-out.

    Returns ``(terminal_values, exists)``.  ``terminal_values`` holds
    every value the path resolves to (several when intermediate arrays
    fan out); ``exists`` is True when at least one resolution succeeded.
    """
    terminals: List[Any] = []
    _descend(document, path.split("."), 0, terminals)
    return terminals, bool(terminals)


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


def _compile_field(predicate: FieldPredicate) -> Matcher:
    """Compile one field leaf: does some candidate value pass the test?

    The candidates of a path are each value it resolves to plus, unless
    the operator is whole-array-only, the elements of those that are
    arrays.  ``$ne``/``$nin`` invert the outcome; ``$exists`` is the
    same question with a test every resolved value passes.
    """
    operator = predicate.operator
    if isinstance(operator, Exists):
        inner, negated = operator, not operator.flag
    elif isinstance(operator, Negated):
        inner, negated = operator.inner, True
    else:
        inner, negated = operator, False
    test = inner.value_test()
    fan_out = not inner.whole_array_only
    hit, miss = not negated, negated
    on_missing = _null_equality(inner) != negated
    parts = tuple(predicate.path.split("."))
    # A top-level field of a plain dict is one lookup; every other
    # shape (dotted path, dict subclass, array document) is walked.
    key = parts[0] if len(parts) == 1 else None

    def field(document: Document, tokens: TokenSupplier = None) -> bool:
        if key is not None and type(document) is dict:
            value = document.get(key, _MISSING)
            if value is _MISSING:
                return on_missing
            terminals: Sequence[Any] = (value,)
        else:
            terminals = []
            _descend(document, parts, 0, terminals)
            if not terminals:
                return on_missing
        for value in terminals:
            if test(value):
                return hit
            if fan_out and isinstance(value, (list, tuple)):
                for element in value:
                    if test(element):
                        return hit
        return miss

    return field


def _always(document: Document, tokens: TokenSupplier = None) -> bool:
    return True


def compile_node(node: Node) -> Matcher:
    """Compile AST *node* into a closure deciding one document.

    Built once per predicate and then only called; the closure is a
    per-process cache that is never pickled or put on the wire.
    """
    if isinstance(node, FieldPredicate):
        return _compile_field(node)
    if isinstance(node, Always):
        return _always
    if isinstance(node, (AllOf, AnyOf, NoneOf)):
        branches = tuple(compile_node(branch) for branch in node.branches)
        if isinstance(node, AllOf):

            def all_of(document: Document, tokens: TokenSupplier = None) -> bool:
                for branch in branches:
                    if not branch(document, tokens):
                        return False
                return True

            return all_of
        found = isinstance(node, AnyOf)

        def any_of(document: Document, tokens: TokenSupplier = None) -> bool:
            for branch in branches:
                if branch(document, tokens):
                    return found
            return not found

        return any_of
    if isinstance(node, Not):
        inner = compile_node(node.branch)

        def negation(document: Document, tokens: TokenSupplier = None) -> bool:
            return not inner(document, tokens)

        return negation
    if isinstance(node, TextSearch):

        def text(document: Document, tokens: TokenSupplier = None) -> bool:
            return node.matches_document(
                document, None if tokens is None else tokens()
            )

        return text
    raise TypeError(f"unknown AST node: {node!r}")


def matches_node(document: Document, node: Node) -> bool:
    """Evaluate AST *node* against *document* (compiles on every call).

    The uncached convenience; anything deciding several documents keeps
    the closure :func:`compile_node` returns.
    """
    return compile_node(node)(document)


def matches(document: Document, filter_doc: Dict[str, Any]) -> bool:
    """One-shot convenience: parse *filter_doc* and evaluate it.

    For repeated evaluation of the same query use
    :class:`repro.query.engine.Query` (or
    :class:`~repro.query.engine.MongoQueryEngine`), which compiles once.
    """
    from repro.query.parser import parse_query

    return matches_node(document, parse_query(filter_doc))
