"""Canonical query normalization and stable query hashing.

Section 5.1 of the paper: queries are hash-partitioned *by their query
attributes* — never by subscription ID — so that "distinct
subscriptions to a particular query are always assigned the same hash
value and are thus routed to the same partition, even when received by
different application servers".

This module provides that canonical identity.  Two query documents that
differ only in key order, in ``$and``/``$or`` branch order, or in the
spelling of equality (``{"a": 1}`` vs ``{"a": {"$eq": 1}}``) normalize
to the same value and therefore the same hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.query.ast import AllOf, Always, AnyOf, FieldPredicate, Node, NoneOf, Not
from repro.query.parser import parse_query
from repro.query.sortspec import SortInput, SortSpec
from repro.query.text import TextSearch


def _canonical_sort_key(value: Any) -> Tuple[Any, ...]:
    """Total-order key over canonical forms (branch ordering).

    Branches of ``$and``/``$or``/``$nor`` must sort deterministically so
    reordered spellings of one query hash identically.  Ordering by
    ``repr`` is fragile: default object reprs embed memory addresses
    (varying across processes, which would break cross-server query
    routing) and distinct values can share a repr.  This key orders by
    a type rank first and a comparable payload second, recursing into
    tuples; numeric payloads compare exactly (Python int/float
    comparison is arbitrary-precision), with the type name as the
    tiebreaker so canonical-unequal values never compare equal.
    """
    if isinstance(value, tuple):
        return (7, tuple(_canonical_sort_key(item) for item in value))
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        if value != value:  # NaN: pin every NaN to one fixed slot
            return (2,)
        return (3, value, type(value).__name__)
    if isinstance(value, str):
        return (4, value)
    if isinstance(value, bytes):
        return (5, value)
    if isinstance(value, frozenset):
        return (6, tuple(sorted(_canonical_sort_key(item) for item in value)))
    # Exotic leaf values: class name keeps unlike types apart; repr is
    # only ever compared within one class.
    return (8, type(value).__name__, repr(value))


def normalize_node(node: Node) -> Tuple[Any, ...]:
    """Return an order-independent canonical form of an AST node."""
    if isinstance(node, Always):
        return ("always",)
    if isinstance(node, FieldPredicate):
        return ("field", node.path, node.operator.canonical())
    if isinstance(node, Not):
        return ("not", normalize_node(node.branch))
    if isinstance(node, TextSearch):
        return (
            "text",
            tuple(sorted(node.parsed.terms)),
            tuple(sorted(node.parsed.phrases)),
            tuple(sorted(node.parsed.negated)),
        )
    if isinstance(node, (AllOf, AnyOf, NoneOf)):
        label = {"AllOf": "and", "AnyOf": "or", "NoneOf": "nor"}[type(node).__name__]
        branches = tuple(sorted(
            (normalize_node(b) for b in node.branches),
            key=_canonical_sort_key,
        ))
        return (label, branches)
    raise TypeError(f"unknown AST node: {node!r}")


def normalize_filter(filter_doc: Dict[str, Any]) -> Tuple[Any, ...]:
    """Parse and normalize a filter document in one step."""
    return normalize_node(parse_query(filter_doc))


def canonical_query_form(
    filter_doc: Dict[str, Any],
    collection: str = "default",
    sort: Optional[SortInput] = None,
    limit: Optional[int] = None,
    offset: int = 0,
) -> Tuple[Any, ...]:
    """Canonical form of a complete query (filter + sort + limit/offset).

    The collection is part of the identity because the same filter on
    two collections is two different queries.
    """
    sort_part: Any = None
    if sort is not None:
        sort_part = SortSpec.coerce(sort).canonical()
    return (
        collection,
        normalize_filter(filter_doc),
        sort_part,
        limit,
        offset,
    )


def query_hash(
    filter_doc: Dict[str, Any],
    collection: str = "default",
    sort: Optional[SortInput] = None,
    limit: Optional[int] = None,
    offset: int = 0,
) -> int:
    """Stable 64-bit hash of a query's canonical form.

    Stable across processes (unlike Python's salted ``hash``), which
    matters because different application servers must route the same
    query to the same query partition.
    """
    return canonical_hash(
        canonical_query_form(filter_doc, collection, sort, limit, offset)
    )


def canonical_hash(canonical: Tuple[Any, ...]) -> int:
    """:func:`query_hash` of a form :func:`canonical_query_form` built
    (a parsed query hashes its own AST's form without re-parsing)."""
    payload = json.dumps(_jsonable(canonical), sort_keys=True, default=repr)
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _jsonable(value: Any) -> Any:
    """Convert canonical tuples into JSON-encodable lists."""
    if isinstance(value, tuple):
        return ["__t__"] + [_jsonable(item) for item in value]
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return value
