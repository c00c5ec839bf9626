"""MongoDB-compatible pluggable query engine.

This package implements the *pluggable query engine* of the paper
(Section 5.3): parsing MongoDB-style query documents into a predicate
AST, evaluating documents against it with MongoDB array semantics,
sorting results with BSON type ordering, and computing a canonical query
hash used for two-dimensional workload partitioning.

Public entry points:

* :func:`parse_query` — query document → :class:`~repro.query.ast.Node`
* :class:`MongoQueryEngine` — the full engine (match / sort / hash)
* :class:`Query` — a parsed, normalized query with sort/limit/offset
* :func:`matches` — one-shot document-vs-filter evaluation
"""

from repro.query.ast import (
    AllOf,
    AnyOf,
    FieldPredicate,
    Node,
    NoneOf,
    Not,
    conjunctive_branches,
)
from repro.query.engine import MongoQueryEngine, PluggableQueryEngine, Query
from repro.query.index import QueryIndex
from repro.query.matcher import matches, matches_node
from repro.query.normalize import normalize_filter, query_hash
from repro.query.parser import parse_query
from repro.query.sortspec import SortSpec, compare_documents, document_sort_key

__all__ = [
    "AllOf",
    "AnyOf",
    "FieldPredicate",
    "MongoQueryEngine",
    "Node",
    "NoneOf",
    "Not",
    "PluggableQueryEngine",
    "Query",
    "QueryIndex",
    "SortSpec",
    "compare_documents",
    "conjunctive_branches",
    "document_sort_key",
    "matches",
    "matches_node",
    "normalize_filter",
    "parse_query",
    "query_hash",
]
