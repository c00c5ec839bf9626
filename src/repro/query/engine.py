"""The pluggable query engine interface and its MongoDB implementation.

Section 5.3 of the paper: the pluggable query engine "contains all
logic related to (1) parsing queries according to one specific query
language, (2) interpreting the incoming after-images according to the
prevalent format and encoding, (3) computing the actual matching
decision, and (4) sorting the result according to database semantics".
:class:`PluggableQueryEngine` is that interface;
:class:`MongoQueryEngine` is the MongoDB-compatible implementation used
by the prototype.

:class:`Query` is the parsed, immutable representation that flows
through the system — app server, ingestion nodes and matching nodes all
share it.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import QueryParseError
from repro.query.ast import Node, iter_nodes, referenced_paths
from repro.query.matcher import Matcher, TokenSupplier, compile_node
from repro.query.normalize import canonical_hash, normalize_node
from repro.query.parser import parse_query
from repro.query.sortspec import SortInput, SortSpec
from repro.query.text import TextSearch
from repro.types import Document


def core_id_of(partition_hash: int) -> str:
    """The id of the sort core a partition hash names (see
    :attr:`Query.core_id`)."""
    return f"c-{partition_hash:016x}"


class Query:
    """A parsed, normalized query over one collection.

    Carries the filter AST, the optional sort specification, limit and
    offset, plus the stable :attr:`hash` identifying the query, the
    derived :attr:`query_id`, and the :attr:`partition_hash` the grid
    routes it by.  The three are computed on first use from the parsed
    filter, never by re-parsing it: a query that is only read with
    (a bootstrap's rewritten or unsorted form) never hashes.
    """

    __slots__ = (
        "collection",
        "filter_doc",
        "node",
        "sort",
        "limit",
        "offset",
        "_hash",
        "_partition_hash",
        "_query_id",
        "_compiled",
    )

    def __init__(
        self,
        filter_doc: Dict[str, Any],
        collection: str = "default",
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ):
        if limit is not None and (isinstance(limit, bool) or limit < 0):
            raise QueryParseError(f"limit must be a non-negative int: {limit!r}")
        if isinstance(offset, bool) or offset < 0:
            raise QueryParseError(f"offset must be a non-negative int: {offset!r}")
        if offset and sort is None:
            raise QueryParseError("offset requires an explicit sort order")
        if limit is not None and sort is None:
            raise QueryParseError("limit requires an explicit sort order")
        self.collection = collection
        self.filter_doc = filter_doc
        self.node: Node = parse_query(filter_doc)
        self.sort: Optional[SortSpec] = None if sort is None else SortSpec.coerce(sort)
        self.limit = limit
        self.offset = offset
        self._hash: Optional[int] = None
        self._partition_hash: Optional[int] = None
        self._query_id: Optional[str] = None
        #: ``(node, compile_node(node), reads_text)``, kept by the first
        #: ``matches``.
        self._compiled: Optional[Tuple[Node, Matcher, bool]] = None

    # -- classification ----------------------------------------------------

    @property
    def is_sorted(self) -> bool:
        """True when the query carries an explicit sort order.

        Unsorted filter queries are *self-maintainable* in the filtering
        stage; sorted queries additionally go through the sorting stage
        (Section 5.2).
        """
        return self.sort is not None

    @property
    def needs_sorting_stage(self) -> bool:
        return self.is_sorted

    # -- identity ------------------------------------------------------------

    @property
    def hash(self) -> int:
        """Stable 64-bit hash of the canonical query form
        (:func:`~repro.query.normalize.query_hash`)."""
        value = self._hash
        if value is None:
            value = self._hash = canonical_hash(self.canonical())
        return value

    @property
    def query_id(self) -> str:
        value = self._query_id
        if value is None:
            value = self._query_id = f"q-{self.hash:016x}"
        return value

    @property
    def partition_hash(self) -> int:
        """What the grid routes by: every page (limit/offset slice) of
        one filter + sort shares its sort core's hash, so all pages meet
        one matching row and one sorting task.  An unsorted query routes
        by its :attr:`hash`."""
        value = self._partition_hash
        if value is None:
            value = self._partition_hash = (
                self.hash
                if self.sort is None or (self.limit is None and not self.offset)
                else canonical_hash(self._canonical_form(self.sort, None, 0))
            )
        return value

    @property
    def core_id(self) -> str:
        """The id the filtering and sorting stages key this query by.

        A sorted query is one page of a *sort core* (collection +
        canonical filter + sort, no limit or offset); its core id has
        its own ``c-`` prefix, so it never equals a page's ``q-`` id.
        An unsorted query is its own unit: its core id is its query id.
        """
        if self.sort is None:
            return self.query_id
        return core_id_of(self.partition_hash)

    # -- behaviour ----------------------------------------------------------

    def _compile(self) -> Tuple[Node, Matcher, bool]:
        """``(node, compiled predicate, reads_text)`` for the current
        :attr:`node`: the cached triple, else a fresh one the caller
        may keep (rebuilt when :attr:`node` was reassigned)."""
        compiled = self._compiled
        if compiled is None or compiled[0] is not self.node:
            node = self.node
            compiled = (
                node,
                compile_node(node),
                any(isinstance(part, TextSearch) for part in iter_nodes(node)),
            )
        return compiled

    def scan_matcher(self) -> Tuple[Matcher, bool]:
        """The compiled predicate for one scan over many documents
        (``matcher(document[, tokens])``, see :mod:`repro.query.matcher`)
        and whether it reads a ``$text`` token set.

        The closure :meth:`matches` cached when there is one; otherwise
        a fresh one the query does not keep.  The store reads a
        subscribed query once per subscribe or renewal, and an app
        server holds its queries for their whole subscription: keeping
        a closure on each would cost memory across all of them to save
        one compile per renewal.
        """
        _, matcher, reads_text = self._compile()
        return matcher, reads_text

    def matches(self, document: Document, tokens: TokenSupplier = None) -> bool:
        """Does *document* satisfy the filter predicate?

        Runs the compiled predicate, built on first use and then kept (a
        query that is only ever registered, hashed or routed never pays
        for it).  *tokens* supplies the document's ``$text`` token set
        when the caller memoizes it.
        """
        compiled = self._compiled
        if compiled is None or compiled[0] is not self.node:
            compiled = self._compiled = self._compile()
        return compiled[1](document, tokens)

    def referenced_paths(self) -> Tuple[str, ...]:
        """Field paths the filter references (useful for index planning)."""
        return referenced_paths(self.node)

    def canonical(self) -> Tuple[Any, ...]:
        return self._canonical_form(self.sort, self.limit, self.offset)

    def _canonical_form(
        self, sort: Optional[SortSpec], limit: Optional[int], offset: int
    ) -> Tuple[Any, ...]:
        """:func:`~repro.query.normalize.canonical_query_form` of this
        filter under *sort* / *limit* / *offset*, from :attr:`node`."""
        return (
            self.collection,
            normalize_node(self.node),
            None if sort is None else sort.canonical(),
            limit,
            offset,
        )

    def rewritten_for_subscription(self, slack: int) -> "Query":
        """The paper's query rewriting for sorted queries (Section 5.2).

        The offset clause is removed (``OFFSET → 0``) so the initial
        result contains the offset items, and the limit is extended by
        the original offset plus *slack* items beyond the limit.
        Unsorted queries are returned unchanged.
        """
        if not self.is_sorted or (self.limit is None and self.offset == 0):
            return self
        extended_limit = None
        if self.limit is not None:
            extended_limit = self.offset + self.limit + slack
        return self._with_window(self.sort, extended_limit, 0)

    def unsorted(self) -> "Query":
        """This query's filter alone: no sort, limit or offset."""
        if self.sort is None:
            return self
        return self._with_window(None, None, 0)

    def _with_window(
        self, sort: Optional[SortSpec], limit: Optional[int], offset: int
    ) -> "Query":
        """This query's filter under another sort / limit / offset.

        Shares :attr:`node` (and the compiled predicate, when one is
        cached) instead of re-parsing :attr:`filter_doc`; the identity
        hash is its own, computed on first use.  The caller keeps the
        constructor's invariants (limit and offset need a sort) for any
        query it subscribes; a pull read may page in scan order.
        """
        derived = Query.__new__(Query)
        derived.collection = self.collection
        derived.filter_doc = self.filter_doc
        derived.node = self.node
        derived.sort = sort
        derived.limit = limit
        derived.offset = offset
        derived._hash = None
        derived._partition_hash = None
        derived._query_id = None
        derived._compiled = self._compiled
        return derived

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Query) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return self.hash

    def __repr__(self) -> str:
        parts = [f"Query({self.collection}: {self.filter_doc!r}"]
        if self.sort is not None:
            parts.append(f" sort={self.sort!r}")
        if self.limit is not None:
            parts.append(f" limit={self.limit}")
        if self.offset:
            parts.append(f" offset={self.offset}")
        return "".join(parts) + ")"


class PluggableQueryEngine(abc.ABC):
    """Database-specific query logic behind a generic interface.

    Implementations must guarantee that :meth:`matches` and
    :meth:`sort` produce exactly the same outcomes as the underlying
    pull-based database's query engine — the alignment requirement of
    Section 5.3.
    """

    @abc.abstractmethod
    def parse(
        self,
        filter_doc: Dict[str, Any],
        collection: str = "default",
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Query:
        """Parse a raw query document into a :class:`Query`."""

    @abc.abstractmethod
    def interpret_after_image(self, payload: Any) -> Document:
        """Decode an after-image payload into a document."""

    @abc.abstractmethod
    def matches(self, query: Query, document: Document) -> bool:
        """Compute the matching decision for one document."""

    @abc.abstractmethod
    def sort(self, query: Query, documents: Iterable[Document]) -> List[Document]:
        """Order *documents* under the query's sort specification."""


class MongoQueryEngine(PluggableQueryEngine):
    """The MongoDB-compatible engine used by the InvaliDB prototype."""

    def parse(
        self,
        filter_doc: Dict[str, Any],
        collection: str = "default",
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Query:
        return Query(filter_doc, collection, sort, limit, offset)

    def interpret_after_image(self, payload: Any) -> Document:
        if not isinstance(payload, dict):
            raise QueryParseError(
                f"after-image payload must be a document, got {type(payload)}"
            )
        return payload

    def matches(self, query: Query, document: Document) -> bool:
        return query.matches(document)

    def sort(self, query: Query, documents: Iterable[Document]) -> List[Document]:
        if query.sort is None:
            return list(documents)
        return query.sort.sort(documents)
