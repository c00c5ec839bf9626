"""A single document collection with MongoDB-style operations.

The operations InvaliDB's application server needs from the underlying
database (Section 5.4 of the paper):

* ``find_and_modify`` — executes a write and *returns the after-image*
  so the app server can forward it to the InvaliDB cluster;
* per-record version numbers, initialized on insert and incremented on
  every write (used for staleness avoidance);
* ``find`` with filter / sort / skip / limit for initial results.

Every write is appended to the collection's :class:`~repro.store.oplog.
Oplog`, which the log-tailing baseline consumes.  All reads return deep
copies, made of the returned documents only: ``find``, ``execute`` and
``execute_versioned`` share one read path (``_window``) that matches
with the query's compiled predicate, sorts and slices the stored
documents, then copies the slice.  A write validates and copies its
input in one walk and returns a copy too; only its write listeners see
the stored document, read-only (``on_write``), and so does the
client's bootstrap read (``_read_versioned``), which copies only the
page it hands to a subscription.  The collection is thread-safe.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import (
    DocumentNotFoundError,
    DuplicateKeyError,
    InvalidDocumentError,
)
from repro.query.ast import AllOf, Always, FieldPredicate, Node
from repro.query.engine import MongoQueryEngine, Query
from repro.query.operators import Eq, Gt, Gte, In, Lt, Lte
from repro.query.operators import values_equal
from repro.query.sortspec import SortInput
from repro.query.text import LazyTokens
from repro.store.documents import deep_copy, validate_document, validated_copy
from repro.store.projection import apply_projection
from repro.store.indexes import HashIndex, OrderedIndex, make_index
from repro.store.oplog import Oplog
from repro.store.updates import apply_update, is_update_document
from repro.types import PRIMARY_KEY, AfterImage, Document, WriteKind

Clock = Callable[[], float]

_DISTINCT_ABSENT = object()


def _copies(documents: List[Document]) -> List[Document]:
    return [deep_copy(document) for document in documents]


class Collection:
    """A named collection of documents keyed by ``_id``."""

    def __init__(
        self,
        name: str = "default",
        oplog: Optional[Oplog] = None,
        clock: Clock = time.time,
        engine: Optional[MongoQueryEngine] = None,
    ):
        self.name = name
        self.oplog = oplog if oplog is not None else Oplog()
        self._clock = clock
        self._engine = engine if engine is not None else MongoQueryEngine()
        self._documents: Dict[Any, Document] = {}
        self._versions: Dict[Any, int] = {}
        self._indexes: Dict[str, Any] = {}
        #: key -> the stored document's ``$text`` token set (see
        #: ``_matching``).  Stored documents are never mutated in place
        #: (``apply_update`` copies), so an entry stays valid until the
        #: write that replaces or deletes its document drops it: the
        #: keys are always a subset of the live documents' keys.
        self._text_tokens: Dict[Any, LazyTokens] = {}
        self._lock = threading.RLock()
        self._write_listeners: List[Callable[[AfterImage], None]] = []

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, document: Document) -> AfterImage:
        """Insert a new document; raises on duplicate primary key."""
        return self._insert(validated_copy(document))

    def _insert(self, stored: Document) -> AfterImage:
        """Insert *stored*, the collection's own validated copy."""
        key = stored[PRIMARY_KEY]
        with self._lock:
            if key in self._documents:
                raise DuplicateKeyError(key)
            self._documents[key] = stored
            # Versions must stay monotone per key across delete/re-insert:
            # a reset to 1 would rank below the tombstone's version and the
            # staleness protocol would drop the re-insert everywhere.
            self._versions[key] = self._versions.get(key, 0) + 1
            self._index_add(key, stored)
            after = self._after_image(key, WriteKind.INSERT, stored)
        return self._publish(after)

    def replace(self, document: Document) -> AfterImage:
        """Replace an existing document wholesale."""
        return self._replace(validated_copy(document))

    def _replace(self, stored: Document) -> AfterImage:
        """Replace with *stored*, the collection's own validated copy."""
        key = stored[PRIMARY_KEY]
        with self._lock:
            if key not in self._documents:
                raise DocumentNotFoundError(key)
            self._index_remove(key, self._documents[key])
            self._documents[key] = stored
            self._text_tokens.pop(key, None)
            self._versions[key] += 1
            self._index_add(key, stored)
            after = self._after_image(key, WriteKind.UPDATE, stored)
        return self._publish(after)

    def save(self, document: Document) -> AfterImage:
        """Insert-or-replace (upsert by primary key)."""
        stored = validated_copy(document)
        with self._lock:
            if stored[PRIMARY_KEY] in self._documents:
                return self._replace(stored)
            return self._insert(stored)

    def update(self, key: Any, update_spec: Dict[str, Any]) -> AfterImage:
        """Apply update operators (``$set``/``$inc``/...) to one document."""
        with self._lock:
            current = self._documents.get(key)
            if current is None:
                raise DocumentNotFoundError(key)
            updated = apply_update(current, update_spec, now=self._clock())
            validate_document(updated)
            self._index_remove(key, current)
            self._documents[key] = updated
            self._text_tokens.pop(key, None)
            self._versions[key] += 1
            self._index_add(key, updated)
            after = self._after_image(key, WriteKind.UPDATE, updated)
        return self._publish(after)

    def delete(self, key: Any) -> AfterImage:
        """Delete a document; the after-image carries no document."""
        with self._lock:
            current = self._documents.pop(key, None)
            if current is None:
                raise DocumentNotFoundError(key)
            self._index_remove(key, current)
            self._text_tokens.pop(key, None)
            self._versions[key] += 1
            after = self._after_image(key, WriteKind.DELETE, None)
        return self._publish(after)

    def find_and_modify(
        self,
        key: Any,
        update_spec: Optional[Dict[str, Any]] = None,
        upsert: bool = False,
        remove: bool = False,
    ) -> AfterImage:
        """MongoDB-style ``findAndModify`` returning the after-image.

        * ``remove=True`` deletes the document (after-image is null);
        * an operator document applies an in-place update;
        * a plain document replaces (or, with ``upsert``, inserts).
        """
        if remove:
            return self.delete(key)
        if update_spec is None:
            raise InvalidDocumentError("find_and_modify needs an update or remove")
        with self._lock:
            exists = key in self._documents
            if is_update_document(update_spec):
                if not exists:
                    if not upsert:
                        raise DocumentNotFoundError(key)
                    seed: Document = {PRIMARY_KEY: key}
                    updated = apply_update(seed, update_spec, now=self._clock())
                    return self.insert(updated)
                return self.update(key, update_spec)
            replacement = dict(update_spec)
            replacement.setdefault(PRIMARY_KEY, key)
            if replacement[PRIMARY_KEY] != key:
                raise InvalidDocumentError("replacement _id must match key")
            if exists:
                return self.replace(replacement)
            if not upsert:
                raise DocumentNotFoundError(key)
            return self.insert(replacement)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: Any) -> Optional[Document]:
        """Point lookup by primary key (deep copy, or None)."""
        with self._lock:
            document = self._documents.get(key)
            return None if document is None else deep_copy(document)

    def version_of(self, key: Any) -> int:
        """Current version of *key* (0 when never written)."""
        with self._lock:
            return self._versions.get(key, 0)

    def find(
        self,
        filter_doc: Optional[Dict[str, Any]] = None,
        sort: Optional[SortInput] = None,
        skip: int = 0,
        limit: Optional[int] = None,
        projection: Optional[Dict[str, Any]] = None,
    ) -> List[Document]:
        """Evaluate a pull-based query: filter → sort → skip → limit →
        projection."""
        query = self._parse(filter_doc, sort)
        with self._lock:
            window = self._window(query, skip, limit)
        return apply_projection(_copies(window), projection)

    def _parse(
        self, filter_doc: Optional[Dict[str, Any]], sort: Optional[SortInput] = None
    ) -> Query:
        """*filter_doc* and *sort* as a query; skip and limit stay with
        the caller (``find`` takes them without a sort)."""
        return self._engine.parse(
            filter_doc if filter_doc is not None else {},
            collection=self.name,
            sort=sort,
        )

    def _matching(self, query: Query) -> List[Document]:
        """The *stored* documents *query*'s filter matches, in scan
        order (the caller holds the lock and copies what it returns).

        Runs the query's own compiled predicate.  A ``$text`` read takes
        each document's token set from :attr:`_text_tokens`, built on
        the first text read that reaches the document and dropped by
        the write that replaces or deletes it.
        """
        matches, reads_text = query.scan_matcher()
        documents = self._documents
        candidates = self._candidate_keys(query.node)
        if candidates is None:
            scanned: Any = documents.items()
        else:
            scanned = [
                (key, documents[key]) for key in candidates if key in documents
            ]
        if not reads_text:
            return [document for _, document in scanned if matches(document)]
        memo = self._text_tokens
        matching = []
        for key, document in scanned:
            tokens = memo.get(key)
            if tokens is None:
                tokens = memo[key] = LazyTokens(document)
            if matches(document, tokens):
                matching.append(document)
        return matching

    def _window(
        self, query: Query, offset: int, limit: Optional[int]
    ) -> List[Document]:
        """The one read path: match, sort the stored documents on the
        query's native keys and slice them (the caller holds the lock
        and copies only the slice)."""
        matching = self._matching(query)
        if query.sort is not None:
            matching.sort(key=query.sort.key)
        if offset:
            matching = matching[offset:]
        if limit is not None:
            matching = matching[:limit]
        return matching

    def distinct(
        self, path: str, filter_doc: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        """Distinct values of *path* over matching documents.

        Array fields contribute their elements (MongoDB semantics);
        results are returned in BSON order.
        """
        from repro.query.sortspec import value_sort_key
        from repro.store.documents import get_path

        query = self._parse(filter_doc)
        seen: List[Any] = []
        with self._lock:
            for document in self._matching(query):
                value = get_path(document, path, _DISTINCT_ABSENT)
                if value is _DISTINCT_ABSENT:
                    continue
                candidates = value if isinstance(value, list) else [value]
                for candidate in candidates:
                    if not any(
                        values_equal(candidate, existing) for existing in seen
                    ):
                        seen.append(deep_copy(candidate))
        return sorted(seen, key=value_sort_key)

    def execute(self, query: Query) -> List[Document]:
        """Run a parsed :class:`Query` (filter + sort + offset + limit)."""
        with self._lock:
            window = self._window(query, query.offset, query.limit)
        return _copies(window)

    def execute_versioned(
        self, query: Query
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        """:meth:`execute` plus the version of every returned document
        and the read watermark ``{store_id: head_sequence}``, all read in
        one critical section.  A bootstrap labelled with a version newer
        than its content makes the cluster discard that very write as
        already known; the watermark tells which writes the bootstrap
        already reflects (every write stamped below it)."""
        documents, versions, watermark = self._read_versioned(query)
        return _copies(documents), versions, watermark

    def _read_versioned(
        self, query: Query
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        """:meth:`execute_versioned` without the copies: the stored
        documents, which the caller must not mutate (the client's
        bootstrap read, which copies only the handle's page)."""
        with self._lock:
            documents = self._window(query, query.offset, query.limit)
            versions = {
                doc["_id"]: self._versions.get(doc["_id"], 0)
                for doc in documents
            }
            return documents, versions, {
                self.oplog.store_id: self.oplog.head_sequence
            }

    def explain(self, filter_doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Describe how ``find`` would execute *filter_doc*.

        Returns the access plan: ``"index"`` with the candidate count
        when index pre-filtering applies, otherwise ``"full-scan"`` —
        the per-query cost visibility the app server needs to keep the
        pull-based side from becoming a bottleneck (Section 5.4).
        """
        query = self._parse(filter_doc)
        with self._lock:
            candidates = self._candidate_keys(query.node)
            total = len(self._documents)
        if candidates is None:
            return {
                "plan": "full-scan",
                "documents_examined": total,
                "indexes_available": sorted(self._indexes),
            }
        return {
            "plan": "index",
            "documents_examined": len(candidates),
            "documents_total": total,
            "indexes_available": sorted(self._indexes),
        }

    def find_one(
        self, filter_doc: Optional[Dict[str, Any]] = None
    ) -> Optional[Document]:
        query = self._parse(filter_doc)
        with self._lock:
            matching = self._matching(query)
            return deep_copy(matching[0]) if matching else None

    def count(self, filter_doc: Optional[Dict[str, Any]] = None) -> int:
        if filter_doc is None or not filter_doc:
            with self._lock:
                return len(self._documents)
        query = self._parse(filter_doc)
        with self._lock:
            return len(self._matching(query))

    def all_keys(self) -> List[Any]:
        with self._lock:
            return list(self._documents.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._documents

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def ensure_index(self, path: str, kind: str = "hash") -> None:
        """Create an index on *path* (``"hash"`` or ``"ordered"``)."""
        with self._lock:
            if path in self._indexes and self._indexes[path].kind == kind:
                return
            index = make_index(path, kind)
            for key, document in self._documents.items():
                index.add(key, document)
            self._indexes[path] = index

    def _index_add(self, key: Any, document: Document) -> None:
        for index in self._indexes.values():
            index.add(key, document)

    def _index_remove(self, key: Any, document: Document) -> None:
        for index in self._indexes.values():
            index.remove(key, document)

    def _candidate_keys(self, node: Node) -> Optional[Set[Any]]:
        """Use indexes to pre-filter candidates; None means full scan.

        Only top-level conjunctive equality/range predicates are
        considered — the index is a pure accelerator, every candidate is
        re-checked against the full predicate.
        """
        if isinstance(node, Always) or not self._indexes:
            return None
        predicates: List[FieldPredicate] = []
        if isinstance(node, FieldPredicate):
            predicates = [node]
        elif isinstance(node, AllOf):
            predicates = [
                branch for branch in node.branches
                if isinstance(branch, FieldPredicate)
            ]
        best: Optional[Set[Any]] = None
        for predicate in predicates:
            index = self._indexes.get(predicate.path)
            if index is None:
                continue
            keys = self._keys_from_index(index, predicate)
            if keys is None:
                continue
            best = keys if best is None else best & keys
        return best

    @staticmethod
    def _keys_from_index(index: Any, predicate: FieldPredicate) -> Optional[Set[Any]]:
        operator = predicate.operator
        if isinstance(index, HashIndex):
            if isinstance(operator, Eq):
                return index.lookup(operator.value)
            if isinstance(operator, In):
                return index.lookup_any(operator.values)
            return None
        if isinstance(index, OrderedIndex):
            if isinstance(operator, Eq):
                return index.range(operator.value, operator.value)
            if isinstance(operator, Gt):
                return index.range(lower=operator.value, include_lower=False)
            if isinstance(operator, Gte):
                return index.range(lower=operator.value)
            if isinstance(operator, Lt):
                return index.range(upper=operator.value, include_upper=False)
            if isinstance(operator, Lte):
                return index.range(upper=operator.value)
        return None

    # ------------------------------------------------------------------
    # Change publication
    # ------------------------------------------------------------------

    def on_write(self, listener: Callable[[AfterImage], None]) -> Callable[[], None]:
        """Register a per-write listener (the app server uses this to
        forward after-images to InvaliDB).  Returns an unsubscriber.

        A listener's after-image carries the *stored* document, not a
        copy (the matching cells retain it without a duplicate): a
        listener, and whatever it hands the document to, must not
        mutate it."""
        with self._lock:
            self._write_listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._write_listeners:
                    self._write_listeners.remove(listener)

        return unsubscribe

    def _after_image(
        self, key: Any, kind: WriteKind, document: Optional[Document]
    ) -> AfterImage:
        """Log the write and return its after-image, stamped with the
        oplog entry (callers hold the collection lock, so the stamp
        orders this write against every read of the collection).

        The entry and the after-image hold the stored *document* itself
        (never mutated in place); :meth:`_publish` gives the caller a
        copy it may change freely."""
        timestamp = self._clock()
        entry = self.oplog.append(
            collection=self.name,
            kind=kind,
            key=key,
            version=self._versions[key],
            after_image=document,
            timestamp=timestamp,
        )
        return AfterImage(key, entry.version, kind, document, self.name,
                          timestamp, self.oplog.store_id, entry.sequence)

    def _publish(self, after: AfterImage) -> AfterImage:
        """Hand *after* to the write listeners as it is; return the
        caller's after-image, which carries its own copy."""
        with self._lock:
            listeners = list(self._write_listeners)
        for listener in listeners:
            listener(after)
        if after.document is None:
            return after
        return after._replace(document=deep_copy(after.document))
