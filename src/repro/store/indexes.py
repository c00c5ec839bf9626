"""Secondary indexes for the document store.

Two index kinds cover the access paths ``find`` benefits from:

* :class:`HashIndex` — equality lookups (``{field: value}``,
  ``$eq``/``$in``);
* :class:`OrderedIndex` — range scans (``$gt``/``$gte``/``$lt``/
  ``$lte``) backed by a sorted key list with bisection.

Index values follow the query engine's BSON ordering, so an index scan
and a collection scan always select the same documents.  Indexes store
primary keys, never documents.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Set, Tuple

from repro.query.sortspec import value_sort_key
from repro.store.documents import get_path
from repro.types import Document

_ABSENT = object()


class HashIndex:
    """Equality index from field value to the set of primary keys."""

    kind = "hash"

    def __init__(self, path: str):
        self.path = path
        self._buckets: Dict[Any, Set[Any]] = {}

    @staticmethod
    def _bucket_key(value: Any) -> Any:
        """Hashable bucket key; lists/dicts are frozen by repr of structure."""
        if isinstance(value, dict):
            return ("__obj__", tuple(sorted((k, HashIndex._bucket_key(v))
                                            for k, v in value.items())))
        if isinstance(value, (list, tuple)):
            return ("__arr__", tuple(HashIndex._bucket_key(v) for v in value))
        if isinstance(value, float) and value != value:
            # NaN equals NaN under BSON equality but not as a dict key.
            return ("__nan__",)
        return value

    def add(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        self._buckets.setdefault(self._bucket_key(value), set()).add(key)
        # Index array elements too, so equality against an element hits.
        if isinstance(value, (list, tuple)):
            for element in value:
                self._buckets.setdefault(self._bucket_key(element), set()).add(key)

    def remove(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        candidates = [value]
        if isinstance(value, (list, tuple)):
            candidates.extend(value)
        for candidate in candidates:
            bucket = self._buckets.get(self._bucket_key(candidate))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._buckets[self._bucket_key(candidate)]

    def lookup(self, value: Any) -> Set[Any]:
        """Primary keys of documents whose field equals *value*."""
        return set(self._buckets.get(self._bucket_key(value), ()))

    def lookup_any(self, values: List[Any]) -> Set[Any]:
        keys: Set[Any] = set()
        for value in values:
            keys |= self.lookup(value)
        return keys

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class OrderedIndex:
    """Sorted index supporting range scans under BSON ordering."""

    kind = "ordered"

    def __init__(self, path: str):
        self.path = path
        # Parallel sorted lists: native sort keys and (value, pk) payloads.
        self._sort_keys: List[Any] = []
        self._entries: List[Tuple[Any, Any]] = []

    def add(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        sort_key = value_sort_key(value)
        # Right of every equal value: insertion stays stable.
        position = bisect.bisect_right(self._sort_keys, sort_key)
        self._sort_keys.insert(position, sort_key)
        self._entries.insert(position, (value, key))

    def remove(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        sort_key = value_sort_key(value)
        start = bisect.bisect_left(self._sort_keys, sort_key)
        end = bisect.bisect_right(self._sort_keys, sort_key, start)
        for position in range(start, end):
            if self._entries[position][1] == key:
                del self._sort_keys[position]
                del self._entries[position]
                return

    def range(
        self,
        lower: Any = _ABSENT,
        upper: Any = _ABSENT,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> Set[Any]:
        """Primary keys with values inside the given bounds.

        The scan is restricted to the operand's type bracket, matching
        the query engine's comparison semantics.
        """
        keys = self._sort_keys
        # A native key starts with its value's type bracket.
        bracket = None
        start = 0
        if lower is not _ABSENT:
            key = value_sort_key(lower)
            bracket = key[0]
            start = (
                bisect.bisect_left(keys, key)
                if include_lower
                else bisect.bisect_right(keys, key)
            )
        end = len(keys)
        if upper is not _ABSENT:
            key = value_sort_key(upper)
            if bracket is None:
                bracket = key[0]
            end = (
                bisect.bisect_right(keys, key)
                if include_upper
                else bisect.bisect_left(keys, key)
            )
        return {
            primary_key
            for sort_key, (_, primary_key) in zip(
                keys[start:end], self._entries[start:end]
            )
            if bracket is None or sort_key[0] == bracket
        }

    def __len__(self) -> int:
        return len(self._entries)


def make_index(path: str, kind: str) -> Any:
    """Factory used by :class:`~repro.store.collection.Collection`."""
    if kind == "hash":
        return HashIndex(path)
    if kind == "ordered":
        return OrderedIndex(path)
    from repro.errors import IndexError_

    raise IndexError_(f"unknown index kind: {kind!r}")
