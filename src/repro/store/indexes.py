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

from repro.query.sortspec import compare_values, value_sort_key
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
        # Parallel sorted lists: wrapped sort keys and (value, pk) payloads.
        self._sort_keys: List[Any] = []
        self._entries: List[Tuple[Any, Any]] = []

    def add(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        sort_key = value_sort_key(value)
        position = bisect.bisect_left(self._sort_keys, sort_key)
        # Advance past equal values to keep insertion stable.
        while (
            position < len(self._sort_keys)
            and compare_values(self._entries[position][0], value) == 0
        ):
            position += 1
        self._sort_keys.insert(position, sort_key)
        self._entries.insert(position, (value, key))

    def remove(self, key: Any, document: Document) -> None:
        value = get_path(document, self.path, _ABSENT)
        if value is _ABSENT:
            return
        sort_key = value_sort_key(value)
        position = bisect.bisect_left(self._sort_keys, sort_key)
        while position < len(self._entries):
            entry_value, entry_key = self._entries[position]
            if compare_values(entry_value, value) != 0:
                break
            if entry_key == key:
                del self._sort_keys[position]
                del self._entries[position]
                return
            position += 1

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
        start = 0
        if lower is not _ABSENT:
            key = value_sort_key(lower)
            start = (
                bisect.bisect_left(self._sort_keys, key)
                if include_lower
                else bisect.bisect_right(self._sort_keys, key)
            )
        end = len(self._entries)
        if upper is not _ABSENT:
            key = value_sort_key(upper)
            end = (
                bisect.bisect_right(self._sort_keys, key)
                if include_upper
                else bisect.bisect_left(self._sort_keys, key)
            )
        result: Set[Any] = set()
        bound = lower if lower is not _ABSENT else upper
        from repro.query.sortspec import type_bracket

        bracket = None if bound is _ABSENT else type_bracket(bound)
        for value, primary_key in self._entries[start:end]:
            if bracket is not None and type_bracket(value) != bracket:
                continue
            result.add(primary_key)
        return result

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
