"""A query-result cache kept coherent by InvaliDB invalidations.

The Quaestor architecture caches query results at web caches and keeps
them consistent by letting InvaliDB "detect result changes and purge
the corresponding result caches in timely fashion" (Section 5).  This
module reproduces that scheme in-process:

* ``find`` first consults the cache; on a miss the query runs against
  the database, the result is cached, and a real-time query is
  subscribed whose sole purpose is invalidation;
* any change notification for the query purges the cached entry (and,
  configurably, refreshes it — write-through-style);
* entries are evicted LRU-style beyond ``max_entries``.

``stats`` exposes hits/misses/invalidation counts — the quantities
behind the paper's claim of more than an order of magnitude improvement
for cached pull-based queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.server import AppServer
from repro.core.client import RealTimeSubscription
from repro.query.engine import Query
from repro.query.sortspec import SortInput
from repro.types import ChangeNotification, Document


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    refreshes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _CacheEntry:
    result: List[Document]
    subscription: RealTimeSubscription
    valid: bool = True


class InvalidatingQueryCache:
    """Consistent query cache on top of an :class:`AppServer`."""

    def __init__(
        self,
        app_server: AppServer,
        max_entries: int = 1024,
        refresh_on_invalidation: bool = False,
    ):
        self.app_server = app_server
        self.max_entries = max_entries
        self.refresh_on_invalidation = refresh_on_invalidation
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, str], _CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Cached reads
    # ------------------------------------------------------------------

    def find(
        self,
        collection: str,
        filter_doc: Dict[str, Any],
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Document]:
        """Cached pull-based query; never returns a stale result beyond
        notification latency."""
        query = Query(filter_doc, collection=collection, sort=sort,
                      limit=limit, offset=offset)
        cache_key = (collection, query.query_id)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None and entry.valid:
                self.stats.hits += 1
                self._entries.move_to_end(cache_key)
                return list(entry.result)
        self.stats.misses += 1
        result = self.app_server.find(
            collection, filter_doc, sort=sort, skip=offset, limit=limit
        )
        self._store(cache_key, collection, query, result)
        return result

    def _store(
        self,
        cache_key: Tuple[str, str],
        collection: str,
        query: Query,
        result: List[Document],
    ) -> None:
        with self._lock:
            existing = self._entries.get(cache_key)
            if existing is not None:
                existing.result = list(result)
                existing.valid = True
                self._entries.move_to_end(cache_key)
                return

            def on_change(notification: ChangeNotification,
                          key: Tuple[str, str] = cache_key) -> None:
                self._invalidate(key, notification)

            subscription = self.app_server.subscribe(
                collection,
                query.filter_doc,
                sort=query.sort,
                limit=query.limit,
                offset=query.offset,
                on_change=on_change,
            )
            self._entries[cache_key] = _CacheEntry(list(result), subscription)
            self._evict_lru()

    def _evict_lru(self) -> None:
        while len(self._entries) > self.max_entries:
            _, entry = self._entries.popitem(last=False)
            self.app_server.unsubscribe(entry.subscription)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _invalidate(self, cache_key: Tuple[str, str],
                    notification: ChangeNotification) -> None:
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is None:
                return
            self.stats.invalidations += 1
            if self.refresh_on_invalidation:
                # The subscription handle materializes the new result
                # from the notification stream — refresh in place.
                entry.result = entry.subscription.result()
                entry.valid = True
                self.stats.refreshes += 1
            else:
                entry.valid = False

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def is_cached(self, collection: str, filter_doc: Dict[str, Any],
                  sort: Optional[SortInput] = None,
                  limit: Optional[int] = None, offset: int = 0) -> bool:
        query = Query(filter_doc, collection=collection, sort=sort,
                      limit=limit, offset=offset)
        with self._lock:
            entry = self._entries.get((collection, query.query_id))
            return entry is not None and entry.valid

    def close(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self.app_server.unsubscribe(entry.subscription)
