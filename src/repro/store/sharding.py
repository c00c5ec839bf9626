"""Hash-sharded collections.

The paper's production deployment runs "MongoDB with sharded
collections" (Section 5.4).  :class:`ShardedCollection` splits one
logical collection over N :class:`~repro.store.collection.Collection`
shards by a stable hash of the primary key, routes point writes to the
owning shard, and serves ``find`` by scatter-gather with a merge of the
per-shard results.

The important property for InvaliDB is that *each shard has its own
oplog*: a log-tailing consumer must process the combined throughput of
all shards (the very bottleneck of Section 3.1), while InvaliDB's
write-ingestion re-partitions the union of all shard streams.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.partitioning import stable_hash
from repro.query.engine import MongoQueryEngine, Query
from repro.query.sortspec import SortInput, SortSpec
from repro.store.collection import Collection
from repro.types import AfterImage, Document, PRIMARY_KEY


class ShardedCollection:
    """One logical collection over N hash-partitioned shards."""

    def __init__(
        self,
        name: str = "default",
        shards: int = 2,
        clock: Callable[[], float] = time.time,
    ):
        if shards < 1:
            raise ValueError("a sharded collection needs at least one shard")
        self.name = name
        self._engine = MongoQueryEngine()
        self.shards: List[Collection] = [
            Collection(name=name, clock=clock, engine=self._engine)
            for _ in range(shards)
        ]

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: Any) -> Collection:
        return self.shards[stable_hash(key) % len(self.shards)]

    # -- writes ------------------------------------------------------------

    def insert(self, document: Document) -> AfterImage:
        return self.shard_for(document[PRIMARY_KEY]).insert(document)

    def save(self, document: Document) -> AfterImage:
        return self.shard_for(document[PRIMARY_KEY]).save(document)

    def update(self, key: Any, update_spec: Dict[str, Any]) -> AfterImage:
        return self.shard_for(key).update(key, update_spec)

    def delete(self, key: Any) -> AfterImage:
        return self.shard_for(key).delete(key)

    def find_and_modify(self, key: Any, **kwargs: Any) -> AfterImage:
        return self.shard_for(key).find_and_modify(key, **kwargs)

    # -- reads ---------------------------------------------------------------

    def get(self, key: Any) -> Optional[Document]:
        return self.shard_for(key).get(key)

    def find(
        self,
        filter_doc: Optional[Dict[str, Any]] = None,
        sort: Optional[SortInput] = None,
        skip: int = 0,
        limit: Optional[int] = None,
    ) -> List[Document]:
        """Scatter-gather find with a global merge.

        Each shard evaluates the filter and sort locally and copies only
        its share of the window; the coordinator merges (sorting
        globally when a sort is requested) and applies skip / limit on
        the merged stream — the standard mongos behaviour.
        """
        query = self._engine.parse(
            filter_doc if filter_doc is not None else {},
            collection=self.name, sort=sort,
        )
        if skip or limit is not None:
            # A pull read pages in scan order when it has no sort.
            query = query._with_window(query.sort, limit, skip)
        return self.execute(query)

    def _gather(self, query: Query) -> List[Document]:
        partials: List[Document] = []
        for shard in self.shards:
            partials.extend(shard.execute(query))
        return partials

    @staticmethod
    def _shard_read(query: Query) -> Query:
        """What each shard reads for *query*: its filter and sort, cut
        at the end of its window (``limit = offset + limit``, offset 0),
        so a shard copies at most that many matches.  The merge stays
        exact: the global window is drawn from each shard's sorted
        prefix, and ties keep shard order, then stored order."""
        if not query.offset:
            return query
        limit = None if query.limit is None else query.offset + query.limit
        return query._with_window(query.sort, limit, 0)

    @staticmethod
    def _merge(partials: List[Document], sort: Optional[SortInput],
               skip: int, limit: Optional[int]) -> List[Document]:
        if sort is not None:
            partials = SortSpec.coerce(sort).sort(partials)
        if skip:
            partials = partials[skip:]
        if limit is not None:
            partials = partials[:limit]
        return partials

    def execute(self, query: Query) -> List[Document]:
        return self._merge(self._gather(self._shard_read(query)),
                           query.sort, query.offset, query.limit)

    def execute_versioned(
        self, query: Query
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        """:meth:`execute` plus each returned document's version and the
        read watermark; every shard reads its documents, their versions
        and its watermark atomically (see
        :meth:`Collection.execute_versioned`).  Shards that share a store
        contribute the minimum of their watermarks: only writes below
        every shard's read are known to be reflected."""
        return self._merge_versioned(
            query, [shard.execute_versioned for shard in self.shards]
        )

    def _read_versioned(
        self, query: Query
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        """:meth:`execute_versioned` without the copies (see
        :meth:`Collection._read_versioned`)."""
        return self._merge_versioned(
            query, [shard._read_versioned for shard in self.shards]
        )

    def _merge_versioned(
        self, query: Query, reads: List[Callable[[Query], Any]]
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        shard_query = self._shard_read(query)
        partials: List[Document] = []
        versions: Dict[Any, int] = {}
        watermark: Dict[int, int] = {}
        for read in reads:
            documents, shard_versions, shard_mark = read(shard_query)
            partials.extend(documents)
            versions.update(shard_versions)
            for store_id, head in shard_mark.items():
                watermark[store_id] = min(head, watermark.get(store_id, head))
        merged = self._merge(partials, query.sort, query.offset, query.limit)
        return (
            merged,
            {doc["_id"]: versions[doc["_id"]] for doc in merged},
            watermark,
        )

    def count(self, filter_doc: Optional[Dict[str, Any]] = None) -> int:
        return sum(shard.count(filter_doc) for shard in self.shards)

    def version_of(self, key: Any) -> int:
        return self.shard_for(key).version_of(key)

    def on_write(self, listener: Callable[[AfterImage], None]) -> Callable[[], None]:
        """Subscribe to writes on every shard; one unsubscriber for all."""
        unsubscribers = [shard.on_write(listener) for shard in self.shards]

        def unsubscribe() -> None:
            for cancel in unsubscribers:
                cancel()

        return unsubscribe

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: Any) -> bool:
        return key in self.shard_for(key)
