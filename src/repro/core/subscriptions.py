"""Subscription bookkeeping shared by client and cluster.

A *subscription* binds an end-user's interest (a client-generated
subscription ID) to a query.  Several subscriptions — possibly from
several application servers — can share one active query in the
cluster; the cluster tracks queries, the application server maps query
IDs back to its local subscription IDs (footnote 2 of the paper).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SubscriptionError
from repro.query.engine import Query


@dataclass
class SubscriptionRecord:
    """One end-user subscription as the application server sees it."""

    subscription_id: str
    query: Query
    created_at: float
    #: The canonical query hash the app server "remembers ... for the
    #: entire lifetime of a subscription" (Section 5.1) because it can
    #: only be computed from the subscription request — the one the
    #: grid routes by (``Query.partition_hash``).
    query_hash: int = 0

    def __post_init__(self) -> None:
        if not self.query_hash:
            self.query_hash = self.query.partition_hash


class QueryRegistration:
    """Cluster-side state: one active query and its subscribers.

    Tracks which application servers subscribed and the TTL deadline per
    app server; a query is deactivated once every app server's TTL
    lapsed or cancelled.

    ``servers`` is the subscribed app servers in subscribe order as an
    immutable tuple, replaced (never mutated) under the lock whenever
    the set changes.  The notification fan-out reads it without the
    lock: a reader sees one consistent set, current or just replaced.
    """

    def __init__(self, query: Query, now: float, ttl: float):
        self.query = query
        self.ttl = ttl
        self._deadlines: Dict[str, float] = {}
        self._lock = threading.Lock()
        self.created_at = now
        self.servers: Tuple[str, ...] = ()

    def subscribe(self, app_server_id: str, now: float) -> None:
        with self._lock:
            if app_server_id not in self._deadlines:
                self.servers = self.servers + (app_server_id,)
            self._deadlines[app_server_id] = now + self.ttl

    def extend(self, app_server_id: str, now: float) -> bool:
        """Extend the TTL; False when the app server never subscribed.

        Per footnote 3 of the paper, extensions for unknown
        subscriptions are not an error scenario — they are ignored.
        """
        with self._lock:
            if app_server_id not in self._deadlines:
                return False
            self._deadlines[app_server_id] = now + self.ttl
            return True

    def cancel(self, app_server_id: str) -> None:
        with self._lock:
            if self._deadlines.pop(app_server_id, None) is not None:
                self.servers = tuple(self._deadlines)

    def expire(self, now: float) -> List[str]:
        """Drop lapsed app servers, returning the expired IDs."""
        with self._lock:
            expired = [
                server for server, deadline in self._deadlines.items()
                if deadline <= now
            ]
            if expired:
                for server in expired:
                    del self._deadlines[server]
                self.servers = tuple(self._deadlines)
        return expired

    @property
    def app_servers(self) -> List[str]:
        return list(self.servers)

    @property
    def active(self) -> bool:
        with self._lock:
            return bool(self._deadlines)


class SubscriptionTable:
    """The application server's map of live subscriptions."""

    def __init__(self) -> None:
        self._by_id: Dict[str, SubscriptionRecord] = {}
        self._by_query: Dict[str, Set[str]] = {}
        self._lock = threading.Lock()

    def add(self, record: SubscriptionRecord) -> None:
        with self._lock:
            if record.subscription_id in self._by_id:
                raise SubscriptionError(
                    f"duplicate subscription id: {record.subscription_id!r}"
                )
            self._by_id[record.subscription_id] = record
            self._by_query.setdefault(record.query.query_id, set()).add(
                record.subscription_id
            )

    def remove(self, subscription_id: str) -> Optional[SubscriptionRecord]:
        with self._lock:
            record = self._by_id.pop(subscription_id, None)
            if record is None:
                return None
            peers = self._by_query.get(record.query.query_id)
            if peers is not None:
                peers.discard(subscription_id)
                if not peers:
                    del self._by_query[record.query.query_id]
            return record

    def get(self, subscription_id: str) -> Optional[SubscriptionRecord]:
        with self._lock:
            return self._by_id.get(subscription_id)

    def subscriptions_for_query(self, query_id: str) -> List[SubscriptionRecord]:
        with self._lock:
            ids = self._by_query.get(query_id, set())
            return [self._by_id[sub_id] for sub_id in ids]

    def query_is_shared(self, query_id: str) -> bool:
        """True when more than one local subscription uses the query."""
        with self._lock:
            return len(self._by_query.get(query_id, ())) > 1

    def all_records(self) -> List[SubscriptionRecord]:
        with self._lock:
            return list(self._by_id.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __contains__(self, subscription_id: str) -> bool:
        with self._lock:
            return subscription_id in self._by_id
