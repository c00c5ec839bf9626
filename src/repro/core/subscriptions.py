"""The cluster's subscription bookkeeping.

A *subscription* binds an end-user's interest (a client-generated
subscription ID) to a query.  Several subscriptions — possibly from
several application servers — can share one active query in the
cluster; the cluster tracks queries here, the application server maps
query IDs back to its local subscription IDs (footnote 2 of the paper,
``InvaliDBClient``'s one entry per query).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.query.engine import Query


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
