"""The application server facade.

Client applications "only interact with the application servers that
execute writes as well as pull- and push-based queries on their
behalf" (Section 5).  :class:`AppServer` bundles the pull-based
database and the InvaliDB client behind one object with a unified
query interface:

* ``find`` / ``insert`` / ``update`` / ``delete`` — pull-based access,
  with after-images automatically forwarded to the InvaliDB cluster;
* ``subscribe`` — push-based real-time queries.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.client import (
    ChangeCallback,
    ErrorCallback,
    InitialCallback,
    InvaliDBClient,
    RealTimeSubscription,
)
from repro.core.config import InvaliDBConfig
from repro.event.broker import Broker
from repro.query.sortspec import SortInput
from repro.store.database import Database
from repro.types import AfterImage, Document


class AppServer:
    """One application server: pull-based database + real-time opt-in."""

    def __init__(
        self,
        server_id: str,
        broker: Broker,
        database: Optional[Database] = None,
        config: Optional[InvaliDBConfig] = None,
        tenant: str = "default",
    ):
        self.server_id = server_id
        self.database = database if database is not None else Database()
        self.client = InvaliDBClient(
            server_id, broker, self.database, config=config, tenant=tenant
        )
        self._attached: Dict[str, Callable[[], None]] = {}

    # ------------------------------------------------------------------
    # Pull-based interface (writes forward after-images automatically)
    # ------------------------------------------------------------------

    def _collection(self, name: str) -> Any:
        collection = self.database.collection(name)
        if name not in self._attached:
            self._attached[name] = self.client.attach(collection)
        return collection

    def insert(self, collection: str, document: Document) -> AfterImage:
        return self._collection(collection).insert(document)

    def save(self, collection: str, document: Document) -> AfterImage:
        return self._collection(collection).save(document)

    def update(self, collection: str, key: Any,
               update_spec: Dict[str, Any]) -> AfterImage:
        return self._collection(collection).update(key, update_spec)

    def delete(self, collection: str, key: Any) -> AfterImage:
        return self._collection(collection).delete(key)

    def find(
        self,
        collection: str,
        filter_doc: Optional[Dict[str, Any]] = None,
        sort: Optional[SortInput] = None,
        skip: int = 0,
        limit: Optional[int] = None,
    ) -> List[Document]:
        return self._collection(collection).find(
            filter_doc, sort=sort, skip=skip, limit=limit
        )

    # ------------------------------------------------------------------
    # Push-based interface
    # ------------------------------------------------------------------

    def subscribe(
        self,
        collection: str,
        filter_doc: Dict[str, Any],
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        on_change: Optional[ChangeCallback] = None,
        on_initial: Optional[InitialCallback] = None,
        on_error: Optional[ErrorCallback] = None,
    ) -> RealTimeSubscription:
        """Subscribe to a real-time query over *collection*.

        Ensures the collection's writes are forwarded, so a subscription
        created before the first write still sees every change.
        """
        self._collection(collection)
        return self.client.subscribe(
            filter_doc,
            collection=collection,
            sort=sort,
            limit=limit,
            offset=offset,
            on_change=on_change,
            on_initial=on_initial,
            on_error=on_error,
        )

    def unsubscribe(self, subscription: RealTimeSubscription) -> None:
        self.client.unsubscribe(subscription)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        for detach in self._attached.values():
            detach()
        self._attached.clear()
        self.client.close()

    def __enter__(self) -> "AppServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
