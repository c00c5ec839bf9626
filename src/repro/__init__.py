"""InvaliDB reproduction: scalable push-based real-time queries on top
of pull-based databases.

Reproduction of Wingerath, Gessert, Ritter — "InvaliDB: Scalable
Push-Based Real-Time Queries on Top of Pull-Based Databases
(Extended)", PVLDB 13(12) / ICDE 2020.

Quickstart::

    from repro import AppServer, InvaliDBCluster, InvaliDBConfig
    from repro.event import Broker

    broker = Broker()
    cluster = InvaliDBCluster(broker, InvaliDBConfig(query_partitions=2,
                                                     write_partitions=2))
    cluster.start()
    app = AppServer("app-1", broker)
    subscription = app.subscribe("articles", {"year": {"$gte": 2017}},
                                 on_change=print)
    app.insert("articles", {"_id": 1, "title": "DB Fun", "year": 2018})
    # ... on_change receives the 'add' change, and subscription.result()
    # now holds the article.
"""

from repro.core.client import InvaliDBClient, RealTimeSubscription
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.partitioning import PartitioningScheme, stable_hash
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.query.engine import MongoQueryEngine, Query
from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    ThreadedExecutionModel,
)
from repro.runtime.process import ProcessExecutionModel, WorkerPool
from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.sharding import ShardedCollection
from repro.types import (
    AfterImage,
    ChangeNotification,
    InitialResult,
    MatchType,
    WriteKind,
)

__version__ = "1.0.0"

__all__ = [
    "AfterImage",
    "AppServer",
    "Broker",
    "ChangeNotification",
    "Collection",
    "Database",
    "ExecutionConfig",
    "InitialResult",
    "InlineExecutionModel",
    "ProcessExecutionModel",
    "ThreadedExecutionModel",
    "WorkerPool",
    "InvaliDBClient",
    "InvaliDBCluster",
    "InvaliDBConfig",
    "MatchType",
    "MongoQueryEngine",
    "PartitioningScheme",
    "Query",
    "RealTimeSubscription",
    "ShardedCollection",
    "WriteKind",
    "__version__",
    "stable_hash",
]
