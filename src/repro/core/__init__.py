"""InvaliDB core: the paper's primary contribution.

Two-dimensional workload partitioning (Section 5.1), staged query
processing with a filtering and a sorting stage (Section 5.2), write
stream retention with staleness avoidance, and the client/cluster
split over the event layer (Section 5).
"""

from repro.core.config import InvaliDBConfig
from repro.core.cluster import InvaliDBCluster
from repro.core.client import InvaliDBClient, RealTimeSubscription
from repro.core.partitioning import PartitioningScheme, stable_hash
from repro.core.server import AppServer

__all__ = [
    "AppServer",
    "InvaliDBClient",
    "InvaliDBCluster",
    "InvaliDBConfig",
    "PartitioningScheme",
    "RealTimeSubscription",
    "stable_hash",
]
