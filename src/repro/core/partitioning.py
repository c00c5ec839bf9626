"""Two-dimensional workload partitioning (Section 5.1 of the paper).

The InvaliDB cluster is a grid: every matching node is assigned exactly
one *query partition* (QP) and one *write partition* (WP).  A query is
routed to all nodes of its query partition (one per write partition); a
write is routed to all nodes of its write partition (one per query
partition).  Every (query, write) pair therefore meets at exactly one
node — the intersection — which is what makes both dimensions scale
independently.

Hashing rules from the paper:

* **writes** hash on the primary key — "it is the only attribute that
  is transmitted on insert, update, and delete";
* **queries** hash on the canonical query attributes, *never* the
  subscription ID, so distinct subscriptions to the same query land on
  the same partition even via different application servers.  A sorted
  query hashes on its sort core's attributes (``Query.partition_hash``:
  limit and offset excluded), so every page of one filter + sort shares
  a query partition and a sorting task.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

from repro.errors import ClusterConfigError


#: Keys a :class:`PartitioningScheme` remembers the write partition of.
_RECENT_KEYS = 4096


def stable_hash(value: Any) -> int:
    """A 64-bit hash that is stable across processes and platforms.

    Python's built-in ``hash`` is salted per process; partitioning
    decisions must agree between app servers and ingestion nodes, so we
    hash a canonical byte representation with BLAKE2b instead.
    """
    payload = _canonical_bytes(value)
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def _canonical_bytes(value: Any) -> bytes:
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, bool):
        return b"B:1" if value else b"B:0"
    if isinstance(value, int):
        return b"i:" + str(value).encode()
    if isinstance(value, float):
        # Integral floats hash like their int counterpart so that a key
        # written as 3 and re-written as 3.0 routes identically.
        if value.is_integer():
            return b"i:" + str(int(value)).encode()
        return b"f:" + repr(value).encode()
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if value is None:
        return b"n:"
    if isinstance(value, (tuple, list)):
        return b"t:[" + b",".join(_canonical_bytes(item) for item in value) + b"]"
    if isinstance(value, dict):
        items = sorted(
            (str(key), _canonical_bytes(val)) for key, val in value.items()
        )
        return b"d:{" + b",".join(
            key.encode() + b"=" + val for key, val in items
        ) + b"}"
    return b"r:" + repr(value).encode()


def sorting_task_of(core_id: Any, sorting_nodes: int) -> int:
    """The sorting task that owns a sort core: cores are partitioned
    across the sorting stage by core ID alone, so every match event of
    one core meets its window in one task."""
    return stable_hash((core_id,)) % sorting_nodes


@dataclass(frozen=True)
class NodeCoordinates:
    """The grid position of one matching node."""

    query_partition: int
    write_partition: int

    def __str__(self) -> str:
        return f"qp{self.query_partition}/wp{self.write_partition}"


class PartitioningScheme:
    """Routing logic for a ``query_partitions × write_partitions`` grid."""

    def __init__(self, query_partitions: int, write_partitions: int):
        if query_partitions < 1 or write_partitions < 1:
            raise ClusterConfigError(
                "the grid needs at least one query and one write partition, got "
                f"{query_partitions}x{write_partitions}"
            )
        self.query_partitions = query_partitions
        self.write_partitions = write_partitions
        #: Recently routed key -> write partition, emptied when full:
        #: the intake routes a write by its key, and the SLO accountant
        #: labels that write's notifications by the same partition
        #: moments later, so one hash serves both.
        self._recent: Dict[Any, int] = {}

    # -- dimension hashing ---------------------------------------------------

    def query_partition_of(self, query_hash: int) -> int:
        """Query partition from the canonical query hash."""
        return query_hash % self.query_partitions

    def write_partition_of(self, primary_key: Any) -> int:
        """Write partition from the primary key."""
        kind = type(primary_key)
        if kind is not str and kind is not int and kind is not float:
            # Only a primary key's types are remembered: a bool equals
            # an int as a dict key but hashes apart.
            return stable_hash(primary_key) % self.write_partitions
        recent = self._recent
        partition = recent.get(primary_key)
        if partition is None:
            partition = stable_hash(primary_key) % self.write_partitions
            if len(recent) >= _RECENT_KEYS:
                recent.clear()
            recent[primary_key] = partition
        return partition

    # -- grid routing ---------------------------------------------------------

    def node_for(self, query_hash: int, primary_key: Any) -> NodeCoordinates:
        """The unique node where a given query meets a given write."""
        return NodeCoordinates(
            self.query_partition_of(query_hash),
            self.write_partition_of(primary_key),
        )

    def nodes_for_query(self, query_hash: int) -> List[NodeCoordinates]:
        """All nodes a subscription is broadcast to (one per WP)."""
        qp = self.query_partition_of(query_hash)
        return [NodeCoordinates(qp, wp) for wp in range(self.write_partitions)]

    def nodes_for_write(self, primary_key: Any) -> List[NodeCoordinates]:
        """All nodes an after-image is delivered to (one per QP)."""
        wp = self.write_partition_of(primary_key)
        return [NodeCoordinates(qp, wp) for qp in range(self.query_partitions)]

    def row_tasks(self, query_partition: int) -> range:
        """Task indices of one query partition's row: where a
        subscription is broadcast (see :meth:`task_index`)."""
        start = query_partition * self.write_partitions
        return range(start, start + self.write_partitions)

    def column_tasks(self, write_partition: int) -> range:
        """Task indices of one write partition's column: where an
        after-image is delivered."""
        return range(write_partition, self.node_count, self.write_partitions)

    # -- enumeration -----------------------------------------------------------

    def all_nodes(self) -> Iterator[NodeCoordinates]:
        for qp in range(self.query_partitions):
            for wp in range(self.write_partitions):
                yield NodeCoordinates(qp, wp)

    @property
    def node_count(self) -> int:
        return self.query_partitions * self.write_partitions

    def task_index(self, node: NodeCoordinates) -> int:
        """Flatten grid coordinates into a task index (row-major)."""
        return node.query_partition * self.write_partitions + node.write_partition

    def worker_slot(self, task_index: int, worker_processes: int) -> int:
        """Worker-process slot for a matching cell (process model).

        Cells are placed by WRITE partition: every after-image fans out
        to all query partitions of its write partition, so co-locating
        a write partition's whole column in one worker turns that
        fan-out into a single cross-process round-trip.  Query
        broadcasts (rare next to writes) pay the spread instead.
        """
        if worker_processes < 1:
            raise ClusterConfigError("worker_processes must be >= 1")
        coords = self.coordinates(task_index)
        if worker_processes >= self.write_partitions:
            # Enough workers for one per write partition: spill the
            # extra capacity by also spreading query partitions.
            per_wp = worker_processes // self.write_partitions
            return (
                coords.write_partition * per_wp
                + coords.query_partition % per_wp
            )
        return coords.write_partition % worker_processes

    def coordinates(self, task_index: int) -> NodeCoordinates:
        """Inverse of :meth:`task_index`."""
        if not 0 <= task_index < self.node_count:
            raise ClusterConfigError(f"task index out of range: {task_index}")
        return NodeCoordinates(
            task_index // self.write_partitions,
            task_index % self.write_partitions,
        )

    def __repr__(self) -> str:
        return (
            f"PartitioningScheme({self.query_partitions} QP x "
            f"{self.write_partitions} WP)"
        )
