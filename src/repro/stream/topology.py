"""Topology model: bolts, groupings, and the builder.

A topology is a DAG of named bolts.  Each bolt runs with a
*parallelism* (number of tasks).  Tuples enter from outside through
:meth:`~repro.stream.runtime.LocalRuntime.inject` — the event layer
pushes into the ingestion bolts, as Redis pub/sub does in the paper —
and edges carry a :class:`Grouping` that maps an emitted tuple to the
destination task indices.  The two groupings the grid wires:

* :class:`FieldsGrouping` — stable hash of selected tuple fields; the
  partitioning primitive ("compute their respective partitions by
  hashing static attributes" — Section 5.1);
* :class:`CustomGrouping` — arbitrary function, used for InvaliDB's
  two-dimensional grid routing (a subscription is "broadcasted to all
  partition members" by returning every task of its row).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.core.partitioning import stable_hash
from repro.errors import TopologyError

Tuple_ = Mapping[str, Any]
Emit = Callable[[Tuple_], None]


class Bolt(abc.ABC):
    """A processor: receives tuples, may emit downstream.

    One *instance* of the bolt class is created per task via
    :meth:`clone`, so per-task state never needs locking.
    """

    def prepare(self, task_index: int, parallelism: int, emit: Emit) -> None:
        """Called once per task before any tuple flows."""
        self.task_index = task_index
        self.parallelism = parallelism
        self.emit = emit

    def clone(self) -> "Bolt":
        """Create a fresh instance for one task (default: same class,
        constructed with no arguments of its own — override when the
        bolt carries configuration)."""
        return type(self)()

    def cleanup(self) -> None:
        """Called once per task on shutdown."""

    @abc.abstractmethod
    def process(self, tuple_: Tuple_) -> None:
        ...

    def process_batch(self, tuples: Sequence[Tuple_]) -> None:
        """Process a chunk of tuples in arrival order.

        The runtime dequeues in batches; a bolt that can amortize work
        across a chunk (shared lookups, one emission pass) overrides
        this.  Note the failure granularity changes with it: the
        runtime isolates failures per *call*, so an override that
        raises loses the whole batch, while this default loses only the
        offending tuple.
        """
        for tuple_ in tuples:
            self.process(tuple_)


class Grouping(abc.ABC):
    """Maps an emitted tuple to destination task indices."""

    @abc.abstractmethod
    def select(self, tuple_: Tuple_, target_parallelism: int) -> Sequence[int]:
        ...


class FieldsGrouping(Grouping):
    """Hash-partition on the named tuple fields."""

    def __init__(self, *fields: str):
        if not fields:
            raise TopologyError("fields grouping needs at least one field")
        self.fields = fields

    def select(self, tuple_: Tuple_, target_parallelism: int) -> Sequence[int]:
        key = tuple(tuple_.get(name) for name in self.fields)
        return (stable_hash(key) % target_parallelism,)


class CustomGrouping(Grouping):
    """Arbitrary routing — e.g. InvaliDB's 2D grid fan-out."""

    def __init__(self, selector: Callable[[Tuple_, int], Sequence[int]]):
        self._selector = selector

    def select(self, tuple_: Tuple_, target_parallelism: int) -> Sequence[int]:
        return self._selector(tuple_, target_parallelism)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    grouping: Grouping


@dataclass
class ComponentSpec:
    name: str
    prototype: Bolt
    parallelism: int

    def build_task(self) -> Bolt:
        return self.prototype.clone()


@dataclass
class Topology:
    """An immutable, validated topology definition."""

    components: Dict[str, ComponentSpec] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)

    def outgoing(self, source: str) -> List[Edge]:
        return [edge for edge in self.edges if edge.source == source]


class TopologyBuilder:
    """Fluent builder mirroring Storm's ``TopologyBuilder``."""

    def __init__(self) -> None:
        self._components: Dict[str, ComponentSpec] = {}
        self._edges: List[Edge] = []

    def add_bolt(
        self,
        name: str,
        bolt: Bolt,
        parallelism: int = 1,
    ) -> "TopologyBuilder":
        if name in self._components:
            raise TopologyError(f"duplicate component name: {name!r}")
        if parallelism < 1:
            raise TopologyError(f"parallelism must be >= 1 for {name!r}")
        self._components[name] = ComponentSpec(name, bolt, parallelism)
        return self

    def connect(self, source: str, target: str, grouping: Grouping) -> "TopologyBuilder":
        for endpoint in (source, target):
            if endpoint not in self._components:
                raise TopologyError(f"unknown component: {endpoint!r}")
        self._edges.append(Edge(source, target, grouping))
        return self

    def build(self) -> Topology:
        if not self._components:
            raise TopologyError("topology has no components")
        return Topology(dict(self._components), list(self._edges))
