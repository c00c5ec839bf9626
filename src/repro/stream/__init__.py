"""Storm-like stream-processing substrate.

The paper's prototype distributes the query-matching workload with
Apache Storm (Section 5.4), "purely for partitioned dataflow".  This
package provides the subset of Storm's model the matching grid wires:

* :class:`Bolt` — a processing component with ``process`` and ``emit``;
* groupings — *fields* (hash-partitioned) and *custom* (a function from
  tuple to explicit task indices — InvaliDB's 2D grid routing);
* :class:`TopologyBuilder` / :class:`Topology` — declarative wiring;
* :class:`LocalRuntime` — gives each task a mailbox on the execution
  model; tuples are pushed in from outside with ``inject``, as the
  event layer pushes into the paper's ingestion nodes.
"""

from repro.stream.topology import (
    Bolt,
    CustomGrouping,
    FieldsGrouping,
    Grouping,
    Topology,
    TopologyBuilder,
)
from repro.stream.runtime import LocalRuntime, TaskFailure

__all__ = [
    "Bolt",
    "CustomGrouping",
    "FieldsGrouping",
    "Grouping",
    "LocalRuntime",
    "TaskFailure",
    "Topology",
    "TopologyBuilder",
]
