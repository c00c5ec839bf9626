"""The cluster's grid: one execution-model mailbox per cell (Figure 2).

The paper runs InvaliDB on Storm purely for partitioned dataflow
(Section 5.4), and the grid is static: every hop is a hash.  The event
layer pushes, so its delivery callback routes (the *intake*).  A grid
task is a name, a mailbox from the cluster's
:class:`~repro.runtime.execution.ExecutionModel`, a cell and crash
state; each role (``matching``, ``sorting``) routes its output with
:mod:`repro.core.partitioning`.  DESIGN.md §6 has the flush order and
the failure and crash semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.partitioning import sorting_task_of
from repro.errors import WorkerDiedError
from repro.query.engine import core_id_of
from repro.types import AfterImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import InvaliDBCluster

#: Emission buffer of one batch: flush rank -> tuples for that task.
_Out = Dict[int, List[Any]]


@dataclass
class _Task:
    """One grid task: its mailbox, its cell and crash state."""

    role: str
    index: int
    name: str
    mailbox: Any = None
    cell: Any = None
    crashed: bool = False
    consecutive_errors: int = 0
    failed: int = 0
    dropped_while_crashed: int = 0
    restarts: int = 0


class Grid:
    """The intake plus the matching and sorting tasks of one cluster."""

    def __init__(self, cluster: "InvaliDBCluster"):
        self.cluster = cluster
        self._execution = cluster._execution
        config, scheme = cluster.config, cluster.scheme
        #: ``(role, task_index, reason)`` once per crash: the supervisor.
        self.crash_listener: Optional[Callable[[str, int, str], None]] = None
        #: Listener calls that raised (the supervisor never heard of it).
        self.crash_listener_errors = 0
        # Task order is mailbox creation order, on which the inline
        # scheduler's seeded service order and the lease order depend.
        self._tasks: Dict[str, List[_Task]] = {
            role: [_Task(role, i, f"{role}[{i}]") for i in range(count)]
            for role, count in (
                ("matching", scheme.node_count),
                ("sorting", config.sorting_nodes),
            )
        }
        # Flush ranks: sorting tasks 0..S-1, then matching cells S...
        self._downstream = self._tasks["sorting"] + self._tasks["matching"]
        self._sorting_nodes = sorting_nodes = config.sorting_nodes
        self._rows = [[sorting_nodes + i for i in scheme.row_tasks(qp)]
                      for qp in range(scheme.query_partitions)]
        self._columns = [[sorting_nodes + i for i in scheme.column_tasks(wp)]
                         for wp in range(scheme.write_partitions)]
        #: Intake tuples whose routing raised.
        self.intake_failed = 0
        #: Routed since the last :meth:`flush_intake`.  Only the broker's
        #: one dispatch mailbox fills it, so it needs no lock.
        self._routed: _Out = {}
        self._started = self._stopped = False

    def start(self) -> None:
        for tasks in self._tasks.values():
            for task in tasks:
                task.cell = self.cluster._host_cell(task.role, task.index)
                task.mailbox = self._execution.mailbox(
                    task.name, self._handler(task)
                )
        self._started = True

    def stop(self, timeout: float = 2.0) -> None:
        """Process what is queued, then wait for the task workers."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        boxes = [task.mailbox for tasks in self._tasks.values() for task in tasks]
        for box in boxes:
            box.close(drain=True)
        deadline = time.monotonic() + timeout
        for join in filter(None, (getattr(box, "join", None) for box in boxes)):
            join(timeout=max(0.0, deadline - time.monotonic()))

    def _flush(self, out: _Out) -> None:
        """Put *out* downstream: sorting tasks first, then matching cells."""
        for rank in sorted(out):
            self._downstream[rank].mailbox.put_many(out[rank])

    def _handler(self, task: _Task):
        """*task*'s mailbox handler: crash faults, the cell, the flush."""

        def handle(batch: List[Any]) -> None:
            if task.crashed:
                task.dropped_while_crashed += len(batch)
                return
            injector = self._execution.fault_injector
            if injector is not None:
                # Crash faults fire per tuple: the prefix before the
                # crash point is still processed (the node died
                # mid-stream), the rest is lost with the task.
                for position in range(len(batch)):
                    if injector.crashes_task(task.name):
                        if position:
                            self._run_cell(task, batch[:position])
                        task.dropped_while_crashed += len(batch) - position
                        self.crash(task.role, task.index, "injected crash")
                        return
            self._run_cell(task, batch)

        return handle

    def intake_query(self, channel: str, tuple_: Dict[str, Any]) -> None:
        """Query-channel listener: route one request (put on flush)."""
        self._intake(self._route_query, tuple_, self._routed)

    def intake_write(self, channel: str, after: AfterImage) -> None:
        """Write-channel listener: route one after-image (put on flush)."""
        self._intake(self._route_write, after, self._routed)

    def flush_intake(self) -> None:
        """Put what the intake routed, one ``put_many`` per task; the
        broker calls it once per dispatch batch."""
        routed, self._routed = self._routed, {}
        self._flush(routed)

    def reap(self, cancel: Dict[str, Any]) -> None:
        """Route and put a TTL sweep's cancel now (off the dispatch thread)."""
        out: _Out = {}
        self._intake(self._route_query, cancel, out)
        self._flush(out)

    def _intake(self, route: Callable[[Any, _Out], None],
                tuple_: Any, out: _Out) -> None:
        """Route one tuple; a failure is counted and recorded, never
        raised to the broker, and costs this tuple only."""
        try:
            route(tuple_, out)
        except Exception as exc:  # noqa: BLE001 - costs this tuple only
            self.intake_failed += 1
            self.cluster.flight.record("task-failure", component="intake",
                                       error=repr(exc))

    def _route_query(self, tuple_: Dict[str, Any], out: _Out) -> None:
        # ``query_hash`` is the partition hash: every page of a sort
        # core meets one matching row and its core's sorting task.
        query_hash = tuple_["query_hash"]
        qp = self.cluster.scheme.query_partition_of(query_hash)
        if not self.cluster._query_request(tuple_):
            return
        forwarded = dict(tuple_, query_partition=qp)
        sorting = sorting_task_of(core_id_of(query_hash), self._sorting_nodes)
        for rank in [sorting] + self._rows[qp]:
            out.setdefault(rank, []).append(forwarded)

    def _route_write(self, after: AfterImage, out: _Out) -> None:
        # Every cell of the column reads the published image itself.
        wp = self.cluster.scheme.write_partition_of(after.key)
        for rank in self._columns[wp]:
            out.setdefault(rank, []).append(after)

    def _run_cell(self, task: _Task, batch: List[Any]) -> None:
        """A cell takes the whole batch in one call: a failure loses it.
        What it emits is flushed once, after it returned."""
        cluster = self.cluster
        out: _Out = {}
        try:
            messages, changes, coalesced = task.cell.handle_batch(batch)
            if coalesced:
                cluster.notifications_coalesced += coalesced
            for message in messages:
                rank = sorting_task_of(message.get("query_id"), self._sorting_nodes)
                out.setdefault(rank, []).append(message)
            if changes:
                cluster._deliver_changes(changes)
            task.consecutive_errors = 0
        except WorkerDiedError as exc:
            # The pool's death listener fires too; a crash is idempotent.
            self.crash(task.role, task.index, str(exc))
        except Exception as exc:  # noqa: BLE001 - one batch
            self._fail(task, exc)
        self._flush(out)

    def _fail(self, task: _Task, exc: Exception) -> None:
        """Count and record one failure, never the tuple it hit."""
        task.failed += 1
        task.consecutive_errors += 1
        self.cluster.flight.record("task-failure", component=task.role,
                                   task=task.index, error=repr(exc))
        threshold = self.cluster.config.crash_error_threshold
        if threshold and task.consecutive_errors >= threshold:
            # Poisoned: supervised recovery replaces retry-forever.
            self.crash(task.role, task.index, f"poisoned: "
                       f"{task.consecutive_errors} consecutive handler errors")

    def crash(self, role: str, index: int, reason: str = "killed") -> None:
        """Kill one task (worker death, poisoning, crash faults, tests)."""
        task = self._tasks[role][index]
        if task.crashed:
            return
        task.crashed = True
        listener = self.crash_listener
        if listener is not None:
            try:
                listener(task.role, task.index, reason)
            except Exception:  # noqa: BLE001 - a broken supervisor must
                # not take the task's worker down with it.
                self.crash_listener_errors += 1

    def restart(self, role: str, index: int) -> None:
        """Serve a crashed task again: same mailbox (and backlog), a cell
        re-hosted empty — the supervisor has its queries renewed."""
        task = self._tasks[role][index]
        task.cell = self.cluster._host_cell(role, index)
        task.crashed = False
        task.consecutive_errors = 0
        task.restarts += 1

    def stats(self) -> Dict[str, Any]:
        """Per-role task counters (queues: ``snapshot()["mailboxes"]``)."""
        counters = ("failed", "crashed", "restarts", "dropped_while_crashed")
        return {
            "components": {role: {"tasks": len(tasks), **{
                name: sum(getattr(task, name) for task in tasks) for name in counters
            }} for role, tasks in self._tasks.items()},
            "intake_failed": self.intake_failed,
            "crash_listener_errors": self.crash_listener_errors,
        }
