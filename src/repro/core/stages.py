"""The processing-stage interface (Section 5.2's SEDA architecture).

"The process of generating change notifications for more advanced
queries is performed in loosely coupled processing stages that can be
scaled independently."  The filtering stage is always first and is the
only stage to ingest after-images; every subsequent stage consumes the
upstream stage's events.  :class:`ProcessingStage` is the contract a
stage must satisfy; :class:`~repro.core.sorting.SortingNode` implements
it, and :mod:`repro.core.aggregation` adds the aggregation stage the
paper names as future work (Section 8.1).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List

from repro.core.filtering import MatchEvent
from repro.core.notifications import QueryChange
from repro.query.engine import Query
from repro.types import Document


class ProcessingStage(abc.ABC):
    """One stage of the real-time query pipeline beyond filtering."""

    @abc.abstractmethod
    def register_query(
        self,
        query: Query,
        bootstrap: List[Document],
        versions: Dict[Any, int],
        **options: Any,
    ) -> List[QueryChange]:
        """Activate (or renew) a query with its bootstrap result.

        Returns the delta notifications a re-registration produces
        (empty on first registration).
        """

    @abc.abstractmethod
    def handle_event(self, event: MatchEvent) -> List[QueryChange]:
        """Consume one upstream event, emit downstream result changes."""

    @abc.abstractmethod
    def deactivate_query(self, query_id: str) -> bool:
        """Drop a query; True when it was active."""


def pipe(stage: ProcessingStage, events: List[MatchEvent]) -> List[QueryChange]:
    """Feed a batch of upstream events through *stage* in order."""
    changes: List[QueryChange] = []
    for event in events:
        changes.extend(stage.handle_event(event))
    return changes


def build_stage(
    kind: str,
    task_index: int,
    engine: Any = None,
    telemetry: Any = None,
    **options: Any,
):
    """Construct a post-filtering processing stage by name.

    The single construction seam the process execution model's cell
    specs go through (:mod:`repro.core.remote`): any stage registered
    here can be hosted in a worker process without the worker knowing
    its concrete class.  ``sorting`` is the only stage the paper's
    production system runs; the aggregation stage (Section 8.1) can be
    added to the table when it grows a node wrapper.
    """
    if kind == "sorting":
        from repro.core.sorting import SortingNode

        return SortingNode(
            task_index,
            engine=engine,
            telemetry=telemetry,
            shared_windows=options.get("shared_windows", False),
            adaptive_slack=options.get("adaptive_slack", False),
        )
    raise ValueError(f"unknown processing stage: {kind!r}")
