"""The processing-stage interface (Section 5.2's SEDA architecture).

"The process of generating change notifications for more advanced
queries is performed in loosely coupled processing stages that can be
scaled independently."  The filtering stage is always first and is the
only stage to ingest after-images; every subsequent stage consumes the
upstream stage's events.  :class:`ProcessingStage` is the contract a
stage must satisfy; :class:`~repro.core.sorting.SortingNode` implements
it, and :mod:`repro.core.aggregation` adds the aggregation stage the
paper names as future work (Section 8.1).  Hosting a stage on the grid
is not this module's business: :class:`~repro.core.remote.SortingCell`
wraps the sorting node in the batch protocol, locally or in a worker.
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

