"""Crash flight recorder: a bounded ring of recent operational events.

Production incidents in a push-based query cluster are reconstructed
from what happened *just before* the failure — which task failed or
crashed, what the supervisor was doing — but by the time someone
looks, the counters have moved on and the dead worker's state is gone.
The :class:`FlightRecorder` keeps a bounded per-node ring buffer of
operational events (task failures and crashes, supervised restarts,
worker deaths), recorded unconditionally because appends to a
``deque`` are too cheap to gate.

**Dumps** are the expensive part and are gated on a configured
directory (``InvaliDBConfig.flight_recorder_dir``, defaulting to the
``REPRO_FLIGHT_DIR`` environment variable so CI jobs can collect dumps
as artifacts without touching test code).  A dump is one JSON artifact
with the ring's events plus late-bound context sections — supervisor
counters, recent trace transcripts, fault stats — captured at dump
time through registered providers.  ``python -m repro inspect
--postmortem <dump>`` renders it (see
:func:`repro.obs.inspector.render_postmortem`).

Threading: dump triggers fire from death-listener threads — the pool
monitor, or a worker channel's own reader thread, on which no reply
can arrive — so providers must never round-trip to a worker (no
``cluster.snapshot()``); everything captured here is parent-local
state.
"""

from __future__ import annotations

import collections
import io
import itertools
import json
import os
import re
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Dump format version, bumped on breaking shape changes.
DUMP_VERSION = 1

_REASON_SAFE = re.compile(r"[^a-zA-Z0-9_.-]+")


class FlightRecorder:
    """Ring buffer of recent events + JSON dump-on-incident."""

    def __init__(
        self,
        node: str = "cluster",
        capacity: int = 256,
        directory: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.node = node
        self.capacity = capacity
        self.directory = directory
        self.clock = clock
        self._lock = threading.Lock()
        self._ring: "collections.deque[Dict[str, Any]]" = collections.deque(
            maxlen=capacity
        )
        self._providers: List[tuple] = []
        self._sequence = itertools.count(1)
        self.events_recorded = 0
        self.dumps_written = 0
        self.dump_errors = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event to the ring (cheap, never raises)."""
        event = {"t": self.clock(), "kind": kind}
        event.update(fields)
        with self._lock:
            self._ring.append(event)
            self.events_recorded += 1

    def add_context(
        self, name: str, provider: Callable[[], Any]
    ) -> None:
        """Register a context section captured at dump time.  Providers
        must be cheap and parent-local (no worker round-trips)."""
        self._providers.append((name, provider))

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def build_dump(self, reason: str) -> Dict[str, Any]:
        """The dump document (also used by tests without a directory)."""
        context: Dict[str, Any] = {}
        for name, provider in self._providers:
            try:
                context[name] = provider()
            except Exception as exc:  # noqa: BLE001 - a broken provider
                # must not lose the dump.
                context[name] = {"error": str(exc)}
        return {
            "version": DUMP_VERSION,
            "reason": reason,
            "node": self.node,
            "pid": os.getpid(),
            "dumped_at": self.clock(),
            "capacity": self.capacity,
            "events": self.events(),
            "context": context,
        }

    def dump(self, reason: str) -> Optional[str]:
        """Write the ring + context to a JSON artifact; returns the
        path, or ``None`` when no directory is configured.  Never
        raises: losing a dump must not compound the incident."""
        directory = self.directory
        if not directory:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            safe_reason = _REASON_SAFE.sub("-", reason).strip("-") or "event"
            filename = (
                f"flight-{self.node}-{os.getpid()}-"
                f"{next(self._sequence)}-{safe_reason}.json"
            )
            path = os.path.join(directory, filename)
            document = self.build_dump(reason)
            with io.open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True,
                          default=str)
                handle.write("\n")
        except Exception:  # noqa: BLE001
            with self._lock:
                self.dump_errors += 1
            return None
        with self._lock:
            self.dumps_written += 1
        return path

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "node": self.node,
                "capacity": self.capacity,
                "directory": self.directory,
                "events_recorded": self.events_recorded,
                "events_buffered": len(self._ring),
                "dumps_written": self.dumps_written,
                "dump_errors": self.dump_errors,
            }


def load_dump(path: str) -> Dict[str, Any]:
    """Read a dump artifact back (the ``--postmortem`` entry point)."""
    with io.open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
