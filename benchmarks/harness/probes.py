"""Isolated replay probes for the four hot leaves.

The traced pass keeps a bounded sample of the inputs each leaf saw on
the workload.  With every wrapper uninstalled those inputs are replayed
in tight loops, so a sub-microsecond call is timed without the ~1 us a
span costs; the two figures are reported side by side.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import ProbeTotals, Tracer

#: Replay rounds per leaf; the fastest round is reported.
ROUNDS = 5
#: Envelopes per batch for the wire-codec probe (the process hop's
#: typical batch under saturation).
WIRE_BATCH = 16


def _best_us_per_call(calls: List[Callable[[], Any]]) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter_ns()
        for call in calls:
            call()
        best = min(best, time.perf_counter_ns() - started)
    return best / 1000.0 / len(calls)


def _fresh_memo(memo: Any) -> Any:
    return None if memo is None else type(memo)()


def replay(tracer: Tracer, traced: Dict[str, ProbeTotals]) -> Dict[str, Dict[str, Any]]:
    """Replay figures per leaf: ``replay_us`` per call without wrappers,
    ``traced_us`` (mean self time per call under the wrappers), ``calls``
    replayed.  A leaf with no captured input or a vanished entry point
    reports ``replay_us: null`` and why."""
    results: Dict[str, Dict[str, Any]] = {}

    def report(leaf: str, probe: str, build: Callable[[], Optional[Tuple[List[Any], int]]]) -> None:
        totals = traced.get(probe)
        row: Dict[str, Any] = {
            "traced_us": (totals.self_ns / 1000.0 / totals.count)
            if totals is not None and totals.count else None,
        }
        try:
            built = build()
            if built is None:
                row.update(replay_us=None, probe_error="no input captured")
            else:
                calls, per_call = built
                row.update(replay_us=_best_us_per_call(calls) / per_call,
                           calls=len(calls) * per_call)
        except (ImportError, AttributeError) as exc:
            row.update(replay_us=None, probe_error=f"{type(exc).__name__}: {exc}")
        results[leaf] = row

    def candidates() -> Optional[Tuple[List[Any], int]]:
        inputs = tracer.captured["QueryIndex.candidates"]
        if not inputs:
            return None
        return [lambda a=args: a[0].candidates(*a[1:]) for args in inputs], 1

    def matches() -> Optional[Tuple[List[Any], int]]:
        inputs = tracer.captured["Query.matches"]
        if not inputs:
            return None
        return [
            lambda a=args: a[0].matches(a[1], _fresh_memo(a[2] if len(a) > 2 else None))
            for args in inputs
        ], 1

    def codec(direction: str) -> Callable[[], Optional[Tuple[List[Any], int]]]:
        def build() -> Optional[Tuple[List[Any], int]]:
            inputs = tracer.captured[f"Codec.{direction}"]
            if not inputs:
                return None
            return [lambda a=args: getattr(a[0], direction)(a[1]) for args in inputs], 1
        return build

    def wire(direction: str) -> Callable[[], Optional[Tuple[List[Any], int]]]:
        def build() -> Optional[Tuple[List[Any], int]]:
            from repro.event.wire import BinaryCodec

            envelopes = [
                args[1] for args in tracer.captured["Codec.encode"]
                if isinstance(args[1], dict) and args[1].get("kind") == "write"
            ]
            if len(envelopes) < WIRE_BATCH:
                return None
            codec_ = BinaryCodec()
            batches = [
                envelopes[start:start + WIRE_BATCH]
                for start in range(0, len(envelopes) - WIRE_BATCH + 1, WIRE_BATCH)
            ]
            if direction == "encode":
                return [lambda b=batch: codec_.encode_batch(b) for batch in batches], WIRE_BATCH
            frames = [codec_.encode_batch(batch) for batch in batches]
            return [lambda f=frame: codec_.decode_batch(f) for frame in frames], WIRE_BATCH
        return build

    report("query.index.candidates", "QueryIndex.candidates", candidates)
    report("query.engine.matches", "Query.matches", matches)
    report("event.codec.encode", "Codec.encode", codec("encode"))
    report("event.codec.decode", "Codec.decode", codec("decode"))
    report("event.wire.encode_batch", "Wire.encode", wire("encode"))
    report("event.wire.decode_batch", "Wire.decode", wire("decode"))
    return results
