"""Every metric the harness declares, by name, unit and direction.

``BENCHMARK.json`` at the repository root repeats the end-to-end and
per-layer lists; the self-test keeps the two in step.
"""

from __future__ import annotations

from typing import List, Tuple

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before it is a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", LOWER, 0.25),
    ("writes_per_s", "writes/s", HIGHER, 0.25),
    ("notify_p50_ms", "ms", LOWER, 0.25),
    ("peak_rss_mb", "MiB", LOWER, 0.10),
]

#: (name, unit, better) — produced by the traced run.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("store.self_us_per_write", "us", LOWER),
    ("core.client.forward_us_per_write", "us", LOWER),
    ("core.client.deliver_us_per_notification", "us", LOWER),
    ("core.client.subscribe_p50_us", "us", LOWER),
    ("event.codec.encode_us_per_write", "us", LOWER),
    ("event.codec.decode_us_per_write", "us", LOWER),
    ("event.codec.calls_per_write", "count", LOWER),
    ("event.codec.bytes_per_write", "bytes", LOWER),
    ("event.broker.self_us_per_write", "us", LOWER),
    ("event.broker.messages_per_write", "count", LOWER),
    ("runtime.execution.items_per_write", "count", LOWER),
    ("runtime.execution.mean_batch", "count", HIGHER),
    ("stream.runtime.self_us_per_write", "us", LOWER),
    ("stream.runtime.tuples_per_write", "count", LOWER),
    ("core.cluster.ingest_self_us_per_write", "us", LOWER),
    ("core.cluster.notifications_per_write", "count", LOWER),
    ("core.cluster.coalesced_share", "ratio", HIGHER),
    ("core.filtering.self_us_per_write", "us", LOWER),
    ("core.filtering.calls_per_write", "count", LOWER),
    ("core.filtering.register_us", "us", LOWER),
    ("query.index.probe_us_per_write", "us", LOWER),
    ("query.index.candidates_per_write", "count", LOWER),
    ("query.index.pruned_share", "ratio", HIGHER),
    ("query.index.add_us", "us", LOWER),
    ("query.index.remove_us", "us", LOWER),
    ("query.engine.match_us_per_write", "us", LOWER),
    ("query.engine.evals_per_write", "count", LOWER),
    ("query.shared.nodes_evaluated_per_write", "count", LOWER),
    ("query.shared.memo_hit_rate", "ratio", HIGHER),
    ("core.sorting.self_us_per_event", "us", LOWER),
    ("core.sorting.events_per_write", "count", LOWER),
    ("core.sorting.changes_per_event", "count", LOWER),
    ("core.sorting.renewals_per_kwrite", "count", LOWER),
    ("core.sorting.register_ms", "ms", LOWER),
    ("event.wire.encode_us_per_write", "us", LOWER),
    ("event.wire.decode_us_per_write", "us", LOWER),
    ("event.wire.bytes_per_write", "bytes", LOWER),
    ("event.wire.lazy_hit_rate", "ratio", HIGHER),
    ("runtime.process.roundtrip_us_per_batch", "us", LOWER),
    ("runtime.process.mean_batch", "count", HIGHER),
    ("runtime.process.worker_cpu_share", "ratio", HIGHER),
    ("probe.query.index.candidates_us", "us", LOWER),
    ("probe.query.engine.matches_us", "us", LOWER),
    ("probe.event.codec.encode_us", "us", LOWER),
    ("probe.event.codec.decode_us", "us", LOWER),
    ("probe.event.wire.encode_batch_us", "us", LOWER),
    ("probe.event.wire.decode_batch_us", "us", LOWER),
    ("harness.budget_coverage", "ratio", HIGHER),
    ("harness.unattributed_us_per_write", "us", LOWER),
    ("harness.trace_overhead_ratio", "ratio", LOWER),
    ("harness.inline_us_per_write", "us", LOWER),
    ("harness.cpu_us_per_write", "us", LOWER),
    ("harness.generator_late_share", "ratio", LOWER),
    ("harness.generator_late_p95_ms", "ms", LOWER),
    ("harness.backlog_end", "count", LOWER),
    ("harness.notify_p95_ms", "ms", LOWER),
    ("harness.notify_p99_ms", "ms", LOWER),
    ("harness.segment_iqr_share", "ratio", LOWER),
]

#: Value the driver's result line carries for a per-layer metric whose
#: entry point no longer exists (the line must hold numbers; the suite
#: JSON carries ``null`` plus ``probe_error``).
MISSING = -1.0
