"""Exporters: JSON snapshot, Prometheus text format, slow-event log.

All three are pure read-side views over one
:class:`~repro.obs.metrics.MetricsRegistry` — exporting never touches
a hot path and never blocks a writer for longer than a single
histogram's lock.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Metric names use dots internally; Prometheus wants [a-z0-9_:]."""
    return _NAME_RE.sub("_", name)


def _prom_escape(value: Any) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote and newline are the three characters that would break
    a scraper (query ids and mailbox names are user-influenced)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_prom_escape(v)}"' for k, v in labels
    )
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def to_json(telemetry, indent: Optional[int] = None) -> str:
    """The full registry snapshot (plus tracer stats) as JSON."""
    return json.dumps(telemetry.snapshot(), sort_keys=True, indent=indent,
                      default=str)


def to_prometheus(telemetry) -> str:
    """Prometheus text exposition format (0.0.4) for every metric.

    Histograms emit the standard ``_bucket``/``_sum``/``_count`` series
    with cumulative ``le`` bounds from the log-bucket geometry.
    """
    if not telemetry.enabled:
        return "# telemetry disabled\n"
    by_name: Dict[str, List[Any]] = {}
    for metric in telemetry.registry.metrics():
        by_name.setdefault(metric.name, []).append(metric)
    lines: List[str] = []
    for name in sorted(by_name):
        series = by_name[name]
        pname = _prom_name(name)
        first = series[0]
        # HELP precedes TYPE, once per family, with spec escaping
        # (backslash and newline; quotes are legal in HELP text).  The
        # fallback is a pure function of the internal name so the
        # exposition stays byte-stable run to run.
        help_text = telemetry.registry.help_text(name) or (
            f"Registry metric {name}."
        )
        help_text = help_text.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {pname} {help_text}")
        if isinstance(first, Counter):
            lines.append(f"# TYPE {pname} counter")
            for metric in series:
                lines.append(f"{pname}{_prom_labels(metric.labels)} "
                             f"{_prom_value(metric.value)}")
        elif isinstance(first, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            for metric in series:
                lines.append(f"{pname}{_prom_labels(metric.labels)} "
                             f"{_prom_value(metric.value)}")
        elif isinstance(first, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            for metric in series:
                base_labels = list(metric.labels)
                for bound, cumulative in metric.cumulative_buckets():
                    labels = _prom_labels(
                        tuple(base_labels) + (("le", f"{bound:.9g}"),)
                    )
                    lines.append(f"{pname}_bucket{labels} {cumulative}")
                inf_labels = _prom_labels(
                    tuple(base_labels) + (("le", "+Inf"),)
                )
                lines.append(f"{pname}_bucket{inf_labels} {metric.count}")
                plain = _prom_labels(metric.labels)
                lines.append(f"{pname}_sum{plain} "
                             f"{_prom_value(metric.sum)}")
                lines.append(f"{pname}_count{plain} {metric.count}")
    return "\n".join(lines) + "\n"


def slow_events(telemetry) -> List[Dict[str, Any]]:
    """The structured slow-event records (most recent last)."""
    if not telemetry.enabled:
        return []
    return list(telemetry.tracer.slow_events)


def format_slow_events(telemetry) -> str:
    """Human-readable rendering of the slow-event log."""
    events = slow_events(telemetry)
    if not events:
        return "no slow traces recorded\n"
    lines = []
    for event in events:
        spans = " ".join(
            f"{span['name']}={span['seconds'] * 1000:.3f}ms"
            for span in event["spans"]
        )
        lines.append(
            f"{event['trace_id']} key={event['key']} "
            f"total={event['total_seconds'] * 1000:.3f}ms  {spans}"
        )
    return "\n".join(lines) + "\n"
