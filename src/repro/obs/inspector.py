"""The cluster inspector: a per-node grid table for humans.

Renders the unified :meth:`InvaliDBCluster.snapshot` view — matching
grid occupancy, per-mailbox queue health, write-path latency
percentiles, fault/recovery counters — as fixed-width text.  Exposed
as ``python -m repro inspect``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.2f}"
    return str(value)


def _table(headers: Sequence[str], rows: List[Sequence[Any]]) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(p.rjust(widths[i]) for i, p in enumerate(parts))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def _pct(part: float, whole: float) -> Optional[float]:
    return 100.0 * part / whole if whole else None


def _ms(seconds: Any) -> Optional[float]:
    if seconds is None or (isinstance(seconds, float)
                           and math.isnan(seconds)):
        return None
    return seconds * 1000.0


def _labeled(telemetry_snap: Dict[str, Any], name: str,
             label: str) -> Dict[str, Dict[str, Any]]:
    """Index a labeled metric family by one label's value."""
    out: Dict[str, Dict[str, Any]] = {}
    for entry in telemetry_snap.get(name, []) or []:
        labels = entry.get("labels", {})
        if label in labels:
            out[labels[label]] = entry
    return out


def render_slo(slo: Dict[str, Any]) -> str:
    """The SLO accounting view: target, aggregate burn rate, worst
    queries first (part of the full ``inspect`` report)."""
    target_ms = _ms(slo.get("latency_target_seconds"))
    headline = (
        f"SLO: target {_fmt(target_ms)}ms at objective "
        f"{_fmt(slo.get('objective'))} — "
        f"{_fmt(slo.get('notifications'))} notifications, "
        f"{_fmt(slo.get('breaches'))} breaches, "
        f"burn rate {_fmt(slo.get('burn_rate'))}"
    )
    headline += (
        f"\nnotification lag: p50 {_fmt(_ms(slo.get('lag_p50_seconds')))}ms"
        f"  p99 {_fmt(_ms(slo.get('lag_p99_seconds')))}ms"
        f"  max {_fmt(_ms(slo.get('lag_max_seconds')))}ms"
    )
    sections = [headline]
    queries = slo.get("queries") or []
    if queries:
        rows = [
            [row.get("query_id"), row.get("notifications"),
             row.get("breaches"), row.get("burn_rate"),
             _ms(row.get("p99_seconds"))]
            for row in queries
        ]
        sections.append("per-query burn rates (worst first)\n" + _table(
            ["query", "notifs", "breaches", "burn", "p99 ms"], rows,
        ))
    return "\n\n".join(sections) + "\n"


def render_postmortem(dump: Dict[str, Any]) -> str:
    """Human-readable rendering of a flight-recorder dump artifact
    (``inspect --postmortem <file>``)."""
    sections: List[str] = []
    sections.append(
        f"flight recorder postmortem — node {dump.get('node', '?')} "
        f"pid {dump.get('pid', '?')}\n"
        f"reason: {dump.get('reason', '?')}   "
        f"dumped at: {_fmt(dump.get('dumped_at'))}   "
        f"format v{dump.get('version', '?')}"
    )
    events = dump.get("events") or []
    if events:
        first_t = events[0].get("t", 0.0)
        rows = []
        for event in events:
            extras = ", ".join(
                f"{key}={event[key]}" for key in sorted(event)
                if key not in ("t", "kind")
            )
            rows.append([
                f"+{_fmt(event.get('t', 0.0) - first_t)}s",
                event.get("kind", "?"), extras,
            ])
        table = _table(["when", "event", "detail"], rows)
        # Detail strings are free-form: left-align that column.
        sections.append(f"event ring ({len(events)} events)\n" + table)
    else:
        sections.append("event ring: empty")
    context = dump.get("context") or {}
    supervisor = context.get("supervisor")
    if isinstance(supervisor, dict):
        rows = [[key, supervisor[key]] for key in sorted(supervisor)]
        sections.append("supervisor\n" + _table(["counter", "value"],
                                                rows))
    faults = context.get("faults")
    if isinstance(faults, dict) and any(
        isinstance(v, (int, float)) and v for v in faults.values()
    ):
        rows = [[key, value] for key, value in sorted(faults.items())
                if isinstance(value, (int, float)) and value]
        sections.append("fault counters\n" + _table(["counter", "value"],
                                                    rows))
    slo = context.get("slo")
    if isinstance(slo, dict):
        sections.append(render_slo(slo).rstrip("\n"))
    traces = context.get("recent_traces")
    if isinstance(traces, list) and traces:
        rows = []
        for trace in traces[-16:]:
            # Raw tracer transcripts: flat stride-3 [name, start, end].
            spans = trace.get("spans") or []
            names = spans[0::3]
            ends = [end for end in spans[2::3] if end is not None]
            total = (max(ends) - trace.get("start", 0.0)) if ends else None
            rows.append([
                trace.get("id", "?"),
                trace.get("key"),
                _ms(total),
                ">".join(str(name) for name in names),
            ])
        sections.append(
            f"recent traces ({len(traces)} in dump, newest last)\n"
            + _table(["trace", "key", "total ms", "spans"],
                     rows)
        )
    slow = context.get("slow_events")
    if isinstance(slow, list) and slow:
        sections.append(f"slow events in dump: {len(slow)}")
    return "\n\n".join(sections) + "\n"


def render(snapshot: Dict[str, Any]) -> str:
    """The full inspector report for one cluster snapshot."""
    sections: List[str] = []
    config = snapshot.get("config", {})
    qp = config.get("query_partitions", "?")
    wp = config.get("write_partitions", "?")
    telemetry_snap = snapshot.get("telemetry") or {}
    sections.append(
        f"InvaliDB cluster inspector — {qp}x{wp} matching grid, "
        f"telemetry {'on' if telemetry_snap else 'off'}"
    )

    matching = snapshot.get("matching", [])
    if matching:
        rows = []
        for node in matching:
            considered = node.get("candidates_considered", 0)
            pruned = node.get("candidates_pruned", 0)
            dag = node.get("dag") or {}
            rows.append([
                node.get("node", "?"),
                node.get("query_partition"),
                node.get("write_partition"),
                node.get("queries"),
                node.get("writes_processed"),
                node.get("matched_operations"),
                _pct(pruned, considered + pruned),
                _pct(dag["share_ratio"], 1.0) if dag else None,
            ])
        sections.append("matching grid\n" + _table(
            ["node", "qp", "wp", "queries", "writes", "matched",
             "pruned%", "dag share%"],
            rows,
        ))
        totals = snapshot.get("matching_totals") or {}
        if totals.get("dag_queries_served"):
            sections[-1] += (
                f"\nshared DAG: {totals['dag_queries_served']:,} "
                f"decisions, {totals.get('dag_node_hits', 0):,} cached "
                f"node lookups vs {totals['dag_nodes_evaluated']:,} "
                f"evaluated (share ratio {totals['dag_share_ratio']:.3f})"
            )

    access = (snapshot.get("matching_totals") or {}).get("access_paths")
    if access and access.get("queries"):
        hits = access.get("hits") or {}
        rows = [
            ["equality", access.get("eq_entries"), hits.get("equality")],
            ["half-range", access.get("range_entries"), hits.get("range")],
            ["interval", access.get("interval_entries"),
             hits.get("interval")],
            ["spatial", access.get("spatial_entries"),
             hits.get("spatial")],
            ["text", access.get("text_entries"), hits.get("text")],
            ["residual", access.get("residual_queries"),
             hits.get("residual")],
        ]
        section = "access paths\n" + _table(
            ["path", "entries", "candidate hits"], rows,
        )
        detail = (
            f"\n{access.get('queries', 0):,} indexed query entries, "
            f"{access.get('spatial_cells', 0):,} spatial grid cells, "
            f"{access.get('text_tokens', 0):,} text tokens"
        )
        sections.append(section + detail)

    sorting = snapshot.get("sorting", [])
    if sorting:
        # One event per (write, sort core); a core serves its pages.
        rows = [
            [node.get("node", "?"), node.get("query_partition"),
             node.get("queries"), node.get("cores"),
             node.get("events_processed"), node.get("renewals_requested"),
             node.get("window_comparisons")]
            for node in sorting
        ]
        sections.append("sorting stage\n" + _table(
            ["node", "qp", "queries", "cores", "events", "renewals",
             "probe depth"],
            rows,
        ))

    mailboxes = snapshot.get("mailboxes", [])
    if mailboxes:
        dwell = _labeled(telemetry_snap, "mailbox.dwell_seconds",
                         "mailbox")
        batch = _labeled(telemetry_snap, "mailbox.batch_size", "mailbox")
        rows = []
        for box in mailboxes:
            name = box.get("name", "?")
            rows.append([
                name,
                box.get("depth"),
                box.get("enqueued"),
                box.get("processed"),
                box.get("dropped"),
                batch.get(name, {}).get("average"),
                _ms(dwell.get(name, {}).get("p95")),
            ])
        sections.append("mailboxes\n" + _table(
            ["mailbox", "depth", "in", "out", "dropped", "batch~",
             "dwell p95 ms"],
            rows,
        ))

    e2e = telemetry_snap.get("trace.e2e_seconds")
    if isinstance(e2e, dict) and e2e.get("count"):
        rows = [[
            "end-to-end", e2e["count"], _ms(e2e.get("p50")),
            _ms(e2e.get("p95")), _ms(e2e.get("p99")), _ms(e2e.get("max")),
        ]]
        for stage, entry in sorted(
            _labeled(telemetry_snap, "trace.span_seconds",
                     "stage").items()
        ):
            if entry.get("count"):
                rows.append([
                    stage, entry["count"], _ms(entry.get("p50")),
                    _ms(entry.get("p95")), _ms(entry.get("p99")),
                    _ms(entry.get("max")),
                ])
        sections.append("write-path latency\n" + _table(
            ["stage", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
        ))

    counters = []
    for key in ("notifications_sent", "notifications_failed",
                "notifications_coalesced", "queries_renewed"):
        value = snapshot.get(key)
        if isinstance(value, (int, float)) and value:
            counters.append([f"cluster.{key}", value])
    for source in ("faults", "supervisor", "client"):
        for key, value in sorted((snapshot.get(source) or {}).items()):
            if isinstance(value, (int, float)) and value:
                counters.append([f"{source}.{key}", value])
    if counters:
        sections.append("fault / recovery counters\n"
                        + _table(["counter", "value"], counters))

    slo = snapshot.get("slo")
    if slo and slo.get("notifications"):
        sections.append(render_slo(slo).rstrip("\n"))

    flight = snapshot.get("flight")
    if flight:
        line = (
            f"flight recorder: {_fmt(flight.get('events_buffered'))}/"
            f"{_fmt(flight.get('capacity'))} events buffered "
            f"({_fmt(flight.get('events_recorded'))} recorded), "
            f"{_fmt(flight.get('dumps_written'))} dumps written"
        )
        directory = flight.get("directory")
        line += f" to {directory}" if directory else " (dumps disabled)"
        sections.append(line)

    return "\n\n".join(sections) + "\n"
