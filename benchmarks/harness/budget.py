"""From spans and counters to the per-layer metrics, the layer budget of
one write and the layer-dominance rules."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

import tracing
from tracing import ProbeTotals, Tracer

#: The counters read from ``cluster.snapshot()`` around the traced
#: segments (wrappers cannot see inside worker processes; the snapshot
#: merges the workers' rows).
COUNTERS = (
    "notifications_sent", "notifications_coalesced", "candidates_considered",
    "candidates_pruned", "memo_hits", "memo_misses", "dag_nodes_evaluated",
    "renewals_requested", "wire_encode_ns", "wire_decode_ns", "wire_bytes",
    "wire_lazy_documents", "wire_lazy_materialized",
)


def read_counters(cluster: Any) -> Dict[str, int]:
    snapshot = cluster.snapshot()
    totals = snapshot.get("matching_totals", {})
    wire = snapshot.get("workers", {}).get("wire", {})
    return {
        "notifications_sent": snapshot.get("notifications_sent", 0),
        "notifications_coalesced": snapshot.get("notifications_coalesced", 0),
        "candidates_considered": totals.get("candidates_considered", 0),
        "candidates_pruned": totals.get("candidates_pruned", 0),
        "memo_hits": totals.get("memo_hits", 0),
        "memo_misses": totals.get("memo_misses", 0),
        "dag_nodes_evaluated": totals.get("dag_nodes_evaluated", 0),
        "renewals_requested": sum(
            row.get("renewals_requested", 0)
            for row in snapshot.get("sorting", ())
        ),
        "wire_encode_ns": wire.get("encode_ns", 0),
        "wire_decode_ns": wire.get("decode_ns", 0),
        "wire_bytes": wire.get("bytes_sent", 0) + wire.get("bytes_received", 0),
        "wire_lazy_documents": wire.get("lazy_documents", 0),
        "wire_lazy_materialized": wire.get("lazy_materialized", 0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Derivation:
    """Resolves probe totals, answering ``None`` (plus the reason) for
    every metric that leans on an entry point that could not be wrapped."""

    def __init__(self, tracer: Tracer):
        self.errors = tracer.probe_errors
        self.segment_probes, self.layers = tracing.aggregate(tracer, True)
        self.all_probes, _ = tracing.aggregate(tracer, False)
        self.metrics: Dict[str, Dict[str, Any]] = {}

    def totals(self, probes: Dict[str, ProbeTotals],
               prefixes: Tuple[str, ...]) -> ProbeTotals:
        merged = ProbeTotals()
        for name, totals in probes.items():
            if name.startswith(prefixes):
                merged.count += totals.count
                merged.total_ns += totals.total_ns
                merged.self_ns += totals.self_ns
                merged.value += totals.value
                merged.durations.extend(totals.durations)
        return merged

    def put(self, name: str, value: Optional[float],
            needs: Tuple[str, ...] = ()) -> None:
        broken = [f"{probe}: {self.errors[probe]}"
                  for probe in needs if probe in self.errors]
        if broken:
            self.metrics[name] = {"value": None, "probe_error": "; ".join(broken)}
        else:
            self.metrics[name] = {"value": value}


def derive(
    tracer: Tracer,
    writes: int,
    wall_seconds: float,
    before: Dict[str, int],
    after: Dict[str, int],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, float]],
           Dict[str, ProbeTotals]]:
    """The per-layer metrics of one traced pass, its layer table (self
    microseconds per write and share of all attributed self time) and
    the per-probe totals of the timed segments."""
    d = _Derivation(tracer)
    w = float(writes)
    delta = {name: after[name] - before[name] for name in COUNTERS}
    seg, every = d.segment_probes, d.all_probes

    def us(ns: float) -> float:
        return ns / 1000.0

    store = d.totals(seg, ("Collection.",))
    d.put("store.self_us_per_write", us(store.self_ns) / w,
          ("Collection.insert", "Collection.update", "Collection.delete"))

    forward = d.totals(seg, ("InvaliDBClient.forward_write",))
    d.put("core.client.forward_us_per_write", us(forward.self_ns) / w,
          ("InvaliDBClient.forward_write",))
    deliver = d.totals(seg, ("listener:notify",))
    d.put("core.client.deliver_us_per_notification",
          _ratio(us(deliver.self_ns), deliver.count), ("Broker.subscribe",))
    subscribe = d.totals(every, ("InvaliDBClient.subscribe",))
    d.put("core.client.subscribe_p50_us",
          us(statistics.median(subscribe.durations)) if subscribe.count else 0.0,
          ("InvaliDBClient.subscribe",))

    encode = d.totals(seg, ("Codec.encode",))
    decode = d.totals(seg, ("Codec.decode",))
    d.put("event.codec.encode_us_per_write", us(encode.self_ns) / w, ("Codec.encode",))
    d.put("event.codec.decode_us_per_write", us(decode.self_ns) / w, ("Codec.decode",))
    d.put("event.codec.calls_per_write", (encode.count + decode.count) / w,
          ("Codec.encode", "Codec.decode"))
    d.put("event.codec.bytes_per_write", encode.value / w, ("Codec.encode",))

    broker = d.totals(seg, ("Broker.publish", "mailbox:dispatch", "listener:other"))
    publish = d.totals(seg, ("Broker.publish",))
    d.put("event.broker.self_us_per_write", us(broker.self_ns) / w,
          ("Broker.publish", "ExecutionModel.mailbox"))
    d.put("event.broker.messages_per_write", publish.count / w, ("Broker.publish",))

    mailboxes = d.totals(seg, ("mailbox:",))
    d.put("runtime.execution.items_per_write", mailboxes.value / w,
          ("ExecutionModel.mailbox",))
    d.put("runtime.execution.mean_batch", _ratio(mailboxes.value, mailboxes.count),
          ("ExecutionModel.mailbox",))

    stream = d.totals(seg, ("LocalRuntime.inject",))
    tasks = ProbeTotals()
    for name, totals in seg.items():
        if name.startswith("mailbox:") and name != "mailbox:dispatch":
            tasks.self_ns += totals.self_ns
            tasks.value += totals.value
    d.put("stream.runtime.self_us_per_write",
          us(stream.self_ns + tasks.self_ns) / w,
          ("LocalRuntime.inject", "ExecutionModel.mailbox"))
    d.put("stream.runtime.tuples_per_write", tasks.value / w,
          ("ExecutionModel.mailbox",))

    cluster = d.totals(seg, ("listener:writes", "listener:queries", "bolt:"))
    d.put("core.cluster.ingest_self_us_per_write", us(cluster.self_ns) / w,
          ("Broker.subscribe", "TopologyBuilder.add_bolt"))
    d.put("core.cluster.notifications_per_write", delta["notifications_sent"] / w)
    d.put("core.cluster.coalesced_share", _ratio(
        delta["notifications_coalesced"],
        delta["notifications_coalesced"] + delta["notifications_sent"]))

    process_write = d.totals(seg, ("FilteringNode.process_write",))
    filtering = d.totals(seg, ("FilteringNode.",))
    register = d.totals(every, ("FilteringNode.register_query",))
    d.put("core.filtering.self_us_per_write", us(filtering.self_ns) / w,
          ("FilteringNode.process_write", "FilteringNode.register_query"))
    d.put("core.filtering.calls_per_write", process_write.count / w,
          ("FilteringNode.process_write",))
    d.put("core.filtering.register_us", _ratio(us(register.total_ns), register.count),
          ("FilteringNode.register_query",))

    candidates = d.totals(seg, ("QueryIndex.candidates",))
    index = d.totals(seg, ("QueryIndex.",))
    add = d.totals(every, ("QueryIndex.add",))
    remove = d.totals(every, ("QueryIndex.remove",))
    d.put("query.index.probe_us_per_write", us(index.self_ns) / w,
          ("QueryIndex.candidates",))
    d.put("query.index.candidates_per_write", candidates.value / w,
          ("QueryIndex.candidates",))
    d.put("query.index.pruned_share", _ratio(
        delta["candidates_pruned"],
        delta["candidates_pruned"] + delta["candidates_considered"]))
    d.put("query.index.add_us", _ratio(us(add.total_ns), add.count), ("QueryIndex.add",))
    d.put("query.index.remove_us", _ratio(us(remove.total_ns), remove.count),
          ("QueryIndex.remove",))

    matches = d.totals(seg, ("Query.matches",))
    d.put("query.engine.match_us_per_write", us(matches.self_ns) / w, ("Query.matches",))
    d.put("query.engine.evals_per_write", matches.count / w, ("Query.matches",))

    d.put("query.shared.nodes_evaluated_per_write", delta["dag_nodes_evaluated"] / w,
          ("SharedPredicateDAG.begin",))
    d.put("query.shared.memo_hit_rate", _ratio(
        delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"]))

    events = d.totals(seg, ("SortingNode.handle_event",))
    sort_register = d.totals(every, ("SortingNode.register_query",))
    d.put("core.sorting.self_us_per_event", _ratio(us(events.self_ns), events.count),
          ("SortingNode.handle_event",))
    d.put("core.sorting.events_per_write", events.count / w, ("SortingNode.handle_event",))
    d.put("core.sorting.changes_per_event", _ratio(events.value, events.count),
          ("SortingNode.handle_event",))
    d.put("core.sorting.renewals_per_kwrite", delta["renewals_requested"] * 1000.0 / w)
    d.put("core.sorting.register_ms",
          _ratio(sort_register.total_ns / 1e6, sort_register.count),
          ("SortingNode.register_query",))

    d.put("event.wire.encode_us_per_write", us(delta["wire_encode_ns"]) / w)
    d.put("event.wire.decode_us_per_write", us(delta["wire_decode_ns"]) / w)
    d.put("event.wire.bytes_per_write", delta["wire_bytes"] / w)
    d.put("event.wire.lazy_hit_rate", 1.0 - _ratio(
        delta["wire_lazy_materialized"], delta["wire_lazy_documents"])
        if delta["wire_lazy_documents"] else 0.0)

    roundtrip = d.totals(seg, ("RemoteCell.request_batch",))
    d.put("runtime.process.roundtrip_us_per_batch",
          _ratio(us(roundtrip.total_ns), roundtrip.count), ("RemoteCell.request_batch",))
    d.put("runtime.process.mean_batch", _ratio(roundtrip.value, roundtrip.count),
          ("RemoteCell.request_batch",))

    attributed = sum(d.layers.values())
    wall_ns = wall_seconds * 1e9
    d.put("harness.budget_coverage", _ratio(attributed, wall_ns))
    d.put("harness.unattributed_us_per_write", us(wall_ns - attributed) / w)

    table = {
        layer: {
            "self_us_per_write": us(self_ns) / w,
            "share": _ratio(self_ns, attributed),
        }
        for layer, self_ns in sorted(d.layers.items(), key=lambda item: -item[1])
    }
    return d.metrics, table, seg


# ---------------------------------------------------------------------------
# Layer dominance
# ---------------------------------------------------------------------------

def _share(table: Dict[str, Dict[str, float]], layers: Tuple[str, ...]) -> float:
    return sum(table.get(layer, {}).get("share", 0.0) for layer in layers)


def dominance(workload: str, table: Dict[str, Dict[str, float]]) -> List[Dict[str, Any]]:
    """The rule each workload was sized to satisfy, checked against the
    traced layer table.  A failing rule means the workload no longer
    stresses the layers its ``why`` names — resize it, not the rule."""
    ranked = sorted(table, key=lambda layer: -table[layer]["share"])
    rules: List[Dict[str, Any]] = []

    def rule(text: str, holds: bool, detail: str) -> None:
        rules.append({"rule": text, "holds": bool(holds), "detail": detail})

    if workload.startswith("paper-filter"):
        transport = _share(table, tracing.TRANSPORT_LAYERS)
        matching = _share(table, (tracing.ENGINE, tracing.SORTING))
        others = {layer: row["share"] for layer, row in table.items()
                  if layer not in tracing.TRANSPORT_LAYERS}
        rule("transport layers hold the largest self-time share",
             all(transport > share for share in others.values()),
             f"transport {transport:.2f} vs {others}")
        rule("query.engine + core.sorting under 15%", matching < 0.15,
             f"{matching:.3f}")
    elif workload == "fanout-feed":
        share = _share(table, (tracing.ENGINE, tracing.CLUSTER, tracing.CLIENT))
        rule("query.engine + core.cluster + core.client at least 50%",
             share >= 0.50, f"{share:.3f}")
    elif workload == "sorted-feed":
        rule("core.sorting is the largest single layer",
             bool(ranked) and ranked[0] == tracing.SORTING,
             f"ranking {ranked[:3]}")
    elif workload == "churn-mixed":
        pair = _share(table, (tracing.INDEX, tracing.FILTERING))
        others = {layer: row["share"] for layer, row in table.items()
                  if layer not in (tracing.INDEX, tracing.FILTERING)}
        rule("query.index + core.filtering outweigh every other layer",
             all(pair > share for share in others.values()),
             f"pair {pair:.3f} vs largest other {max(others.values(), default=0.0):.3f}")
    return rules
