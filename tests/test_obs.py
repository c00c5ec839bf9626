"""Unit tests for the observability subsystem (``repro.obs``).

Covers the metrics registry (counters, gauges, streaming log-bucket
histograms and their merge/percentile math), the trace/span helpers,
the tracer's deterministic head sampling and slow-event log, the
telemetry facade and its config resolution, the exporters (JSON,
Prometheus text format, slow-event rendering) and the cluster
inspector — plus the ``python -m repro inspect`` CLI entry point.
"""

import json
import math
import re

import pytest

from repro.core.config import InvaliDBConfig
from repro.errors import ClusterConfigError
from repro.obs.export import (
    format_slow_events,
    slow_events,
    to_json,
    to_prometheus,
)
from repro.obs.inspector import render
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetryConfig,
    build_telemetry,
)
from repro.obs.tracing import (
    DELIVER,
    FILTER,
    PUBLISH,
    Tracer,
    begin_span,
    end_span,
    fork,
    is_complete,
    new_trace,
    span_names,
    spans_of,
    total_duration,
    trace_of,
)


class TestCounterAndGauge:
    def test_counter_increments(self):
        counter = Counter("writes")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_last_write_wins(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5
        assert gauge.snapshot() == {"type": "gauge", "value": 1.5}


class TestHistogram:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", base=0.0)
        with pytest.raises(ValueError):
            Histogram("h", growth=1.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=1)

    def test_empty_snapshot_is_nan(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert math.isnan(snap["p50"]) and math.isnan(snap["min"])

    def test_exact_fields_and_bounded_percentile_error(self):
        hist = Histogram("h", base=1e-6, growth=1.25)
        values = [0.001 * (i + 1) for i in range(100)]
        hist.record_many(values)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["min"] == pytest.approx(min(values))
        assert snap["max"] == pytest.approx(max(values))
        # A percentile reports its bucket's upper bound: never below
        # the true quantile, and within one growth factor above it.
        for quantile in (0.50, 0.95, 0.99):
            true = values[max(0, math.ceil(quantile * 100) - 1)]
            reported = hist.percentile(quantile)
            assert true <= reported <= true * 1.25 + 1e-12

    def test_max_caps_top_percentile(self):
        hist = Histogram("h")
        hist.record(0.010)
        # One sample: every percentile is the exact max, not the
        # (larger) bucket bound.
        assert hist.percentile(0.99) == pytest.approx(0.010)

    def test_overflow_lands_in_last_bucket(self):
        hist = Histogram("h", base=1e-3, growth=2.0, buckets=4)
        hist.record(1e9)
        assert hist.count == 1
        assert hist.max == pytest.approx(1e9)  # extrema stay exact
        # The percentile collapses to the last bucket's bound — the
        # price of fixed memory when a value overflows the geometry.
        assert hist.percentile(0.5) == pytest.approx(1e-3 * 2.0 ** 3)

    def test_merge_adds_counts_and_extrema(self):
        left, right = Histogram("h"), Histogram("h")
        left.record_many([0.001, 0.002])
        right.record_many([0.004, 0.0005])
        left.merge(right)
        assert left.count == 4
        assert left.min == pytest.approx(0.0005)
        assert left.max == pytest.approx(0.004)
        assert left.sum == pytest.approx(0.0075)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            Histogram("h", growth=1.25).merge(Histogram("h", growth=2.0))

    def test_cumulative_buckets_monotone(self):
        hist = Histogram("h")
        hist.record_many([0.001, 0.001, 0.01, 0.1])
        buckets = hist.cumulative_buckets()
        bounds = [bound for bound, _ in buckets]
        counts = [count for _, count in buckets]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert counts[-1] == 4


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", node="1") is not registry.counter("a")
        assert (registry.histogram("h", stage="filter")
                is registry.histogram("h", stage="filter"))

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_groups_labeled_series(self):
        registry = MetricsRegistry()
        registry.counter("plain").inc(2)
        registry.counter("fam", node="0").inc()
        registry.counter("fam", node="1").inc(3)
        snap = registry.snapshot()
        assert snap["plain"]["value"] == 2
        values = {entry["labels"]["node"]: entry["value"]
                  for entry in snap["fam"]}
        assert values == {"0": 1, "1": 3}

    def test_collectors_feed_snapshot_and_broken_ones_are_skipped(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"bridged.value": 42})
        registry.register_collector(lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["bridged.value"] == 42


class TestNullHandles:
    def test_null_handles_are_shared_noops(self):
        telemetry = NullTelemetry()
        assert telemetry.counter("a") is NULL_COUNTER
        assert telemetry.gauge("b") is NULL_GAUGE
        assert telemetry.histogram("c") is NULL_HISTOGRAM
        NULL_COUNTER.inc()
        NULL_GAUGE.set(9.0)
        NULL_HISTOGRAM.record(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert math.isnan(NULL_HISTOGRAM.percentile(0.5))
        assert telemetry.snapshot() == {}
        assert NULL_TELEMETRY.tracer.start("write", 1, 0.0) is None


class TestTraceHelpers:
    def test_span_lifecycle(self):
        trace = new_trace("t-1", "write", 7, 1.0)
        begin_span(trace, PUBLISH, 1.0)
        assert not is_complete(trace)
        end_span(trace, PUBLISH, 2.0)
        begin_span(trace, FILTER, 2.0)
        end_span(trace, FILTER, 2.5)
        assert is_complete(trace)
        assert span_names(trace) == [PUBLISH, FILTER]
        assert spans_of(trace) == [(PUBLISH, 1.0, 2.0), (FILTER, 2.0, 2.5)]
        assert total_duration(trace) == pytest.approx(1.5)

    def test_end_span_closes_most_recent_and_is_idempotent(self):
        trace = new_trace("t-1", "write", 7, 0.0)
        begin_span(trace, FILTER, 1.0)
        end_span(trace, FILTER, 2.0)
        end_span(trace, FILTER, 99.0)  # already closed: no effect
        end_span(trace, DELIVER, 3.0)  # never opened: no effect
        assert spans_of(trace) == [(FILTER, 1.0, 2.0)]

    def test_fork_isolates_branches(self):
        trace = new_trace("t-1", "write", 7, 0.0)
        begin_span(trace, PUBLISH, 0.0)
        end_span(trace, PUBLISH, 1.0)
        branch = fork(trace)
        begin_span(branch, DELIVER, 1.0)
        assert span_names(trace) == [PUBLISH]
        assert span_names(branch) == [PUBLISH, DELIVER]
        assert fork(None) is None

    def test_trace_of_is_defensive(self):
        trace = new_trace("t-1", "write", 7, 0.0)
        assert trace_of({"trace": trace}) is trace
        assert trace_of({"trace": "corrupted"}) is None
        assert trace_of({"trace": {"spans": "oops"}}) is None
        assert trace_of({"no": "trace"}) is None
        assert trace_of(b"not a dict") is None
        assert trace_of(None) is None

    def test_helpers_accept_none(self):
        begin_span(None, PUBLISH, 0.0)
        end_span(None, PUBLISH, 0.0)


class TestTracer:
    def test_sampling_is_deterministic_one_in_period(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, sample_rate=0.25)
        sampled = [tracer.start("write", i, 0.0) for i in range(20)]
        carried = [trace is not None for trace in sampled]
        assert carried == [i % 4 == 0 for i in range(20)]
        assert tracer.started == 5
        assert tracer.sampled_out == 15

    def test_disabled_tracer_returns_none(self):
        tracer = Tracer(MetricsRegistry(), enabled=False)
        assert tracer.start("write", 1, 0.0) is None

    def test_complete_records_histograms_and_transcript(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, slow_threshold=10.0)
        trace = tracer.start("write", 1, 0.0)
        begin_span(trace, PUBLISH, 0.0)
        end_span(trace, PUBLISH, 0.5)
        tracer.complete(trace, 0.5)
        assert tracer.completed == 1
        assert list(tracer.transcripts) == [trace]
        assert registry.histogram("trace.e2e_seconds").count == 1
        assert tracer.stats()["slow_events"] == 0
        tracer.complete(None, 1.0)  # untraced write: no-op
        assert tracer.completed == 1

    def test_slow_traces_logged_with_span_breakdown(self):
        tracer = Tracer(MetricsRegistry(), slow_threshold=0.1)
        trace = tracer.start("write", 9, 0.0)
        begin_span(trace, PUBLISH, 0.0)
        end_span(trace, PUBLISH, 0.2)
        begin_span(trace, FILTER, 0.2)  # left open: closed at complete
        tracer.complete(trace, 0.3)
        assert len(tracer.slow_events) == 1
        event = tracer.slow_events[0]
        assert event["trace_id"] == trace["id"]
        assert event["total_seconds"] == pytest.approx(0.2)
        assert [span["name"] for span in event["spans"]] == [PUBLISH, FILTER]


class TestTelemetryFacade:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_sample_rate=0.0)
        with pytest.raises(ValueError):
            TelemetryConfig(trace_sample_rate=1.5)
        with pytest.raises(ValueError):
            TelemetryConfig(slow_trace_threshold=-1.0)
        with pytest.raises(ValueError):
            TelemetryConfig(transcript_capacity=0)

    def test_build_telemetry_resolution(self):
        assert build_telemetry(None) is NULL_TELEMETRY
        assert build_telemetry(False) is NULL_TELEMETRY
        assert build_telemetry(True).enabled
        assert build_telemetry(
            TelemetryConfig(enabled=False)) is NULL_TELEMETRY
        live = Telemetry()
        assert build_telemetry(live) is live
        built = build_telemetry(TelemetryConfig(trace_sample_rate=1.0))
        assert built.tracer.sample_period == 1
        with pytest.raises(TypeError):
            build_telemetry("yes please")

    def test_bind_clock_swaps_time_source(self):
        telemetry = Telemetry()
        telemetry.bind_clock(lambda: 123.0)
        assert telemetry.now() == 123.0

    def test_invalidb_config_rejects_bad_telemetry(self):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(telemetry="enabled")

    def test_histogram_uses_configured_geometry(self):
        telemetry = Telemetry(TelemetryConfig(histogram_growth=1.5))
        assert telemetry.histogram("h").growth == 1.5


class TestExporters:
    def build(self):
        telemetry = Telemetry(TelemetryConfig(slow_trace_threshold=0.05))
        telemetry.counter("broker.published", broker="b").inc(7)
        telemetry.gauge("mailbox.depth", mailbox="m").set(2.0)
        telemetry.histogram("trace.e2e_seconds").record_many(
            [0.001, 0.002, 0.004])
        return telemetry

    def test_to_json_round_trips(self):
        snap = json.loads(to_json(self.build()))
        assert snap["broker.published"][0]["value"] == 7
        assert snap["trace.e2e_seconds"]["count"] == 3
        assert snap["trace"]["completed"] == 0

    def test_prometheus_text_format(self):
        text = to_prometheus(self.build())
        assert "# TYPE broker_published counter" in text
        assert 'broker_published{broker="b"} 7' in text
        assert "# TYPE mailbox_depth gauge" in text
        assert "# TYPE trace_e2e_seconds histogram" in text
        assert 'trace_e2e_seconds_bucket{le="+Inf"} 3' in text
        assert "trace_e2e_seconds_count 3" in text

    def test_prometheus_when_disabled(self):
        assert to_prometheus(NULL_TELEMETRY) == "# telemetry disabled\n"

    def test_slow_event_rendering(self):
        telemetry = self.build()
        trace = telemetry.tracer.start("write", 3, 0.0)
        begin_span(trace, PUBLISH, 0.0)
        end_span(trace, PUBLISH, 0.2)
        telemetry.tracer.complete(trace, 0.2)
        events = slow_events(telemetry)
        assert len(events) == 1
        text = format_slow_events(telemetry)
        assert trace["id"] in text and "publish=" in text
        assert slow_events(NULL_TELEMETRY) == []
        assert "no slow traces" in format_slow_events(NULL_TELEMETRY)


class TestInspector:
    def test_render_empty_snapshot(self):
        text = render({})
        assert "InvaliDB cluster inspector" in text

    def test_render_sections(self):
        snapshot = {
            "config": {"query_partitions": 2, "write_partitions": 2},
            "matching": [{
                "node": "matching[0]", "query_partition": 0,
                "write_partition": 0, "queries": 3, "writes_processed": 10,
                "matched_operations": 4, "candidates_considered": 8,
                "candidates_pruned": 16,
            }],
            "sorting": [{
                "node": "sorting[0]", "query_partition": 0, "queries": 3,
                "cores": 1, "pages": 3,
                "events_processed": 5, "renewals_requested": 0,
                "window_comparisons": 42,
            }],
            "notifications_sent": 7,
            "notifications_coalesced": 3,
            "mailboxes": [{
                "name": "matching[0]", "depth": 0, "enqueued": 10,
                "processed": 10, "dropped": 0,
            }],
            "telemetry": {
                "trace.e2e_seconds": {
                    "count": 4, "p50": 0.001, "p95": 0.002, "p99": 0.002,
                    "max": 0.003,
                },
                "trace.span_seconds": [{
                    "labels": {"stage": "filter"}, "count": 4,
                    "p50": 0.0005, "p95": 0.001, "p99": 0.001, "max": 0.001,
                }],
            },
            "faults": {"injected": 2, "dropped": 1},
            "supervisor": {"restarts": 1},
        }
        text = render(snapshot)
        assert "matching grid" in text
        assert "sorting stage" in text
        assert "mailboxes" in text
        assert "write-path latency" in text
        assert "end-to-end" in text and "filter" in text
        assert "faults.injected" in text
        assert "supervisor.restarts" in text
        assert "probe depth" in text and "42" in text
        assert "cores" in text
        assert "cluster.notifications_coalesced" in text
        # Pruned 16 of 24 candidate evaluations.
        assert "66.67" in text


class TestInspectCli:
    def test_inspect_renders_grid_table(self, capsys):
        from repro.__main__ import main
        assert main(["inspect", "--writes", "30", "--grid", "2x2"]) == 0
        out = capsys.readouterr().out
        assert "matching grid" in out
        assert "write-path latency" in out

    def test_inspect_json_parses(self, capsys):
        from repro.__main__ import main
        assert main(["inspect", "--writes", "12", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["trace"]["completed"] > 0

    def test_inspect_prometheus(self, capsys):
        from repro.__main__ import main
        assert main(["inspect", "--writes", "12", "--prometheus"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_inspect_slow(self, capsys):
        from repro.__main__ import main
        assert main(["inspect", "--writes", "12", "--slow"]) == 0
        assert "slow" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Strict Prometheus text-format validation (exporter hardening)
# ---------------------------------------------------------------------------

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
#: A label value may contain only escaped backslash/quote/newline plus
#: anything that is not a raw backslash, quote or newline.
_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\\n])*"'
_PROM_SAMPLE_RE = re.compile(
    rf"^({_PROM_NAME})(?:\{{{_PROM_LABEL}(?:,{_PROM_LABEL})*\}})? "
    rf"(?:NaN|[+-]Inf|[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)$"
)
_PROM_HELP_RE = re.compile(rf"^# HELP ({_PROM_NAME}) [^\n]+$")
_PROM_TYPE_RE = re.compile(
    rf"^# TYPE ({_PROM_NAME}) (counter|gauge|histogram)$"
)


def check_prometheus_text(text):
    """Strict structural checker for the 0.0.4 text exposition format.

    Asserts every line is a well-formed HELP/TYPE comment or sample,
    HELP directly precedes TYPE exactly once per family, label values
    contain no raw backslash/quote/newline, and every sample belongs
    to a declared family.  Returns {family: type}.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    pending_help = None
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP "):
            match = _PROM_HELP_RE.match(line)
            assert match, f"malformed HELP line: {line!r}"
            name = match.group(1)
            assert name not in families, f"duplicate family {name}"
            assert pending_help is None, f"HELP {name} without a TYPE"
            pending_help = name
            continue
        if line.startswith("# TYPE "):
            match = _PROM_TYPE_RE.match(line)
            assert match, f"malformed TYPE line: {line!r}"
            name = match.group(1)
            assert pending_help == name, (
                f"TYPE {name} must directly follow its HELP line"
            )
            families[name] = match.group(2)
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _PROM_SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        sample = match.group(1)
        base = re.sub(r"_(bucket|sum|count)$", "", sample)
        assert sample in families or (
            base in families and families[base] == "histogram"
        ), f"sample for undeclared family: {line!r}"
    assert pending_help is None, "trailing HELP without a TYPE"
    return families


class TestPrometheusStrictFormat:
    #: A label value with every character class the exposition format
    #: requires escaping for, plus braces/commas that must pass through.
    NASTY = 'he said "hi", used a \\ backslash,\nand a {brace}'

    def build(self):
        telemetry = Telemetry(TelemetryConfig())
        telemetry.registry.describe(
            "slo.breaches_total",
            "Notifications whose lag exceeded the target.",
        )
        telemetry.counter("slo.breaches_total", query=self.NASTY).inc(2)
        telemetry.gauge("mailbox.depth", mailbox="m").set(2.0)
        telemetry.histogram("trace.e2e_seconds").record_many(
            [0.001, 0.02, 3.0])
        return telemetry

    def test_every_line_parses_strictly(self):
        families = check_prometheus_text(to_prometheus(self.build()))
        assert families["slo_breaches_total"] == "counter"
        assert families["mailbox_depth"] == "gauge"
        assert families["trace_e2e_seconds"] == "histogram"

    def test_label_values_are_escaped(self):
        text = to_prometheus(self.build())
        assert '\\"hi\\"' in text
        assert "\\\\ backslash" in text
        assert "\\nand" in text
        # The raw newline must not survive into the payload: the line
        # after any sample line must not be a bare continuation.
        assert "\nand a {brace}" not in text
        check_prometheus_text(text)

    def test_help_precedes_type_and_is_stable(self):
        one = to_prometheus(self.build())
        two = to_prometheus(self.build())
        assert one == two, "exposition must be byte-stable run to run"
        assert one.count("# HELP slo_breaches_total") == 1
        assert one.index("# HELP slo_breaches_total") < one.index(
            "# TYPE slo_breaches_total")

    def test_described_and_fallback_help_text(self):
        text = to_prometheus(self.build())
        assert ("# HELP slo_breaches_total Notifications whose lag "
                "exceeded the target.") in text
        # Families nobody described get a deterministic fallback.
        assert "# HELP mailbox_depth Registry metric mailbox.depth." in text

    def test_registry_first_description_wins(self):
        registry = MetricsRegistry()
        registry.describe("m", "first")
        registry.describe("m", "second")
        assert registry.help_text("m") == "first"
        assert registry.help_text("unknown") is None


# ---------------------------------------------------------------------------
# Per-query SLO accounting
# ---------------------------------------------------------------------------


class _StaticScheme:
    def write_partition_of(self, key):
        return 0


class TestSLOAccountant:
    def build(self, now=10.0, objective=0.9):
        from repro.obs.slo import SLOAccountant
        telemetry = Telemetry(TelemetryConfig())
        state = {"now": now}
        accountant = SLOAccountant(
            telemetry, _StaticScheme(),
            objective=objective, clock=lambda: state["now"],
        )
        return telemetry, accountant, state

    def _change(self, query_id="q1", timestamp=9.9, **kw):
        from repro.core.notifications import QueryChange
        from repro.types import MatchType
        return QueryChange(query_id=query_id, match_type=MatchType.ADD,
                           key=1, timestamp=timestamp, **kw)

    def test_lag_breach_and_burn_rate(self):
        telemetry, accountant, _ = self.build()
        accountant.observe(self._change(timestamp=9.9))  # 0.1s: within SLO
        accountant.observe(self._change(timestamp=9.0))  # 1.0s: breach
        summary = accountant.summary()
        assert summary["notifications"] == 2
        assert summary["breaches"] == 1
        # Breach fraction 0.5 over an error budget of 1 - 0.9 = 0.1.
        assert summary["burn_rate"] == pytest.approx(5.0)
        row = summary["queries"][0]
        assert row["query_id"] == "q1"
        assert row["burn_rate"] == pytest.approx(5.0)
        assert row["p99_seconds"] == pytest.approx(1.0, rel=0.2)

    def test_error_and_untimestamped_changes_are_skipped(self):
        from repro.core.notifications import QueryChange
        from repro.types import MatchType
        telemetry, accountant, _ = self.build()
        accountant.observe(QueryChange(
            query_id="q", match_type=MatchType.ERROR, key=1,
            error="renew", timestamp=5.0,
        ))
        accountant.observe(self._change(timestamp=0.0))
        assert accountant.summary()["notifications"] == 0
        assert accountant.skipped == 2

    def test_negative_lag_clamps_to_zero(self):
        telemetry, accountant, _ = self.build(now=1.0)
        accountant.observe(self._change(timestamp=2.0))
        summary = accountant.summary()
        assert summary["breaches"] == 0
        assert summary["lag_max_seconds"] == 0.0

    def test_cardinality_cap_keeps_aggregate_accounting(self, monkeypatch):
        import repro.obs.slo as slo_module
        monkeypatch.setattr(slo_module, "MAX_TRACKED_SERIES", 2)
        telemetry, accountant, _ = self.build()
        for i in range(5):
            accountant.observe(self._change(query_id=f"q{i}"))
        summary = accountant.summary()
        assert summary["notifications"] == 5  # aggregate sees them all
        assert len(summary["queries"]) == 2   # but only 2 series minted

    def test_every_read_folds_the_queued_batches(self):
        """Batches are folded in every ``FOLD_BATCHES``; a registry
        read or a summary folds the rest first."""
        import repro.obs.slo as slo_module
        telemetry, accountant, _ = self.build()
        batches = slo_module.FOLD_BATCHES + 3
        for _ in range(batches):
            accountant.observe(self._change(timestamp=9.9))
        assert len(accountant._pending) == 3
        assert telemetry.registry.snapshot()["slo.lag_seconds"]["count"] \
            == batches
        assert not accountant._pending
        accountant.observe(self._change(timestamp=9.0))
        assert 'slo_breaches_total{query="q1"} 1' in to_prometheus(telemetry)
        accountant.observe(self._change(timestamp=9.0))
        summary = accountant.summary()
        assert (summary["notifications"], summary["breaches"]) == \
            (batches + 2, 2)

    def test_slo_series_flow_to_prometheus(self):
        telemetry, accountant, _ = self.build()
        accountant.observe(self._change(timestamp=9.0))
        text = to_prometheus(telemetry)
        assert 'slo_notifications_total{query="q1"} 1' in text
        assert 'slo_breaches_total{query="q1"} 1' in text
        assert "# HELP slo_lag_seconds " in text
        check_prometheus_text(text)
