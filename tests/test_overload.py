"""Overload at the queues: bounded mailboxes and their evictions.

The cluster does not shed load itself; a bounded queue under the
``drop_oldest`` policy is the one place an item can be dropped for
lack of room.  The claim under test is **attribution**: every
``drop_oldest`` eviction carries stage/partition labels and lands in
the slow-event log as a structured record.
"""

from repro.runtime.execution import (
    ExecutionConfig,
    InlineExecutionModel,
    _eviction_logger,
    _mailbox_labels,
)


class TestEvictionAttribution:
    def test_mailbox_labels_parse_stage_and_partition(self):
        assert _mailbox_labels("matching[3]") == ("matching", "3")
        assert _mailbox_labels("sorting[0]") == ("sorting", "0")
        assert _mailbox_labels("broker") == ("broker", "-")

    def test_drop_oldest_evictions_are_attributed(self):
        from repro.obs.telemetry import TelemetryConfig, build_telemetry

        telemetry = build_telemetry(TelemetryConfig(trace_sample_rate=1.0))
        model = InlineExecutionModel(ExecutionConfig(mode="inline"))
        model.set_telemetry(telemetry)
        held = []
        box = model.mailbox("matching[2]", held.extend, capacity=2,
                            policy="drop_oldest")
        box.put_many([
            ("chan", {"kind": "write", "key": k}) for k in range(4)
        ])
        assert box.stats()["dropped"] == 2
        events = [e for e in telemetry.tracer.slow_events
                  if e.get("kind") == "eviction"]
        assert len(events) == 2
        assert events[0]["mailbox"] == "matching[2]"
        assert events[0]["stage"] == "matching"
        assert events[0]["partition"] == "2"
        assert events[0]["evicted_kind"] == "write"
        assert [e["key"] for e in events] == [0, 1]
        counters = [m for m in telemetry.registry.metrics()
                    if m.name == "mailbox.dropped" and m.value]
        labels = dict(counters[0].labels)
        assert labels["stage"] == "matching"
        assert labels["partition"] == "2"

    def test_eviction_records_render_in_the_slow_log(self):
        from repro.obs.export import format_slow_events
        from repro.obs.telemetry import TelemetryConfig, build_telemetry

        telemetry = build_telemetry(TelemetryConfig())
        logger = _eviction_logger(telemetry, "sorting[0]")
        logger(("chan", {"kind": "match-event", "key": 9}))
        out = format_slow_events(telemetry)
        assert "eviction mailbox=sorting[0]" in out
        assert "stage=sorting partition=0" in out
        assert "payload=match-event key=9" in out

    def test_null_tracer_disables_the_logger(self):
        from repro.obs.telemetry import build_telemetry

        telemetry = build_telemetry(None)
        assert _eviction_logger(telemetry, "matching[0]") is None
