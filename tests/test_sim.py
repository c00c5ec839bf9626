"""Simulation substrate tests: DES engine, queues, metrics, models."""

import math

import pytest

from repro.errors import SaturationError, SimulationError
from repro.sim.cluster_model import (
    SATURATED,
    ClusterCosts,
    QuaestorModel,
    SimulatedInvaliDB,
)
from repro.sim.des import Simulator
from repro.sim.experiment import (
    latency_histogram,
    measure_latency,
    sustainable_per_sla,
    sweep_query_load,
)
from repro.sim.metrics import LatencyRecorder, LatencyStats
from repro.sim.network import HopModel
from repro.sim.resources import FifoServer
from repro.sim.workload import PaperWorkload, generate_document


class TestSimulator:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(2.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]
        assert simulator.now == 2.0

    def test_fifo_among_equal_timestamps(self):
        simulator = Simulator()
        order = []
        for index in range(5):
            simulator.schedule(1.0, lambda i=index: order.append(i))
        simulator.run()
        assert order == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        simulator.run()
        assert fired == []

    def test_run_until_stops_at_boundary(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(5.0, lambda: fired.append(5))
        simulator.run_until(2.0)
        assert fired == [1]
        assert simulator.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_event_budget(self):
        simulator = Simulator()

        def reschedule():
            simulator.schedule(0.001, reschedule)

        simulator.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            simulator.run(max_events=100)

    @pytest.mark.parametrize("drive", [
        lambda simulator: simulator.run(max_events=100),
        lambda simulator: simulator.run_until(10.0, max_events=100),
    ], ids=["run", "run_until"])
    def test_event_budget_is_saturation(self, drive):
        simulator = Simulator()

        def reschedule():
            simulator.schedule(0.001, reschedule)

        simulator.schedule(0.0, reschedule)
        with pytest.raises(SaturationError):
            drive(simulator)


class TestFifoServer:
    def test_idle_server_serves_immediately(self):
        simulator = Simulator()
        server = FifoServer(simulator)
        assert server.offer(0.5) == 0.5

    def test_busy_server_queues(self):
        simulator = Simulator()
        server = FifoServer(simulator)
        assert server.offer(0.5) == 0.5
        assert server.offer(0.5) == 1.0  # queued behind the first

    def test_probe_does_not_consume_capacity(self):
        simulator = Simulator()
        server = FifoServer(simulator)
        server.offer(1.0)
        assert server.probe(0.5) == 1.5
        assert server.offer(0.5) == 1.5  # probe left no trace

    def test_utilization(self):
        simulator = Simulator()
        server = FifoServer(simulator)
        server.offer(0.5)
        simulator.now = 1.0
        assert server.utilization() == pytest.approx(0.5)


class TestMetrics:
    def test_stats_columns(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.average == 2.5
        assert stats.maximum == 4.0
        assert stats.count == 4
        assert stats.p99 == 4.0

    def test_p99_nearest_rank(self):
        samples = list(range(1, 101))
        stats = LatencyStats.from_samples(samples)
        assert stats.p99 == 99

    def test_empty_sample_is_nan(self):
        stats = LatencyStats.from_samples([])
        assert math.isnan(stats.p99)
        assert stats.exceeds(100.0)

    def test_warmup_window_skipped(self):
        recorder = LatencyRecorder(warmup_until=2.0)
        recorder.record(1.0, 5.0)
        recorder.record(3.0, 7.0)
        assert recorder.samples == [7.0]
        assert recorder.dropped == 1

    def test_exceeds(self):
        stats = LatencyStats.from_samples([10.0] * 98 + [50.0, 60.0])
        assert not stats.exceeds(60.0)
        assert stats.exceeds(20.0)  # p99 (nearest rank) is 50.0


class TestHopModel:
    def test_samples_exceed_base(self):
        import random

        hop = HopModel(base=0.001, jitter_mean=0.0002)
        rng = random.Random(1)
        samples = [hop.sample(rng) for _ in range(100)]
        assert all(value >= 0.001 for value in samples)
        mean = sum(samples) / len(samples)
        assert 0.0011 < mean < 0.0014


class TestWorkload:
    def test_document_shape(self):
        import random

        doc = generate_document(random.Random(1), "k", 42)
        strings = [v for v in doc.values() if isinstance(v, str) and v != "k"]
        assert len(strings) == 5
        assert all(len(s) == 10 for s in strings)
        assert doc["random"] == 42

    def test_each_matching_write_hits_exactly_one_query(self):
        """Section 6.1: only 1 000 queries match exactly one item each."""
        from repro.query import matches

        workload = PaperWorkload(total_queries=50, matching_queries=20)
        queries = workload.queries()
        documents = workload.matching_documents()
        assert len(documents) == 20
        for doc in documents:
            hits = [q for q in queries if matches(doc, q)]
            assert len(hits) == 1

    def test_non_matching_documents_hit_nothing(self):
        from repro.query import matches

        workload = PaperWorkload(total_queries=30, matching_queries=10)
        queries = workload.queries()
        for doc in workload.non_matching_documents(15):
            assert not any(matches(doc, q) for q in queries)

    def test_write_stream_match_count(self):
        from repro.query import matches

        workload = PaperWorkload(total_queries=20, matching_queries=5)
        stream = workload.write_stream(50)
        assert len(stream) == 50
        queries = workload.queries()
        matching = sum(
            1 for doc in stream if any(matches(doc, q) for q in queries)
        )
        assert matching == 5


class TestClusterModel:
    def test_utilization_formula(self):
        model = SimulatedInvaliDB(2, 4)
        # rate/WP * (parse + match*queries/QP)
        expected = (1000 / 4) * (0.0002 + 4e-7 * (2000 / 2))
        assert model.matching_utilization(2000, 1000) == pytest.approx(expected)

    def test_healthy_load_has_low_latency(self):
        stats = SimulatedInvaliDB(1, 1).run(500, 500, duration=5.0)
        assert stats.p99 < 20.0
        assert 5.0 < stats.average < 15.0

    def test_overload_is_saturated(self):
        stats = SimulatedInvaliDB(1, 1).run(10_000, 5_000, duration=5.0)
        assert stats is SATURATED
        assert stats.exceeds(100.0)

    def test_near_saturation_latency_explodes(self):
        healthy = SimulatedInvaliDB(1, 1).run(1000, 1000, duration=5.0)
        saturated = SimulatedInvaliDB(1, 1).run(2400, 1000, duration=5.0)
        assert saturated.p99 > 5 * healthy.p99

    def test_linear_read_scaling(self):
        """Doubling query partitions doubles sustainable queries."""
        single = SimulatedInvaliDB(1, 1).run(1500, 1000, duration=5.0)
        doubled = SimulatedInvaliDB(2, 1).run(3000, 1000, duration=5.0)
        assert not single.exceeds(30.0)
        assert not doubled.exceeds(30.0)

    def test_linear_write_scaling(self):
        single = SimulatedInvaliDB(1, 1).run(1000, 1200, duration=5.0)
        doubled = SimulatedInvaliDB(1, 2).run(1000, 2400, duration=5.0)
        assert not single.exceeds(50.0)
        assert not doubled.exceeds(50.0)

    def test_quaestor_adds_fixed_overhead(self):
        plain = SimulatedInvaliDB(1, 1, seed=9).run(500, 500, duration=5.0)
        quaestor = QuaestorModel(1, 1, seed=9).run(500, 500, duration=5.0)
        overhead = quaestor.average - plain.average
        assert 3.0 < overhead < 8.0

    def test_quaestor_write_ceiling(self):
        model = QuaestorModel(1, 16)
        below = model.run(1000, 4000, duration=5.0)
        above = model.run(1000, 8000, duration=5.0)
        assert not below.exceeds(50.0)
        assert above.exceeds(100.0)

    def test_run_samples_returns_raw_data(self):
        samples = SimulatedInvaliDB(1, 1).run_samples(500, 500, duration=5.0)
        assert samples and all(value > 0 for value in samples)

    @pytest.mark.parametrize("model_class", [SimulatedInvaliDB, QuaestorModel])
    def test_model_bug_is_not_reported_as_saturation(self, model_class):
        class BrokenHop:
            def sample(self, rng):
                raise ValueError("broken cost model")

        model = model_class(1, 1)
        model.costs.hop = BrokenHop()
        with pytest.raises(ValueError, match="broken cost model"):
            model.run(500, 500, duration=2.0)

    @pytest.mark.parametrize("model_class", [SimulatedInvaliDB, QuaestorModel])
    def test_event_budget_exhaustion_is_saturated(self, model_class):
        model = model_class(1, 1)
        assert model.run_samples(500, 500, duration=2.0, max_events=50) is None
        assert model.run(500, 500, duration=2.0, max_events=50) is SATURATED


class TestExperimentHarness:
    def test_sweep_and_sustainable(self):
        points = sweep_query_load(1, step=500, duration=3.0, max_sla_ms=100.0)
        sustainable = sustainable_per_sla(points, [20.0, 100.0])
        assert sustainable[100.0] >= sustainable[20.0] > 0
        # Single node: the paper sustains 1500 and fails at 2000.
        assert 1000 <= sustainable[100.0] <= 2000

    def test_measure_latency_quaestor_flag(self):
        plain = measure_latency(1, 1, 500, 500, duration=3.0)
        quaestor = measure_latency(1, 1, 500, 500, duration=3.0,
                                   quaestor=True)
        assert quaestor.average > plain.average

    def test_latency_histogram(self):
        histogram = latency_histogram([1.0, 1.5, 3.0, 99.0, 500.0],
                                      bin_width_ms=2.0, max_ms=100.0)
        total = sum(frequency for _, frequency in histogram)
        assert total == pytest.approx(1.0)
        assert histogram[0][1] == pytest.approx(2 / 5)
