"""Calibrated queueing model of an InvaliDB deployment.

Replaces the paper's five-machine testbed (Section 6.1).  The model:

* writes arrive as a Poisson process at the configured rate and are
  hash-assigned to one of ``write_partitions`` partitions;
* stateless ingestion nodes are FIFO servers with a small per-write
  service time;
* a matching node is a FIFO server whose per-write service time is
  ``parse_cost + match_cost * queries_per_node`` — parsing/deserializing
  the after-image plus matching it against every query of its query
  partition.  All nodes in one write partition receive the identical
  write stream and hold equally many queries, so one simulated server
  per write partition stands in for the whole column; the responsible
  node's sojourn time is what the notification latency includes;
* every message hop samples a network delay (base + exponential tail).

Calibration (see EXPERIMENTS.md): with the default costs a single
matching node sustains ~1 500 active queries at 1 000 ops/s (about 80 %
utilization, p99 < 20 ms) and fails at 2 000 — matching the paper's
single-node measurements; everything else emerges from queueing.

:class:`QuaestorModel` adds the application server in front: a FIFO
server through which *all* writes and all notifications pass, plus a
fixed processing overhead — reproducing Figure 6's ~5 ms shift and the
~6 000 ops/s single-server write ceiling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ClusterConfigError, SaturationError
from repro.sim.des import Simulator
from repro.sim.metrics import LatencyRecorder, LatencyStats
from repro.sim.network import HopModel
from repro.sim.resources import FifoServer

#: Stats object returned for configurations that are analytically
#: saturated (offered load exceeds capacity): latency is unbounded.
SATURATED = LatencyStats(
    count=0,
    average=math.inf,
    std_dev=math.inf,
    p50=math.inf,
    p99=math.inf,
    maximum=math.inf,
)


@dataclass
class ClusterCosts:
    """Per-operation cost constants (seconds) — the calibration knobs."""

    #: Deserializing/parsing one after-image at a matching node.
    parse_cost: float = 0.0002
    #: Matching one after-image against one query.
    match_cost: float = 4.0e-7
    #: Routing one message at a stateless ingestion node.
    ingest_cost: float = 2.0e-5
    #: One-way network hop distribution.
    hop: HopModel = field(default_factory=lambda: HopModel(base=0.00115))
    #: JVM stop-the-world garbage collection: per-processed-message
    #: probability of a pause, and its length.  This is the noise source
    #: the paper blames for write-heavy tail latency ("garbage collection
    #: in the write ingestion nodes could have caused occasional latency
    #: stragglers at high throughput", Section 6.4).
    gc_probability: float = 0.003
    gc_pause: float = 0.005
    #: Virtualization-host CPU contention (Section 6.1: "we had to
    #: deploy large InvaliDB clusters with relatively many matching
    #: nodes per server which led to CPU contention").  Service times
    #: inflate by ``contention_per_node`` for every matching node beyond
    #: ``contention_free_nodes`` in the cluster.  Off by default; the
    #: Figure 4 anomaly (the 16-node cluster under the tightest SLA)
    #: appears when enabled.
    contention_per_node: float = 0.0
    contention_free_nodes: int = 8

    def contention_factor(self, node_count: int) -> float:
        excess = max(0, node_count - self.contention_free_nodes)
        return 1.0 + self.contention_per_node * excess
    #: Hops on the standalone path:
    #: client -> event layer -> ingestion -> matching -> event layer -> client.
    standalone_hops: int = 5
    #: Application server (Quaestor): per-write service time.  The
    #: inverse is the single-server write ceiling (~6 000 ops/s).
    app_server_write_cost: float = 1.0 / 6200.0
    #: Application server: forwarding one change notification.
    app_server_notify_cost: float = 5.0e-5
    #: Fixed app-server processing latency per direction (WebSocket
    #: handling, (de)serialization off the critical CPU path).
    app_server_overhead: float = 0.0008

    def matching_service(self, queries_per_node: float) -> float:
        return self.parse_cost + self.match_cost * queries_per_node


class SimulatedInvaliDB:
    """Standalone InvaliDB deployment (benchmark client on the event layer)."""

    def __init__(
        self,
        query_partitions: int,
        write_partitions: int,
        costs: Optional[ClusterCosts] = None,
        write_ingestion_nodes: int = 4,
        seed: int = 42,
    ):
        if query_partitions < 1 or write_partitions < 1:
            raise ClusterConfigError("partitions must be >= 1")
        self.query_partitions = query_partitions
        self.write_partitions = write_partitions
        self.costs = costs if costs is not None else ClusterCosts()
        self.write_ingestion_nodes = write_ingestion_nodes
        self.seed = seed

    # -- analytic helpers ------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.query_partitions * self.write_partitions

    def matching_utilization(self, queries: int, write_rate: float) -> float:
        """Offered utilization of one matching node."""
        per_node_rate = write_rate / self.write_partitions
        service = self.costs.matching_service(queries / self.query_partitions)
        service *= self.costs.contention_factor(self.node_count)
        return per_node_rate * service

    def run(
        self,
        queries: int,
        write_rate: float,
        duration: float = 10.0,
        warmup: float = 2.0,
        max_events: int = 2_000_000,
        histogram=None,
    ) -> LatencyStats:
        """Simulate *duration* seconds of steady load; returns stats in ms.

        Configurations whose offered matching-node utilization exceeds
        130 % are reported as :data:`SATURATED` without simulating —
        their queues grow without bound by construction.  *histogram*
        (optional) additionally streams every sample into a telemetry
        registry histogram.
        """
        samples = self.run_samples(queries, write_rate, duration, warmup,
                                   max_events, histogram=histogram)
        if samples is None:
            return SATURATED
        return LatencyStats.from_samples(samples)

    def run_samples(
        self,
        queries: int,
        write_rate: float,
        duration: float = 10.0,
        warmup: float = 2.0,
        max_events: int = 2_000_000,
        histogram=None,
    ) -> Optional[List[float]]:
        """Raw notification latency samples in ms (None when saturated)."""
        if self.matching_utilization(queries, write_rate) > 1.3:
            return None
        rng = random.Random(self.seed)
        simulator = Simulator()
        recorder = LatencyRecorder(warmup_until=warmup, histogram=histogram)
        ingestion = [
            FifoServer(simulator, f"ingest-{index}")
            for index in range(self.write_ingestion_nodes)
        ]
        matching = [
            FifoServer(simulator, f"match-wp{index}")
            for index in range(self.write_partitions)
        ]
        service = self.costs.matching_service(
            queries / self.query_partitions
        ) * self.costs.contention_factor(self.node_count)
        hop = self.costs.hop
        costs = self.costs
        state = {"arrivals": 0, "ingest_rr": 0}

        def jittered(base_service: float) -> float:
            if rng.random() < costs.gc_probability:
                return base_service + costs.gc_pause
            return base_service

        def schedule_next_arrival() -> None:
            delay = rng.expovariate(write_rate)
            simulator.schedule(delay, arrive)

        def arrive() -> None:
            state["arrivals"] += 1
            sent_at = simulator.now
            if simulator.now < duration:
                schedule_next_arrival()
            # client -> event layer -> ingestion (2 hops)
            entry_delay = hop.sample(rng) + hop.sample(rng)
            simulator.schedule(entry_delay, lambda: at_ingestion(sent_at))

        def at_ingestion(sent_at: float) -> None:
            server = ingestion[state["ingest_rr"] % len(ingestion)]
            state["ingest_rr"] += 1
            done = server.offer(jittered(costs.ingest_cost))
            wp = rng.randrange(self.write_partitions)
            transfer = hop.sample(rng)
            simulator.schedule_at(done, lambda: simulator.schedule(
                transfer, lambda: at_matching(sent_at, wp)))

        def at_matching(sent_at: float, wp: int) -> None:
            done = matching[wp].offer(jittered(service))
            # matching -> event layer -> client (2 hops)
            exit_delay = hop.sample(rng) + hop.sample(rng)
            simulator.schedule_at(
                done, lambda: simulator.schedule(
                    exit_delay,
                    lambda: recorder.record(simulator.now,
                                            simulator.now - sent_at))
            )

        schedule_next_arrival()
        try:
            simulator.run(max_events=max_events)
        except SaturationError:
            return None
        return [value * 1000.0 for value in recorder.samples]


class QuaestorModel:
    """InvaliDB behind a single Quaestor application server (Section 7)."""

    def __init__(
        self,
        query_partitions: int,
        write_partitions: int,
        costs: Optional[ClusterCosts] = None,
        write_ingestion_nodes: int = 4,
        seed: int = 42,
        match_rate: float = 17.0,
    ):
        self.costs = costs if costs is not None else ClusterCosts()
        self.inner = SimulatedInvaliDB(
            query_partitions,
            write_partitions,
            self.costs,
            write_ingestion_nodes,
            seed,
        )
        self.seed = seed
        #: Change notifications per second (the paper pinned the workload
        #: to ~17 matches/s to bound messaging overhead).
        self.match_rate = match_rate

    def app_server_utilization(self, write_rate: float) -> float:
        return (
            write_rate * self.costs.app_server_write_cost
            + self.match_rate * self.costs.app_server_notify_cost
        )

    def run(
        self,
        queries: int,
        write_rate: float,
        duration: float = 10.0,
        warmup: float = 2.0,
        max_events: int = 2_000_000,
    ) -> LatencyStats:
        """Like :meth:`SimulatedInvaliDB.run`, through the app server."""
        samples = self.run_samples(queries, write_rate, duration, warmup,
                                   max_events)
        if samples is None:
            return SATURATED
        return LatencyStats.from_samples(samples)

    def run_samples(
        self,
        queries: int,
        write_rate: float,
        duration: float = 10.0,
        warmup: float = 2.0,
        max_events: int = 2_000_000,
    ) -> Optional[List[float]]:
        """Raw notification latency samples in ms (None when saturated)."""
        if self.inner.matching_utilization(queries, write_rate) > 1.3:
            return None
        if self.app_server_utilization(write_rate) > 1.3:
            return None
        costs = self.costs
        inner = self.inner
        rng = random.Random(self.seed)
        simulator = Simulator()
        recorder = LatencyRecorder(warmup_until=warmup)
        app_server = FifoServer(simulator, "app-server")
        ingestion = [
            FifoServer(simulator, f"ingest-{index}")
            for index in range(inner.write_ingestion_nodes)
        ]
        matching = [
            FifoServer(simulator, f"match-wp{index}")
            for index in range(inner.write_partitions)
        ]
        service = costs.matching_service(
            queries / inner.query_partitions
        ) * costs.contention_factor(inner.node_count)
        hop = costs.hop
        match_fraction = min(1.0, self.match_rate / write_rate)
        state = {"ingest_rr": 0}

        def jittered(base_service: float) -> float:
            if rng.random() < costs.gc_probability:
                return base_service + costs.gc_pause
            return base_service

        def schedule_next_arrival() -> None:
            simulator.schedule(rng.expovariate(write_rate), arrive)

        def arrive() -> None:
            sent_at = simulator.now
            if simulator.now < duration:
                schedule_next_arrival()
            # client -> app server (1 hop), then the app server executes
            # the write and forwards the after-image.
            simulator.schedule(hop.sample(rng), lambda: at_app_server(sent_at))

        def at_app_server(sent_at: float) -> None:
            done = app_server.offer(costs.app_server_write_cost)
            overhead = costs.app_server_overhead
            # app server -> event layer -> ingestion (2 hops)
            transfer = hop.sample(rng) + hop.sample(rng)
            simulator.schedule_at(
                done,
                lambda: simulator.schedule(
                    overhead + transfer, lambda: at_ingestion(sent_at)),
            )

        def at_ingestion(sent_at: float) -> None:
            server = ingestion[state["ingest_rr"] % len(ingestion)]
            state["ingest_rr"] += 1
            done = server.offer(jittered(costs.ingest_cost))
            wp = rng.randrange(inner.write_partitions)
            transfer = hop.sample(rng)
            simulator.schedule_at(done, lambda: simulator.schedule(
                transfer, lambda: at_matching(sent_at, wp)))

        def at_matching(sent_at: float, wp: int) -> None:
            done = matching[wp].offer(jittered(service))
            # matching -> event layer -> app server (2 hops)
            transfer = hop.sample(rng) + hop.sample(rng)
            simulator.schedule_at(done, lambda: simulator.schedule(
                transfer, lambda: notify_app_server(sent_at)))

        def notify_app_server(sent_at: float) -> None:
            # The notification shares the app server with the write path.
            # Only actually-matching writes consume server capacity (the
            # workload pins matches to ~match_rate/s); every write still
            # samples the latency a notification would experience.
            if rng.random() < match_fraction:
                done = app_server.offer(costs.app_server_notify_cost)
            else:
                done = app_server.probe(costs.app_server_notify_cost)
            overhead = costs.app_server_overhead
            final_hop = hop.sample(rng)
            simulator.schedule_at(
                done,
                lambda: simulator.schedule(
                    overhead + final_hop,
                    lambda: recorder.record(simulator.now,
                                            simulator.now - sent_at)),
            )

        schedule_next_arrival()
        try:
            simulator.run(max_events=max_events)
        except SaturationError:
            return None
        return [value * 1000.0 for value in recorder.samples]
