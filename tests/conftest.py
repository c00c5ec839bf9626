"""Shared fixtures for the InvaliDB reproduction test suite."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.store.collection import Collection


class FakeClock:
    """A controllable time source for deterministic tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


class Collector(list):
    """An ``on_change`` callback keeping every change it is given, in
    order: a handle keeps its query's result, not its history, so a test
    that reads the history collects it."""

    def __call__(self, notification) -> None:
        self.append(notification)


def worker_leftovers() -> list:
    """Worker processes and channel reader threads still running."""
    return [
        child.name for child in multiprocessing.active_children()
        if child.name.startswith("invalidb-worker-")
    ] + [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("worker-")
        and thread.name.endswith("-reader")
    ]


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Every test shuts down the worker pools it starts: no forked
    worker and no channel reader outlives the test that made it.  A
    leak is fixed in the leaking test's teardown, not here."""
    yield
    deadline = time.monotonic() + 1.0
    while worker_leftovers() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert worker_leftovers() == []


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def collection(clock: FakeClock) -> Collection:
    return Collection("test", clock=clock)


@pytest.fixture
def broker():
    broker = Broker()
    yield broker
    broker.close()


@pytest.fixture
def cluster_factory(broker):
    """Build started clusters that are stopped on teardown."""
    clusters = []

    def build(query_partitions: int = 2, write_partitions: int = 2,
              **config_kwargs) -> InvaliDBCluster:
        config = InvaliDBConfig(
            query_partitions=query_partitions,
            write_partitions=write_partitions,
            **config_kwargs,
        )
        cluster = InvaliDBCluster(broker, config).start()
        clusters.append(cluster)
        return cluster

    yield build
    for cluster in clusters:
        cluster.stop()


@pytest.fixture
def app_server_factory(broker):
    """Build app servers that are closed on teardown."""
    servers = []

    def build(server_id: str = "app-1", **kwargs) -> AppServer:
        server = AppServer(server_id, broker, **kwargs)
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.close()


def settle(cluster: InvaliDBCluster, broker: Broker, rounds: int = 3,
           timeout: float = 5.0) -> None:
    """Wait until messages stopped flowing through broker and grid.

    One drain is not enough because deliveries can enqueue follow-up
    messages (broker -> matching -> broker); alternating a
    few rounds reaches quiescence for test-sized workloads.
    """
    for _ in range(rounds):
        broker.drain(timeout)
        cluster.drain(timeout)
