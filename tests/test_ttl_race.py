"""Regression tests: the TTL-extension / expiry-sweep race.

``_extend_ttl`` used to look the registration up under the registry
lock but call ``extend()`` after releasing it.  ``sweep_expired``
could expire-and-deactivate the query in that gap — cancel injected to
the grid, registration dropped — while the late ``extend()`` reported
success on an orphaned registration: the app server believed the query
was alive, the grid had already forgotten it.  Both operations now
hold the registry lock across their read-check-mutate sequence, making
every interleaving equivalent to "extend first" or "sweep first".
"""

import threading

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel


class ManualClock:
    def __init__(self, start: float = 1000.0):
        self.now = start
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds

    def __call__(self) -> float:
        with self._lock:
            return self.now


def make_cluster(clock, ttl):
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=1))
    broker = Broker(execution=model)
    config = InvaliDBConfig(
        clock=clock, subscription_ttl=ttl,
        # Sweeps only happen when the test asks for them.
        heartbeat_interval=3600.0, heartbeat_timeout=7200.0,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("ttl-app", broker, config=config)
    return cluster, broker, app, model


def registry_is_consistent(cluster) -> bool:
    """Every registration in the table still has a subscriber: a swept
    query never lingers, and a late extend never revives one."""
    with cluster._registration_lock:
        return all(registration.active
                   for registration in cluster._registrations.values())


class TestTtlSweepAtomicity:
    def test_extend_after_sweep_does_not_resurrect(self):
        clock = ManualClock()
        cluster, broker, app, model = make_cluster(clock, ttl=10.0)
        try:
            subscription = app.subscribe("items", {"v": 1})
            assert broker.drain()
            (query_id,) = cluster.active_query_ids()
            clock.advance(11.0)
            assert cluster.sweep_expired() == [query_id]
            assert broker.drain()
            # A TTL wire arriving after the sweep must be a no-op: the
            # registration is gone and stays gone.
            cluster._extend_ttl(
                {"kind": "ttl", "query_id": query_id,
                 "app_server": app.client.app_server_id}
            )
            assert cluster.active_query_ids() == []
            assert registry_is_consistent(cluster)
            assert subscription is not None
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_extend_before_sweep_keeps_query_alive(self):
        clock = ManualClock()
        cluster, broker, app, model = make_cluster(clock, ttl=10.0)
        try:
            app.subscribe("items", {"v": 1})
            assert broker.drain()
            (query_id,) = cluster.active_query_ids()
            clock.advance(9.0)
            cluster._extend_ttl(
                {"kind": "ttl", "query_id": query_id,
                 "app_server": app.client.app_server_id}
            )
            clock.advance(9.0)  # past the original deadline only
            assert cluster.sweep_expired() == []
            assert cluster.active_query_ids() == [query_id]
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_concurrent_extend_and_sweep_stay_consistent(self):
        """Hammer extends against sweeps right at the expiry boundary.

        Whatever interleaving wins each round, the registry must hold
        only live registrations, and a deactivated query must never
        reappear without a fresh subscribe.
        """
        clock = ManualClock()
        cluster, broker, app, model = make_cluster(clock, ttl=1.0)
        try:
            app.subscribe("items", {"v": 1})
            assert broker.drain()
            (query_id,) = cluster.active_query_ids()
            wire = {"kind": "ttl", "query_id": query_id,
                    "app_server": app.client.app_server_id}
            stop = threading.Event()
            inconsistencies = []

            def extender():
                while not stop.is_set():
                    cluster._extend_ttl(wire)
                    if not registry_is_consistent(cluster):
                        inconsistencies.append("extend")

            threads = [threading.Thread(target=extender) for _ in range(4)]
            for thread in threads:
                thread.start()
            deactivated = []
            for _ in range(200):
                # Sit exactly on the boundary: an extend that lands
                # before the sweep saves the query, one that lands
                # after must be a no-op.
                clock.advance(1.001)
                swept = cluster.sweep_expired()
                if not registry_is_consistent(cluster):
                    inconsistencies.append("sweep")
                if swept:
                    deactivated.extend(swept)
                    break
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            assert not inconsistencies
            if deactivated:
                # Once swept, the late extends must not have
                # resurrected the registration.
                assert cluster.active_query_ids() == []
                assert registry_is_consistent(cluster)
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()
