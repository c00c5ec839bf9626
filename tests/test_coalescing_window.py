"""Cross-batch notification coalescing (the shed stager's time window).

In-batch coalescing cannot elide redundancy that spans dispatch
batches.  While the overload controller sheds (health ``degraded`` or
worse), the shed stager holds unsorted-query changes for
``shed_coalescing_window`` seconds and collapses them per (query, key)
before fan-out.  Under the inline execution model the window is virtual
time — ``drain()`` fires the flush — so every test here is
deterministic.
"""

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.notifications import QueryChange
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import MatchType

from tests.conftest import Collector


@pytest.fixture
def inline_stack():
    """Shared inline substrate: broker + cluster + app, shedding on."""
    built = {}

    def build(window=0.5, health="degraded", **config_kwargs):
        model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=3))
        broker = Broker(execution=model)
        config = InvaliDBConfig(
            query_partitions=1, write_partitions=1,
            overload_control=True,
            force_health=health,
            shed_coalescing_window=window,
            **config_kwargs,
        )
        cluster = InvaliDBCluster(broker, config).start()
        app = AppServer("stager-app", broker, config=config)
        built.update(model=model, broker=broker, cluster=cluster, app=app)
        return broker, cluster, app

    yield build
    if built:
        built["app"].close()
        built["cluster"].stop()
        built["broker"].close()
        built["model"].shutdown()


class TestStagingWindow:
    def test_rapid_rewrites_collapse_to_one_add(self, inline_stack):
        broker, cluster, app = inline_stack()
        seen = Collector()
        app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
        app.insert("items", {"_id": 1, "v": 1})
        app.update("items", 1, {"$set": {"v": 2}})
        app.update("items", 1, {"$set": {"v": 3}})
        # All three changes landed inside the window: nothing delivered
        # until the (virtual-time) flush fires.
        assert seen == []
        assert broker.drain()
        assert [n.match_type for n in seen] == [MatchType.ADD]
        assert seen[0].document["v"] == 3
        assert cluster.overload.notifications_shed >= 2

    def test_add_then_remove_nets_to_nothing(self, inline_stack):
        broker, cluster, app = inline_stack()
        seen = Collector()
        sub = app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
        app.insert("items", {"_id": 1, "v": 1})
        app.delete("items", 1)
        assert broker.drain()
        # The client never knew the key: the pair is elided entirely.
        assert seen == []
        assert sub.result() == []

    def test_known_key_update_flushes_as_change(self, inline_stack):
        broker, cluster, app = inline_stack()
        seen = Collector()
        app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
        app.insert("items", {"_id": 1, "v": 1})
        assert broker.drain()  # the ADD flushes; key now known
        app.update("items", 1, {"$set": {"v": 5}})
        app.update("items", 1, {"$set": {"v": 9}})
        assert broker.drain()
        types = [n.match_type for n in seen]
        assert types == [MatchType.ADD, MatchType.CHANGE]
        assert seen[-1].document["v"] == 9

    def test_sorted_changes_bypass_staging(self, inline_stack):
        broker, cluster, app = inline_stack()
        sub = app.subscribe("items", {"v": {"$gte": 0}},
                            sort=[("v", 1)], limit=5)
        app.insert("items", {"_id": 1, "v": 1})
        assert broker.drain()
        # Sorted windows never enter the stager (shedding replaces
        # their diffs with snapshot refreshes instead) ...
        stager = cluster.overload.shed_stager
        assert stager.stats()["staged_total"] == 0
        assert [d["_id"] for d in sub.result()] == [1]
        # ... and a positional change offered directly is refused:
        # it must reach the client unmerged and in order.
        positional = QueryChange("q", MatchType.ADD, 1, {"_id": 1}, index=0)
        assert stager.offer(positional, None) is False
        assert stager.offer(positional._replace(index=None), None) is True

    def test_stop_flushes_pending_changes(self, inline_stack):
        broker, cluster, app = inline_stack()
        seen = Collector()
        app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
        app.insert("items", {"_id": 7, "v": 7})
        assert seen == []
        cluster.stop()
        assert [n.match_type for n in seen] == [MatchType.ADD]

    def test_snapshot_reports_stager_stats(self, inline_stack):
        broker, cluster, app = inline_stack()
        app.subscribe("items", {"v": {"$gte": 0}})
        app.insert("items", {"_id": 1, "v": 1})
        stats = cluster.snapshot()["health"]["shed_coalescing"]
        assert stats["pending"] == 1
        assert broker.drain()
        stats = cluster.snapshot()["health"]["shed_coalescing"]
        assert stats["pending"] == 0
        assert stats["flushes"] >= 1
        assert stats["window_seconds"] == 0.5
        assert "coalescing" not in cluster.snapshot()

    def test_healthy_cluster_does_not_stage(self, inline_stack):
        broker, cluster, app = inline_stack(health="healthy")
        seen = Collector()
        app.subscribe("items", {"v": {"$gte": 0}}, on_change=seen)
        app.insert("items", {"_id": 1, "v": 1})
        assert len(seen) == 1
        stats = cluster.snapshot()["health"]["shed_coalescing"]
        assert stats["staged_total"] == 0

    def test_negative_window_rejected(self):
        from repro.errors import ClusterConfigError

        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(shed_coalescing_window=-0.1)
