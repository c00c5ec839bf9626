"""A delivered change is transient at the app server.

Like the paper's app server, which forwards each change and keeps only
the query ID -> subscription mapping (Section 5.1), a handle keeps its
query's result — not the changes that built it — and the client keeps
running numbers, not per-subscribe samples.
"""

import pytest

from repro.baselines.log_tailing import LogTailingProvider
from repro.baselines.poll_and_diff import PollAndDiffProvider
from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.notifications import bind_to_subscription
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.store.collection import Collection
from repro.types import ChangeNotification, MatchType

from tests.conftest import Collector

KEYS = 10
CHANGES = 5000
FILTER = {"v": {"$gte": 0}}


@pytest.fixture
def inline_app():
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=1))
    broker = Broker(execution=model)
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("app-1", broker, config=config)
    yield broker, app
    app.close()
    cluster.stop()
    broker.close()
    model.shutdown()


def oversized(owner, limit, kinds=(list, dict, set), besides=None):
    """Attributes of *owner* of one of *kinds* holding over *limit*
    entries, by name; the object *besides* (the test's own collector)
    is not counted."""
    return {
        name: len(value) for name, value in vars(owner).items()
        if isinstance(value, kinds) and len(value) > limit
        and value is not besides
    }


class TestHandleRetention:
    def test_a_handle_keeps_its_result_not_its_history(self, inline_app):
        broker, app = inline_app
        seen = Collector()
        handle = app.subscribe("items", FILTER, on_change=seen)
        for key in range(KEYS):
            app.insert("items", {"_id": key, "v": 0})
        assert broker.drain()
        # One update per key per dispatch batch: nothing coalesces.
        for step in range(1, CHANGES // KEYS):
            for key in range(KEYS):
                app.update("items", key, {"$set": {"v": step}})
            assert broker.drain()
        assert handle.change_count == CHANGES == len(seen)
        assert not hasattr(handle, "notifications")
        assert oversized(handle, KEYS, besides=seen) == {}
        assert handle.result() == app.find("items", FILTER)

    @pytest.mark.parametrize("provider_type",
                             [PollAndDiffProvider, LogTailingProvider])
    def test_baseline_handles_keep_no_history(self, provider_type):
        collection = Collection("items")
        provider = provider_type(collection)
        seen = Collector()
        handle = provider.subscribe(FILTER, on_change=seen)
        for step in range(20):
            for key in range(KEYS):
                if step:
                    collection.update(key, {"$set": {"v": step}})
                else:
                    collection.insert({"_id": key, "v": step})
            if provider_type is PollAndDiffProvider:
                provider.poll_all()
        provider.close()
        assert handle.change_count == 20 * KEYS == len(seen)
        assert not hasattr(handle, "notifications")
        assert oversized(handle, KEYS, besides=seen) == {}

    def test_subscribe_churn_leaves_no_list_behind(self, inline_app):
        broker, app = inline_app
        client = app.client
        for round_ in range(200):
            handle = app.subscribe("items", {"v": {"$gte": round_ % 7}})
            assert broker.drain()
            app.unsubscribe(handle)
            assert broker.drain()
        assert client.subscription_count == 0
        assert oversized(client, client.subscription_count, (list,)) == {}
        stats = client.bootstrap_latency_stats()
        assert stats["count"] == 200
        assert 0.0 <= stats["average"] <= stats["maximum"]


class TestNotificationBuilder:
    def test_defaults_match_the_public_constructor(self):
        built = bind_to_subscription("sub-1", "q-1", MatchType.ERROR,
                                     error="heartbeat timeout")
        public = ChangeNotification("sub-1", "q-1", MatchType.ERROR,
                                    error="heartbeat timeout")
        assert tuple(built) == tuple(public)
