"""Tests for shared value types and cluster configuration."""

from dataclasses import fields, replace

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.remote import MatchingCellSpec
from repro.core.sorting import SortingNode
from repro.errors import ClusterConfigError
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.types import (
    AfterImage,
    ChangeNotification,
    IdGenerator,
    MatchType,
    WriteKind,
    require_key,
)


class TestAfterImage:
    def test_delete_must_not_carry_document(self):
        with pytest.raises(ValueError):
            AfterImage(1, 1, WriteKind.DELETE, {"_id": 1})

    def test_insert_requires_document(self):
        with pytest.raises(ValueError):
            AfterImage(1, 1, WriteKind.INSERT, None)

    def test_is_delete(self):
        assert AfterImage(1, 1, WriteKind.DELETE, None).is_delete
        assert not AfterImage(1, 1, WriteKind.INSERT, {"_id": 1}).is_delete


class TestChangeNotification:
    def test_error_flag(self):
        error = ChangeNotification("s", "q", MatchType.ERROR, error="boom")
        assert error.is_error
        regular = ChangeNotification("s", "q", MatchType.ADD, key=1)
        assert not regular.is_error

    def test_match_type_values_match_paper(self):
        assert MatchType.ADD.value == "add"
        assert MatchType.CHANGE.value == "change"
        assert MatchType.CHANGE_INDEX.value == "changeIndex"
        assert MatchType.REMOVE.value == "remove"


class TestIdGenerator:
    def test_unique_and_ordered(self):
        generator = IdGenerator("sub")
        first, second = generator.next(), generator.next()
        assert first != second
        assert first == "sub-1" and second == "sub-2"

    def test_thread_safety(self):
        import threading

        generator = IdGenerator("x")
        seen = []
        lock = threading.Lock()

        def grab():
            for _ in range(200):
                value = generator.next()
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == len(set(seen)) == 800

    def test_require_key(self):
        assert require_key({"_id": 7}) == 7
        with pytest.raises(KeyError):
            require_key({})


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = InvaliDBConfig()
        assert config.matching_node_count == 1

    def test_matching_node_count(self):
        config = InvaliDBConfig(query_partitions=3, write_partitions=4)
        assert config.matching_node_count == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query_partitions": 0},
            {"write_partitions": 0},
            {"sorting_nodes": 0},
            {"crash_error_threshold": -1},
            {"retention_seconds": -1},
            {"default_slack": 0},
            {"renewal_slack_factor": 0.5},
            {"heartbeat_interval": 2.0, "heartbeat_timeout": 1.0},
            {"subscription_ttl": 0},
            {"ttl_extension_interval": 0},
            {"renewal_min_interval": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(**kwargs)

    @pytest.mark.parametrize("model", ["inline", "threaded", "process"])
    def test_replace_keeps_an_execution_model_shorthand(self, model):
        """Regression: the synthesized ExecutionConfig used to be stored
        in ``execution``, so ``replace`` tripped the either/or check."""
        config = replace(
            InvaliDBConfig(execution_model=model), query_partitions=2
        )
        assert config.query_partitions == 2
        assert config.execution_config().mode == model

    def test_execution_and_execution_model_still_conflict(self):
        with pytest.raises(ClusterConfigError, match="not both"):
            InvaliDBConfig(execution=ExecutionConfig(mode="inline"),
                           execution_model="inline")
        with pytest.raises(ClusterConfigError):
            InvaliDBConfig(execution_model="fibers")

    def test_removed_matching_gates_are_not_options(self):
        assert len(fields(InvaliDBConfig)) == 20
        for gate in ("shared_predicate_memo", "shared_query_dag",
                     "incremental_sorting"):
            with pytest.raises(TypeError):
                InvaliDBConfig(**{gate: True})

    @pytest.mark.parametrize("name,value", [
        ("query_index", False),
        ("spatial_index", False),
        ("text_index", False),
        ("spatial_grid_cells", 16),
        ("coalescing_window_seconds", 0.5),
    ])
    def test_removed_index_and_window_knobs_are_not_options(self, name,
                                                            value):
        """The index only prunes, so its gates never changed a result;
        there is no cross-batch coalescing window."""
        with pytest.raises(TypeError):
            InvaliDBConfig(**{name: value})
        assert len(fields(MatchingCellSpec)) == 6
        assert name not in {f.name for f in fields(MatchingCellSpec)}

    @pytest.mark.parametrize("name", ["write_ingestion_nodes",
                                      "query_ingestion_nodes"])
    def test_removed_ingestion_counts_are_not_options(self, name):
        """The event layer pushes and its delivery callback routes, so
        there are no ingestion tasks to count."""
        with pytest.raises(TypeError):
            InvaliDBConfig(**{name: 1})

    @pytest.mark.parametrize("name", [
        "overload_control",
        "admission_initial_rate", "admission_min_rate", "admission_max_rate",
        "admission_increase", "admission_decrease", "admission_burst",
        "admission_decrease_cooldown", "admission_max_resubmits",
        "deadline_budget_seconds", "shedding", "shed_coalescing_window",
        "refresh_interval_seconds",
        "overload_queue_depth", "overload_dwell_p99", "degraded_fraction",
        "health_eval_interval", "health_recovery_ticks",
        "force_health", "slo_health_feed",
    ])
    def test_removed_overload_knobs_are_not_options(self, name):
        """The cluster does not shed load: it scales by partitions and
        recovers through heartbeats, renewals and resync."""
        with pytest.raises(TypeError):
            InvaliDBConfig(**{name: 1})

    def test_removed_sorting_paths_are_not_options(self):
        """The sorting stage has one window-maintenance path; nothing
        selects another, at the config or at the node."""
        for gate in ("shared_sorted_windows", "adaptive_slack"):
            with pytest.raises(TypeError):
                InvaliDBConfig(**{gate: False})
        with pytest.raises(TypeError):
            SortingNode(incremental=True)

    @pytest.mark.parametrize("name", [
        "supervision", "supervisor_backoff_factor", "supervisor_backoff_max",
        "supervisor_max_restarts", "publish_backoff_jitter", "slo_objective",
        "flight_recorder_capacity", "client_retry", "wire_codec",
        # The client's retry/breaker path: a failed publish raises and
        # is repaired by a resync (DESIGN §8).
        "publish_max_retries", "publish_backoff_base", "publish_backoff_max",
        "publish_timeout", "circuit_breaker_threshold",
        "circuit_breaker_reset", "client_rng_seed",
        # The SLO target is a constant of repro.obs.slo.
        "slo_latency_target",
    ])
    def test_fields_no_caller_set_are_not_options(self, name):
        with pytest.raises(TypeError):
            InvaliDBConfig(**{name: 1})

    @pytest.mark.parametrize("name", [
        "queue_capacity", "backpressure", "shutdown_timeout",
    ])
    def test_removed_queue_bounds_are_not_options(self, name):
        """A mailbox is an unbounded FIFO: memory is bounded by
        partitioning, as in the paper, not by shedding or blocking."""
        with pytest.raises(TypeError):
            ExecutionConfig(**{name: 1})

    def test_substrate_hooks_no_caller_used_are_gone(self):
        assert len(fields(ExecutionConfig)) == 5
        with pytest.raises(TypeError):
            ExecutionConfig(wire_codec="binary")
        broker = Broker(execution=InlineExecutionModel())
        try:
            with pytest.raises(TypeError):
                InvaliDBCluster(broker, execution=broker.execution)
        finally:
            broker.close()
