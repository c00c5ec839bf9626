"""Benchmarks for the §8.1 extension features.

* aggregation stage: cost of one match event against a live aggregate
  view, and full-pipeline throughput filtering -> aggregation.
"""

import random

from repro.core.aggregation import AggregateSpec, AggregationNode
from repro.core.filtering import FilteringNode, MatchEvent
from repro.core.partitioning import NodeCoordinates
from repro.core.stages import pipe
from repro.query.engine import Query
from repro.types import AfterImage, MatchType, WriteKind

QUERY = Query({"category": "bikes"})
SPECS = (
    AggregateSpec("count"),
    AggregateSpec("sum", "price"),
    AggregateSpec("avg", "price"),
    AggregateSpec("min", "price"),
    AggregateSpec("max", "price"),
)


def test_aggregation_event_cost(benchmark):
    """Steady-state cost of one change event on a 1 000-member result."""
    node = AggregationNode()
    rng = random.Random(5)
    bootstrap = [
        {"_id": index, "category": "bikes", "price": rng.randrange(1000)}
        for index in range(1000)
    ]
    node.register_query(QUERY, bootstrap, {}, aggregates=SPECS)
    state = {"version": 1}

    def one_change():
        state["version"] += 1
        event = MatchEvent(
            QUERY.query_id, MatchType.CHANGE, 500,
            {"_id": 500, "category": "bikes",
             "price": state["version"] % 1000},
            state["version"], 0.0, False,
        )
        return node.handle_event(event)

    benchmark(one_change)


def test_filtering_to_aggregation_pipeline_throughput(benchmark):
    """1 000 writes through filtering -> aggregation, end to end."""
    rng = random.Random(7)

    def run_pipeline():
        filtering = FilteringNode(NodeCoordinates(0, 0))
        aggregation = AggregationNode()
        filtering.register_query(QUERY, [], {}, now=0.0)
        aggregation.register_query(QUERY, [], {}, aggregates=SPECS)
        changes = 0
        for index in range(1000):
            doc = {"_id": index % 100,
                   "category": rng.choice(["bikes", "boards"]),
                   "price": rng.randrange(1000)}
            after = AfterImage(index % 100, index + 1, WriteKind.UPDATE, doc)
            changes += len(
                pipe(aggregation, filtering.process_write(after, now=0.0))
            )
        return changes

    changes = benchmark.pedantic(run_pipeline, rounds=3, iterations=1)
    assert changes > 0

