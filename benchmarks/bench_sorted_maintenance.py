"""Sorted-window maintenance benchmarks (Section 5.2).

Two axes:

* **Slack ablation** — the slack is InvaliDB's robustness budget for
  sorted queries: every removal spends one unit, a renewal refills it
  at the cost of one pull-based query against the database.  A sorted
  top-10 query is subjected to delete-heavy churn under different slack
  values, reporting how many renewals (database round-trips) each needs
  — the trade-off behind the paper's poll frequency rate limit and
  footnote 5's adaptive slack.

* **Window-size scaling** — per-event maintenance cost as the
  maintained window W grows from 10 to 10k (O(log W) bisect +
  positional diff; the list shifts are memmoves).  The workload is
  in-window score churn (every event relocates an existing member),
  the adversarial case for window maintenance.  The CI gate asserts
  the property itself: a 1000x larger window costs at most 6x per
  event.
"""

import random
import time

import pytest

from repro.core.filtering import MatchEvent
from repro.core.sorting import SortingNode
from repro.query.engine import Query
from repro.types import MatchType

DELETES = 400
POPULATION = 1000

WINDOW_SIZES = [10, 100, 1_000, 5_000, 10_000]


def run_workload(slack: int, delete_bias: float = 0.7, seed: int = 11):
    """Random add/delete churn against a sorted top-10 query."""
    rng = random.Random(seed)
    query = Query({}, sort=[("score", -1)], limit=10)
    node = SortingNode()
    documents = {
        index: {"_id": index, "score": rng.randrange(10**6)}
        for index in range(POPULATION)
    }
    version = {index: 1 for index in documents}
    next_key = POPULATION

    def bootstrap():
        rewritten = query.rewritten_for_subscription(slack)
        ordered = sorted(documents.values(),
                         key=query.sort.key)[: rewritten.limit]
        node.register_query(query, ordered,
                            {d["_id"]: version[d["_id"]] for d in ordered},
                            slack=slack)

    bootstrap()
    renewals = 0
    notifications = 0
    operations = 0
    while operations < DELETES:
        if rng.random() < delete_bias and documents:
            # Deletes target the top of the ranking (a hot leaderboard):
            # that is the adversarial case for window maintenance.
            ranked = sorted(documents.values(),
                            key=lambda doc: -doc["score"])[:25]
            key = rng.choice(ranked)["_id"]
            del documents[key]
            version[key] += 1
            event = MatchEvent(query.core_id, MatchType.REMOVE, key, None,
                               version[key], 0.0, True)
            operations += 1
        else:
            key = next_key
            next_key += 1
            documents[key] = {"_id": key, "score": rng.randrange(10**6)}
            version[key] = 1
            event = MatchEvent(query.core_id, MatchType.ADD, key,
                               documents[key], 1, 0.0, True)
        changes = node.handle_event(event)
        notifications += len(changes)
        if any(change.is_error for change in changes):
            renewals += 1
            bootstrap()
    return renewals, notifications


@pytest.mark.parametrize("slack", [1, 2, 5, 10, 20, 50])
def test_slack_ablation(benchmark, emit, slack):
    renewals, notifications = benchmark.pedantic(
        run_workload, args=(slack,), rounds=1, iterations=1
    )
    emit(f"slack={slack:>3}: {renewals:>4} renewals "
         f"(database re-executions), {notifications:>5} notifications "
         f"over {DELETES} deletes")
    # Sanity: a large slack needs an order of magnitude fewer renewals
    # than slack=1 does on this adversarial top-of-ranking churn.
    if slack >= 50:
        assert renewals <= DELETES // 40


def test_larger_slack_reduces_renewals(benchmark, emit):
    """The headline ablation result: renewal count decreases
    monotonically (modulo noise) as slack grows."""

    def sweep():
        return {slack: run_workload(slack)[0] for slack in (1, 5, 20, 50)}

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(f"renewals by slack: {counts}")
    assert counts[1] > counts[5] > counts[50]
    assert counts[20] >= counts[50]


# ----------------------------------------------------------------------
# Window-size scaling
# ----------------------------------------------------------------------

def _window_query(window: int) -> Query:
    return Query({}, sort=[("score", 1)], limit=window)


def _bootstrapped_node(window: int) -> SortingNode:
    """A node maintaining one full window of W members (complete
    knowledge, generous slack: the churn below never renews)."""
    query = _window_query(window)
    node = SortingNode()
    documents = [
        {"_id": key, "score": float(key)} for key in range(window)
    ]
    node.register_query(query, documents,
                        {doc["_id"]: 1 for doc in documents},
                        slack=50)
    return node


def _churn_events(window: int, events: int, seed: int = 7):
    """In-window score churn: each event moves an existing member to a
    random new rank (the all-CHANGE_INDEX worst case).  Versions
    strictly increase per key so no event is dropped as stale."""
    rng = random.Random(seed)
    core_id = _window_query(window).core_id
    versions = {}
    batch = []
    for _ in range(events):
        key = rng.randrange(window)
        versions[key] = versions.get(key, 1) + 1
        document = {"_id": key, "score": rng.random() * window}
        batch.append(MatchEvent(core_id, MatchType.CHANGE, key, document,
                                versions[key], 0.0, True))
    return batch


def _measure_per_event_seconds(window: int, events: int = 400,
                               repeats: int = 3) -> float:
    """Best-of-N wall time per event through a loaded sorting node."""
    best = float("inf")
    for _ in range(repeats):
        node = _bootstrapped_node(window)
        batch = _churn_events(window, events)
        emitted = 0
        started = time.perf_counter()
        for event in batch:
            emitted += len(node.handle_event(event))
        elapsed = time.perf_counter() - started
        assert node.renewals_requested == 0 and emitted >= events // 2
        best = min(best, elapsed)
    return best / events


def test_window_scaling_report(emit):
    """The committed scaling table: events/s by window size on all-move
    churn."""
    emit("Sorted-window maintenance scaling (per-event cost, in-window "
         "score churn)")
    emit("O(log W) bisect + positional diff per event")
    emit()
    emit(f"{'window':>7} | {'events/s':>12} | {'cost vs W=10':>12}")
    emit("-" * 38)
    base = None
    for window in WINDOW_SIZES:
        per_event = _measure_per_event_seconds(window)
        base = per_event if base is None else base
        emit(f"{window:>7} | {1 / per_event:>12,.0f} | "
             f"{per_event / base:>11.1f}x")
    emit()
    emit("per-event cost grows far slower than the window: comparisons")
    emit("are O(log W), only the list shifts are linear")


def test_window_scaling_gate():
    """CI smoke gate: per-event cost at a 10k-entry window is at most
    6x the cost at a 10-entry window (committed report: 3.7x for the
    1000x larger window).

    Runs without the pytest-benchmark fixture so it still measures
    under ``--benchmark-disable``.
    """
    small = _measure_per_event_seconds(10)
    large = _measure_per_event_seconds(10_000)
    assert large <= 6.0 * small, (
        f"per-event cost grew {large / small:.1f}x from W=10 to W=10k"
    )
