#!/usr/bin/env python3
"""Sorted real-time queries: a live leaderboard (top-k with offset).

The paper's flagship feature beyond other real-time databases is
*sorted* real-time queries with limit AND offset (Table 2).  This
example maintains page 2 of a game leaderboard — players ranked 4-6 —
entirely by push notifications, including `changeIndex` events when a
player overtakes another, and demonstrates the self-healing query
renewal when many deletions exhaust the maintained slack.

Run:  python examples/leaderboard.py
"""

import time

from repro import AppServer, InvaliDBCluster, InvaliDBConfig
from repro.event import Broker


def show(label, subscription):
    rows = ", ".join(
        f"{doc['_id']}:{doc['score']}" for doc in subscription.result()
    )
    print(f"{label:<36} [{rows}]")


def main() -> None:
    broker = Broker()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            default_slack=2, renewal_min_interval=0.0)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("game-server", broker, config=config)

    players = {
        "ada": 920, "bob": 870, "cyd": 850, "dan": 800,
        "eve": 760, "fox": 740, "gil": 700, "hal": 650,
    }
    for name, score in players.items():
        app.insert("scores", {"_id": name, "score": score})
    time.sleep(0.3)

    # Page 2 of the leaderboard: ranks 4-6 (offset 3, limit 3).
    subscription = app.subscribe(
        "scores", {}, sort=[("score", -1)], limit=3, offset=3,
        on_change=lambda n: print(
            f"    event: {n.match_type.value} {n.key} "
            f"(index {n.old_index} -> {n.index})"
        ),
    )
    show("Initial ranks 4-6:", subscription)

    print("\n'gil' scores 810 points and climbs into page 2 ...")
    app.update("scores", "gil", {"$set": {"score": 810}})
    time.sleep(0.4)
    show("After gil's climb:", subscription)

    print("\n'ada' (rank 1) is banned — everyone shifts up one rank ...")
    app.delete("scores", "ada")
    time.sleep(0.4)
    show("After the ban:", subscription)

    print("\nMass deletions exhaust the slack -> query renewal kicks in ...")
    for name in ("bob", "cyd", "dan"):
        app.delete("scores", name)
    time.sleep(1.0)
    show("After self-healing renewal:", subscription)
    renewals = len(subscription.errors)
    print(f"(maintenance errors handled: {renewals})")

    expected = app.find("scores", {}, sort=[("score", -1)], skip=3, limit=3)
    assert [d["_id"] for d in subscription.result()] == [
        d["_id"] for d in expected
    ], "leaderboard page must match the pull-based query"

    app.close()
    cluster.stop()
    broker.close()
    print("\nOK — page 2 stayed consistent through overtakes, bans and renewal.")


if __name__ == "__main__":
    main()
