"""Multi-page moves under threads converge to the pull query.

The shape the benchmark harness steps around (``SORTED_STEP``): one
room, ten ``sort score desc, limit 10, offset 10·page`` subscriptions
over ~120 documents, and score steps of ±0.1 — with scores uniform in
[0, 1) one step moves a document across several pages, through the
offset region of some windows and the slack of others — plus
delete + re-insert, which erodes slack until windows renew.  Under the
threaded model a renewal spans several concurrent writes; after the
pipeline drains, every page must equal the pull query *as an ordered
list*.
"""

import random

import pytest

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker

from tests.conftest import settle

PAGES = 10
PAGE_SIZE = 10
DOCUMENTS = 120
WRITES = 600
SORT = [("score", -1)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_every_page_equals_the_pull_query_after_multi_page_moves(seed):
    rng = random.Random(seed)
    broker = Broker()
    # Renewals unthrottled: a rate-limited one would sit on a wall-clock
    # timer past drain() and the page would be compared mid-renewal.
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            renewal_min_interval=0.0)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("pages-app", broker, config=config)
    try:
        for key in range(DOCUMENTS):
            app.insert("rooms", {"_id": key, "room": 0,
                                 "score": rng.random()})
        pages = [
            app.subscribe("rooms", {"room": 0}, sort=SORT, limit=PAGE_SIZE,
                          offset=PAGE_SIZE * page)
            for page in range(PAGES)
        ]
        settle(cluster, broker)
        for _ in range(WRITES):
            key = rng.randrange(DOCUMENTS)
            if rng.random() < 0.85:
                app.update("rooms", key,
                           {"$inc": {"score": rng.uniform(-0.1, 0.1)}})
            else:
                app.delete("rooms", key)
                app.insert("rooms", {"_id": key, "room": 0,
                                     "score": rng.random()})
        # Renewals are client-driven round trips: drain until quiet.
        settle(cluster, broker, rounds=6)
        for page, subscription in enumerate(pages):
            expected = app.find("rooms", {"room": 0}, sort=SORT,
                                skip=PAGE_SIZE * page, limit=PAGE_SIZE)
            assert subscription.result() == expected, f"page {page}"
        renewals = sum(
            node["renewals_requested"]
            for node in cluster.snapshot()["sorting"]
        )
        assert renewals > 0, "the stream must exercise the renewal path"
    finally:
        app.close()
        cluster.stop()
        broker.close()
