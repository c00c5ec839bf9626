"""Multi-page moves under threads converge to the pull query.

The shape the benchmark harness steps around (``SORTED_STEP``): one
room, ten ``sort score desc, limit 10, offset 10·page`` subscriptions
over ~120 documents, and score steps of ±0.1 — with scores uniform in
[0, 1) one step moves a document across several pages, through the
offset region of some windows and the slack of others — plus
delete + re-insert, which erodes slack until windows renew.  Under the
threaded model a renewal spans several concurrent writes; after the
pipeline drains, every page must equal the pull query *as an ordered
list*.  Whether the stream alone exhausts a slack depends on thread
timing, so the threaded test then deletes one document more than the
deepest page's slack: that page must renew.
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


def force_renewal(cluster, broker, app, deepest):
    """Delete one document more than *deepest*'s current slack from the
    bottom of the ranked pages, settle, then re-insert them: the sort
    core cannot refill the page and must have it renewed."""
    [page] = [
        page for (role, _), cell in cluster._cells.items()
        if role == "sorting"
        for page in [cell.node.state_of(deepest.query.query_id)]
        if page is not None
    ]
    if page.core.complete:
        # A core that holds every document got there by renewing.
        return
    ranked = app.find("rooms", {"room": 0}, sort=SORT,
                      limit=PAGE_SIZE * PAGES)
    doomed = ranked[-(page.core.current_slack() + 1):]
    for document in doomed:
        app.delete("rooms", document["_id"])
    settle(cluster, broker, rounds=6)
    for document in doomed:
        app.insert("rooms", document)
    settle(cluster, broker, rounds=6)


def run_pages(seed, renew=False, **config):
    """One seeded run of the shape; returns the cluster's snapshot after
    every page was checked against the pull query.  ``renew`` forces a
    renewal of the deepest page once the stream settled (local cells
    only: it reads the page's slack)."""
    rng = random.Random(seed)
    broker = Broker()
    # Renewals unthrottled: a rate-limited one would sit on a wall-clock
    # timer past drain() and the page would be compared mid-renewal.
    config = InvaliDBConfig(query_partitions=2, write_partitions=2,
                            renewal_min_interval=0.0, **config)
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
        if renew:
            force_renewal(cluster, broker, app, pages[-1])
        for page, subscription in enumerate(pages):
            expected = app.find("rooms", {"room": 0}, sort=SORT,
                                skip=PAGE_SIZE * page, limit=PAGE_SIZE)
            assert subscription.result() == expected, f"page {page}"
        return cluster.snapshot()
    finally:
        app.close()
        cluster.stop()
        broker.close()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_every_page_equals_the_pull_query_after_multi_page_moves(seed):
    sorting = run_pages(seed, renew=True)["sorting"]
    # The ten pages are slices of one sort core on one sorting task.
    assert sum(row["cores"] for row in sorting) == 1
    assert sum(row["pages"] for row in sorting) == PAGES
    renewals = sum(row["renewals_requested"] for row in sorting)
    assert renewals > 0, "the stream must exercise the renewal path"


@pytest.mark.parametrize("seed", [1, 2])
def test_pages_converge_with_the_sorting_cell_in_a_worker(seed):
    """The same run with the grid's cells in one forked worker: the sort
    core, its pages and their renewals live across the process hop."""
    sorting = run_pages(seed, execution_model="process",
                        process_workers=1)["sorting"]
    assert sum(row["pages"] for row in sorting) == PAGES
