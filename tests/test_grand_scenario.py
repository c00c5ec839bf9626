"""One grand integration scenario exercising everything at once.

A 3x3 grid serving two app servers, three collections, unsorted and
sorted subscriptions (several handles sharing one query id) and a query
cache — under interleaved churn — finishing with a global consistency
audit of every maintained artifact against fresh pull-based queries.
"""

import random
import time

from repro.cache.query_cache import InvalidatingQueryCache
from repro.store.database import Database

from tests.conftest import settle


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_grand_scenario(broker, cluster_factory, app_server_factory):
    cluster = cluster_factory(3, 3)
    shared_db = Database()
    app_a = app_server_factory("grand-a", database=shared_db)
    app_b = app_server_factory("grand-b", database=shared_db)

    # --- artifacts under test -------------------------------------------
    open_orders_a = app_a.subscribe("orders", {"status": "open"})
    top_products = app_a.subscribe(
        "products", {"stock": {"$gt": 0}},
        sort=[("price", -1)], limit=5,
    )
    open_orders_b = app_b.subscribe("orders", {"status": "open"})
    # Second and third handles on open_orders_a's query id.
    open_orders_a2 = app_a.subscribe("orders", {"status": "open"})
    open_orders_a3 = app_a.subscribe("orders", {"status": "open"})
    active_customers_a = app_a.subscribe("customers", {"active": True})
    cache = InvalidatingQueryCache(app_b)

    # --- churn ------------------------------------------------------------
    rng = random.Random(4711)
    order_keys, product_keys, customer_keys = set(), set(), set()
    for step in range(300):
        app = app_a if rng.random() < 0.5 else app_b
        dice = rng.random()
        if dice < 0.4:
            key = f"order-{step}"
            app.insert("orders", {
                "_id": key, "status": rng.choice(["open", "closed"]),
                "total": rng.randrange(10, 500),
                "customer_id": f"cust-{rng.randrange(8)}",
            })
            order_keys.add(key)
        elif dice < 0.55 and order_keys:
            key = rng.choice(sorted(order_keys))
            app.update("orders", key,
                       {"$set": {"status": rng.choice(["open", "closed"])}})
        elif dice < 0.7:
            key = f"prod-{rng.randrange(30)}"
            app.save("products", {
                "_id": key, "price": rng.randrange(1, 1000),
                "stock": rng.randrange(0, 5),
            })
            product_keys.add(key)
        elif dice < 0.85:
            key = f"cust-{rng.randrange(8)}"
            app.save("customers", {
                "_id": key, "active": rng.random() < 0.7,
            })
            customer_keys.add(key)
        else:
            cache.find("orders", {"status": "open"})
        if step % 50 == 49:
            settle(cluster, broker)

    settle(cluster, broker, rounds=6)

    # --- global audit ------------------------------------------------------
    open_now = {d["_id"] for d in shared_db["orders"].find(
        {"status": "open"})}
    for name, handle in (("app A", open_orders_a), ("app B", open_orders_b),
                         ("app A's second", open_orders_a2),
                         ("app A's third", open_orders_a3)):
        assert wait_for(
            lambda: {d["_id"] for d in handle.result()} == open_now
        ), f"{name} unsorted subscription diverged"

    expected_top = shared_db["products"].find(
        {"stock": {"$gt": 0}}, sort=[("price", -1)], limit=5
    )
    assert wait_for(
        lambda: [d["_id"] for d in top_products.result()]
        == [d["_id"] for d in expected_top]
    ), "sorted top-products subscription diverged"

    active_now = {d["_id"] for d in shared_db["customers"].find(
        {"active": True})}
    assert wait_for(
        lambda: {d["_id"] for d in active_customers_a.result()} == active_now
    ), "customers subscription diverged"

    cached = cache.find("orders", {"status": "open"})
    assert {d["_id"] for d in cached} == open_now, "cache served stale data"

    for handle in (open_orders_a2, open_orders_a3, active_customers_a):
        app_a.unsubscribe(handle)
    cache.close()
