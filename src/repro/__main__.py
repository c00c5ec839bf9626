"""Command-line entry points: ``python -m repro [inspect]``.

Without arguments, runs the self-contained demo: boots a 2x2 InvaliDB
cluster, subscribes to a sorted real-time query, streams a few writes,
and prints the notifications — a 5-second tour of what the library
does.

``python -m repro inspect`` boots a telemetry-enabled cluster on the
deterministic inline execution model, pushes a synthetic workload
through it, and renders the live cluster inspector: matching-grid
occupancy, mailbox queue health, write-path latency percentiles and
fault/recovery counters.  ``--execution process`` runs the same
workload with the grid in forked worker processes — span latencies
then show calibrated wall-clock time instead of inline virtual time.
``--json`` and ``--prometheus`` dump the same snapshot in
machine-readable form; ``--slow`` prints the slow-event log;
``--postmortem <dump>`` renders a crash flight-recorder dump offline
without booting a cluster.
"""

from __future__ import annotations

import argparse
import time

from repro import AppServer, InvaliDBCluster, InvaliDBConfig
from repro.event import Broker


def demo() -> int:
    print("InvaliDB reproduction — self demo (python -m repro)\n")
    broker = Broker()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("demo", broker, config=config)

    subscription = app.subscribe(
        "articles", {"year": {"$gte": 2017}}, sort=[("year", -1)], limit=3,
        on_change=lambda n: print(
            f"  notification: {n.match_type.value:11s} "
            f"_id={n.key} index={n.index} {n.document}"
        ),
    )
    print("subscribed: articles WHERE year >= 2017 ORDER BY year DESC LIMIT 3")
    print(f"initial result: {subscription.initial.documents}\n")

    writes = [
        ("insert", {"_id": 1, "title": "DB Fun", "year": 2018}),
        ("insert", {"_id": 2, "title": "No SQL!", "year": 2019}),
        ("insert", {"_id": 3, "title": "Old", "year": 2001}),
        ("insert", {"_id": 4, "title": "BaaS", "year": 2017}),
        ("insert", {"_id": 5, "title": "Streams", "year": 2020}),
        ("update", (1, {"$set": {"year": 2021}})),
        ("delete", 5),
    ]
    for kind, payload in writes:
        if kind == "insert":
            print(f"insert {payload}")
            app.insert("articles", payload)
        elif kind == "update":
            key, spec = payload
            print(f"update _id={key} {spec}")
            app.update("articles", key, spec)
        else:
            print(f"delete _id={payload}")
            app.delete("articles", payload)
        time.sleep(0.25)

    time.sleep(0.3)
    print(f"\nfinal maintained result: "
          f"{[d['_id'] for d in subscription.result()]}")
    expected = app.find("articles", {"year": {"$gte": 2017}},
                        sort=[("year", -1)], limit=3)
    print(f"fresh pull-based query:  {[d['_id'] for d in expected]}")
    converged = subscription.result() == expected
    print("converged!" if converged else "DIVERGED?!")

    app.close()
    cluster.stop()
    broker.close()
    return 0 if converged else 1


def inspect(args: argparse.Namespace) -> int:
    """Boot an inline telemetry-on cluster, run a workload, render it."""
    from repro.obs.export import format_slow_events, to_json, to_prometheus
    from repro.obs.inspector import render, render_postmortem
    from repro.obs.telemetry import TelemetryConfig
    from repro.runtime.execution import ExecutionConfig, InlineExecutionModel

    if args.postmortem:
        # Offline analysis of a flight-recorder dump: no cluster boot.
        from repro.obs.flight import load_dump

        print(render_postmortem(load_dump(args.postmortem)), end="")
        return 0

    qp, _, wp = args.grid.partition("x")
    if args.execution == "process":
        # The real deployment shape: matching/sorting cells in forked
        # worker processes, traces riding the wire envelopes with
        # calibrated clocks — so span latencies show wall-clock time.
        broker = Broker()
        model_knobs = dict(execution_model="process", process_workers=2)
    else:
        model = InlineExecutionModel(
            ExecutionConfig(mode="inline", seed=args.seed)
        )
        broker = Broker(execution=model)
        model_knobs = {}
    config = InvaliDBConfig(
        query_partitions=int(qp), write_partitions=int(wp or qp),
        # Trace every write: the inspector exists to show the write
        # path, so it overrides the production sampling default.
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
        **model_knobs,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("inspect-app", broker, config=config)

    def settle(rounds: int = 4, timeout: float = 10.0) -> None:
        # Under the process model a single drain is not enough: replies
        # from workers re-enter the broker, so alternate until idle.
        for _ in range(rounds):
            broker.drain(timeout)
            cluster.drain(timeout)

    try:
        app.subscribe("items", {"v": {"$gte": 0}})
        app.subscribe("items", {}, sort=[("v", -1)], limit=5)
        # Pagination variants of the sorted query.
        app.subscribe("items", {}, sort=[("v", -1)], limit=4, offset=1)
        app.subscribe("items", {}, sort=[("v", -1)], limit=3, offset=2)
        # Spatio-textual access paths: a geo box, a radius and a token
        # search, so the inspector's access-path table carries live
        # spatial/text hit counters.
        app.subscribe("items", {
            "loc": {"$geoWithin": {"$box": [[-10, -10], [10, 10]]}},
        })
        app.subscribe("items", {
            "loc": {"$nearSphere": {
                "$geometry": {"type": "Point", "coordinates": [0, 0]},
                "$maxDistance": 500_000,
            }},
        })
        app.subscribe("items", {"$text": {"$search": "urgent shipment"}})
        settle()
        notes = ("urgent delivery", "routine shipment", "idle")
        for i in range(args.writes):
            app.insert("items", {
                "_id": i, "v": i % 17,
                "loc": [(i * 7) % 360 - 180.0, (i * 3) % 170 - 85.0],
                "note": notes[i % len(notes)],
            })
        for i in range(0, args.writes, 3):
            app.update("items", i, {"$inc": {"v": 100}})
        for i in range(0, args.writes, 7):
            app.delete("items", i)
        settle()
        if args.json:
            print(to_json(cluster.telemetry, indent=2))
        elif args.prometheus:
            print(to_prometheus(cluster.telemetry), end="")
        elif args.slow:
            print(format_slow_events(cluster.telemetry), end="")
        else:
            print(render(cluster.snapshot()), end="")
        return 0
    finally:
        app.close()
        cluster.stop()
        broker.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="InvaliDB reproduction: demo and cluster inspector.",
    )
    sub = parser.add_subparsers(dest="command")
    inspect_parser = sub.add_parser(
        "inspect",
        help="run a telemetry-enabled workload and render the inspector",
    )
    inspect_parser.add_argument(
        "--grid", default="2x2", help="matching grid as QPxWP (default 2x2)"
    )
    inspect_parser.add_argument(
        "--writes", type=int, default=60,
        help="synthetic writes to push through (default 60)",
    )
    inspect_parser.add_argument(
        "--seed", type=int, default=7, help="inline-model seed (default 7)"
    )
    inspect_parser.add_argument(
        "--execution", choices=("inline", "process"), default="inline",
        help="run the grid on the deterministic inline model (default) "
             "or in forked worker processes (wall-clock span latencies)",
    )
    output = inspect_parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="dump the telemetry snapshot as JSON")
    output.add_argument("--prometheus", action="store_true",
                        help="dump the registry in Prometheus text format")
    output.add_argument("--slow", action="store_true",
                        help="print the slow-event log")
    output.add_argument("--postmortem", metavar="DUMP",
                        help="render a flight-recorder dump file instead "
                             "of booting a cluster")
    args = parser.parse_args(argv)
    if args.command == "inspect":
        return inspect(args)
    return demo()


if __name__ == "__main__":
    raise SystemExit(main())
