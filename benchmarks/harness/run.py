#!/usr/bin/env python3
"""The repository's benchmark: five named workloads, write -> notification
throughput and latency, plus a per-layer budget from a traced run.

Three ways in:

* the driver contract — one workload, one pass, one result line::

      python3 benchmarks/harness/run.py --workload paper-filter --seed 1 \\
          --seconds 12 --trace 0        # or --trace 1 for the per-layer pass

* the whole suite, every workload in a fresh interpreter, both passes,
  one schema-stable JSON under ``--out``::

      python3 benchmarks/harness/run.py [--seed N] [--workload W] \\
          [--out benchmarks/scratch/] [--repeats R] [--quick]

* ``compare A.json B.json`` and ``aa`` (the suite twice, compared).

See README.md next to this file for every metric and workload by name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmark needs the program under {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import budget  # noqa: E402
import compare as comparing  # noqa: E402
import metrics  # noqa: E402
import phases  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SECONDS = 12
#: Share of ``--seconds`` the saturation phase is sized for; the open
#: loop gets the rest.
SATURATION_SHARE = 0.4
#: Saturation/open-loop slices per untraced pass.
ROUNDS = 4
#: The traced run spends this share of ``--seconds`` on a shortened
#: untraced reference pass (the harness.* diagnostics).
REFERENCE_SHARE = 0.4
SUBPROCESS_TIMEOUT = 170


def hash_seed(seed: int) -> str:
    return str(seed % 4294967295 + 1)


# ---------------------------------------------------------------------------
# One pass of one workload (runs in its own interpreter)
# ---------------------------------------------------------------------------

def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   spare: List[int],
                   setup_builds: Optional[int] = None) -> Dict[str, Any]:
    """The untraced pass: every end-to-end metric plus diagnostics.

    Saturation and open loop alternate in ``ROUNDS`` slices: the host's
    CPU speed drifts for seconds at a time, and a metric measured in
    one block would inherit whatever spell it happened to sit in."""
    builds = workload.setup_builds if setup_builds is None else setup_builds
    stack = phases.Stack(workload, seed, spare_cpus=spare)
    setups = [stack.setup_seconds]
    mismatches = stack.check_oracle("setup")
    saturation = phases.Saturation(stack)
    open_loop = phases.OpenLoop(stack)
    segments = math.ceil(workload.saturation_writes_per_second * seconds
                         / workload.segment_writes / ROUNDS)
    writes = math.ceil(workload.rate * seconds * (1.0 - SATURATION_SHARE) / ROUNDS)
    for round_ in range(ROUNDS):
        saturation.run(max(2, segments))
        open_loop.run(max(20, writes))
        if round_ in (ROUNDS // 2 - 1, ROUNDS - 1):
            mismatches += stack.check_oracle(f"round {round_ + 1}")
            mismatches += stack.check_notification_count(f"round {round_ + 1}")
    latency = open_loop.summary()
    failed = len(stack.failures) + stack.client_failures()
    attempted = stack.attempted
    failures = stack.failures[:20]
    stack.close()
    del stack
    gc.collect()
    # The measured stack was the first build of this interpreter;
    # rebuilding before measuring slows every later write.
    setups += phases.measure_setup(workload, seed, builds - 1, spare)
    throughput = saturation.summary()
    # Three groups of builds, the fastest build of each, their median:
    # a 0.2 s build lasts about as long as one speed spell of the host,
    # so single builds come out two-peaked.
    group = max(1, len(setups) // 3)
    grouped = [min(setups[start:start + group])
               for start in range(0, len(setups), group)]
    return {
        "end_to_end": {
            "setup_s": statistics.median(grouped),
            "writes_per_s": throughput["writes_per_s"],
            "notify_p50_ms": latency.get("notify_p50_ms"),
            "peak_rss_mb": phases.peak_rss_mib(),
        },
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "mismatches": mismatches,
        "setup_builds_s": setups,
        "saturation": throughput,
        "open_loop": latency,
    }


def _traced_pass(workload: Workload, seed: int, segments: int,
                 spare: List[int], tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Fixed-work saturation on the inline model (process workloads keep
    their model and are traced parent-side only).  With a *tracer* the
    wrappers are installed for the life of the stack."""
    inline = workload.execution_model is None
    counters: Dict[str, Dict[str, int]] = {}
    cpu_started = time.process_time()
    if tracer is not None:
        tracer.install()
    try:
        stack = phases.Stack(workload, seed, inline=inline, spare_cpus=spare)

        def on_segment(timed: int) -> None:
            if tracer is not None:
                tracer.segment = timed
            if timed == 0:
                counters["before"] = budget.read_counters(stack.cluster)

        saturation = phases.Saturation(stack, on_segment)
        saturation.run(segments)
        counters["after"] = budget.read_counters(stack.cluster)
        stack.check_oracle("traced pass")
        stack.check_notification_count("traced pass")
        worker_cpu = stack.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    parent_cpu = time.process_time() - cpu_started
    result = saturation.summary()
    result.update(
        counters=counters,
        notifications=len(stack.arrivals),
        attempted=stack.attempted,
        failed=len(stack.failures) + stack.client_failures(),
        failures=stack.failures[:20],
        worker_cpu_share=worker_cpu / (worker_cpu + parent_cpu),
    )
    return result


def run_traced(workload: Workload, seed: int, seconds: float, spare: List[int],
               spans_path: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """The traced run: a shortened untraced reference pass (diagnostics),
    an untraced and a traced fixed-work pass, then the replay probes."""
    reference = run_end_to_end(workload, seed, seconds * REFERENCE_SHARE, spare,
                               setup_builds=1)
    segments = max(4, math.ceil(
        workload.trace_writes_per_second * seconds / workload.segment_writes))
    untraced = _traced_pass(workload, seed, segments, spare, None)
    gc.collect()
    tracer = tracing.Tracer()
    traced = _traced_pass(workload, seed, segments, spare, tracer)
    per_layer, table, segment_probes = budget.derive(
        tracer, traced["writes"], traced["wall_seconds"],
        traced["counters"]["before"], traced["counters"]["after"],
    )

    def put(name: str, value: Any) -> None:
        per_layer[name] = {"value": value}

    put("runtime.process.worker_cpu_share", traced["worker_cpu_share"])
    put("harness.trace_overhead_ratio",
        traced["us_per_write"] / untraced["us_per_write"])
    put("harness.inline_us_per_write", untraced["us_per_write"])
    put("harness.cpu_us_per_write", reference["saturation"]["cpu_us_per_write"])
    put("harness.segment_iqr_share", reference["saturation"]["segment_iqr_share"])
    for name in ("generator_late_share", "generator_late_p95_ms", "backlog_end",
                 "notify_p95_ms", "notify_p99_ms"):
        put(f"harness.{name}", reference["open_loop"].get(name))
    replay = probes.replay(tracer, segment_probes)
    for leaf, row in replay.items():
        entry = {"value": row["replay_us"]}
        if "probe_error" in row:
            entry["probe_error"] = row["probe_error"]
        per_layer[f"probe.{leaf}_us"] = entry
    if spans_path is not None:
        spans_path.write_text(json.dumps(tracer.dump()))
    attempted = reference["attempted"] + untraced["attempted"] + traced["attempted"]
    failed = reference["failed"] + untraced["failed"] + traced["failed"]
    return {
        "per_layer": per_layer,
        "layers": table,
        "dominance": budget.dominance(workload.name, table),
        "replay": replay,
        "probe_errors": tracer.probe_errors,
        "attempted": attempted,
        "failed": failed,
        "failures": reference["failures"] + untraced["failures"] + traced["failures"],
        "traced_pass": {
            key: traced[key] for key in
            ("segments", "segment_writes", "writes", "notifications",
             "median_us_per_write", "us_per_write", "wall_seconds")
        },
        "untraced_pass": {
            key: untraced[key] for key in
            ("segments", "writes", "notifications", "median_us_per_write", "us_per_write")
        },
        "spans": len(tracer.spans),
    }


def result_line(detail: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    values: Dict[str, Dict[str, Any]] = {}
    if trace:
        for name, unit, _ in metrics.PER_LAYER:
            value = detail["per_layer"].get(name, {}).get("value")
            values[name] = {
                "value": metrics.MISSING if value is None else value, "unit": unit,
            }
    else:
        for name, unit, _, _ in metrics.END_TO_END:
            value = detail["end_to_end"].get(name)
            values[name] = {
                "value": metrics.MISSING if value is None else value, "unit": unit,
            }
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": values,
    }


def print_metrics(workload: str, line: Dict[str, Any]) -> None:
    for name, entry in line["metrics"].items():
        print(f"{workload:22s} {name:44s} {entry['value']:14.4f} {entry['unit']}")


def single_pass(args: argparse.Namespace) -> int:
    expected = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != expected:
        # Set iteration order feeds the inline scheduler's ties; pin the
        # hash seed so same-seed passes repeat their counts exactly.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=expected))
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    spare = phases.pin_cpus()
    detail_path = pathlib.Path(args.detail) if args.detail else None
    if args.trace:
        spans_path = (detail_path.with_suffix(".spans.json")
                      if detail_path is not None else None)
        detail = run_traced(workload, args.seed, args.seconds, spare, spans_path)
    else:
        detail = run_end_to_end(workload, args.seed, args.seconds, spare)
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    if detail_path is not None:
        detail_path.parent.mkdir(parents=True, exist_ok=True)
        detail_path.write_text(json.dumps(detail, indent=1))
    line = result_line(detail, bool(args.trace))
    print_metrics(workload.name, line)
    if args.trace:
        print_layer_table(workload.name, detail)
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# The suite: every workload in a fresh interpreter
# ---------------------------------------------------------------------------

def print_layer_table(workload: str, detail: Dict[str, Any]) -> None:
    print(f"-- {workload}: layer budget of one write (traced pass, self time)")
    for layer, row in detail["layers"].items():
        print(f"   {layer:18s} {row['self_us_per_write']:10.2f} us/write "
              f"{row['share'] * 100:6.1f}%")
    for rule in detail["dominance"]:
        verdict = "holds" if rule["holds"] else "FAILS"
        print(f"   rule {verdict}: {rule['rule']} ({rule['detail']})")
    print("   replay probes (us/call without wrappers vs traced self time)")
    for leaf, row in detail["replay"].items():
        print(f"   {leaf:28s} replay {row['replay_us']} traced {row['traced_us']}")


def run_child(workload: str, seed: int, seconds: float, trace: int,
              detail_path: pathlib.Path, quick: bool) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its detail JSON."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail_path),
    ] + (["--quick"] if quick else [])
    completed = subprocess.run(
        command, env=dict(os.environ, PYTHONHASHSEED=hash_seed(seed)),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} trace={trace} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")
    return json.loads(detail_path.read_text())


def run_suite(args: argparse.Namespace) -> Dict[str, Any]:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = 0.5 if args.quick else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    suite: Dict[str, Any] = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "repeats": args.repeats,
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "bounds": {name: bound for name, _, _, bound in metrics.END_TO_END},
        "workloads": {},
    }
    for name in names:
        workload = WORKLOADS[name]
        runs = [
            run_child(name, args.seed + repeat, seconds, 0,
                      out / f"{name}.seed{args.seed + repeat}.trace0.json", args.quick)
            for repeat in range(args.repeats)
        ]
        traced = run_child(name, args.seed, seconds, 1,
                           out / f"{name}.seed{args.seed}.trace1.json", args.quick)
        end_to_end = {}
        for metric, unit, _, _ in metrics.END_TO_END:
            values = [run["end_to_end"][metric] for run in runs]
            present = [value for value in values if value is not None]
            end_to_end[metric] = {
                "value": statistics.median(present) if present else None,
                "unit": unit,
                "values": values,
            }
        per_layer = {
            metric: dict(traced["per_layer"].get(metric, {"value": None}), unit=unit)
            for metric, unit, _ in metrics.PER_LAYER
        }
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        suite["workloads"][name] = {
            "why": workload.why,
            "constants": {
                "execution_model": workload.execution_model or "threaded",
                "rate_writes_per_s": workload.rate,
                "segment_writes": workload.segment_writes,
                "setup_builds": workload.setup_builds,
                "subscriptions": len(workload.subscriptions(args.seed)),
            },
            "end_to_end": end_to_end,
            "failed_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "mismatches": [m for run in runs for m in run["mismatches"]],
            "saturation": runs[0]["saturation"],
            "open_loop": runs[0]["open_loop"],
            "per_layer": per_layer,
            "layers": traced["layers"],
            "dominance": traced["dominance"],
            "replay": traced["replay"],
            "traced_pass": traced["traced_pass"],
            "traced_failed": traced["failed"],
        }
        report_workload(name, suite["workloads"][name])
    return suite


def report_workload(name: str, row: Dict[str, Any]) -> None:
    print(f"== {name}: {row['why']}")
    for metric, entry in row["end_to_end"].items():
        print(f"{name:22s} {metric:44s} {entry['value']!s:>14} {entry['unit']}")
    print(f"{name:22s} {'failed_share':44s} {row['failed_share']!s:>14} ratio "
          f"({row['failed']} of {row['attempted']})")
    saturation, open_loop = row["saturation"], row["open_loop"]
    print(f"   saturation: {saturation['segments']} segments x "
          f"{saturation['segment_writes']} writes; open loop: "
          f"{open_loop['rate']:.0f} writes/s, {open_loop['samples']} latency samples "
          f"in {open_loop['windows']} windows")
    for metric, entry in row["per_layer"].items():
        print(f"{name:22s} {metric:44s} {entry['value']!s:>14} {entry['unit']}"
              + (f"  [{entry['probe_error']}]" if "probe_error" in entry else ""))
    print_layer_table(name, row)
    for mismatch in row["mismatches"]:
        print(f"MISMATCH {mismatch}")


def suite_command(args: argparse.Namespace) -> int:
    suite = run_suite(args)
    target = pathlib.Path(args.out) / f"run-seed{args.seed}.json"
    target.write_text(json.dumps(suite, indent=1))
    print(f"wrote {target}")
    healthy = all(row["failed"] == 0 and row["traced_failed"] == 0
                  for row in suite["workloads"].values())
    return 0 if healthy else 1


def aa_command(args: argparse.Namespace) -> int:
    """Run the suite twice on this commit and compare the two runs."""
    suites = []
    for label in ("a", "b"):
        suites.append(run_suite(args))
        path = pathlib.Path(args.out) / f"aa-{label}-seed{args.seed}.json"
        path.write_text(json.dumps(suites[-1], indent=1))
    return comparing.report(*suites)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["compare", "aa"])
    parser.add_argument("files", nargs="*", help="compare: base.json new.json")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="run one pass of --workload and print the result line")
    parser.add_argument("--detail", help="single pass: also write its detail JSON here")
    parser.add_argument("--out", default=str(ROOT / "benchmarks" / "scratch"))
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite: untraced passes per workload (seeds seed..seed+R-1)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the populations and (suite) half-second "
                             "phases, for the self-test")
    args = parser.parse_args(argv)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two suite JSON files")
        base, new = (json.loads(pathlib.Path(path).read_text()) for path in args.files)
        return comparing.report(base, new)
    if args.command == "aa":
        return aa_command(args)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_pass(args)
    return suite_command(args)


if __name__ == "__main__":
    sys.exit(main())
