"""Self-test of the benchmark harness (run explicitly, not tier-1)::

    python3 -m pytest benchmarks/harness/test_harness.py -q

It checks the harness, not the program: every declared metric is
emitted, same-seed inline traced passes repeat their counts exactly, a
vanished entry point degrades to ``null`` instead of a crash, and the
layer-dominance rule each workload was sized for holds on two seeds.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parents[1]


def _run(*args: str, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def _result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == metrics.PER_LAYER
    assert declared["run_seconds"] == run.DEFAULT_SECONDS


def test_quick_suite_emits_every_declared_metric(tmp_path):
    started = time.monotonic()
    completed = _run("--quick", "--out", str(tmp_path))
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert elapsed <= 20.0, f"--quick took {elapsed:.1f}s"
    suite = json.loads((tmp_path / "run-seed1.json").read_text())
    assert list(suite["workloads"]) == list(WORKLOADS)
    for name, row in suite["workloads"].items():
        assert set(row["end_to_end"]) == {m[0] for m in metrics.END_TO_END}, name
        assert set(row["per_layer"]) == {m[0] for m in metrics.PER_LAYER}, name
        assert all(entry["value"] is not None for entry in row["end_to_end"].values()), name
        assert row["failed"] == 0 and row["failed_share"] == 0.0, (name, row["mismatches"])
        assert row["layers"], name


def test_same_seed_inline_traced_passes_repeat_their_counts():
    """Counts (per-write ratios, bytes, notifications) must be exact
    repeats: that is what lets a later PR claim a count, not a timing."""
    lines = [
        _result_line(_run("--workload", "sorted-feed", "--seed", "7", "--seconds", "1",
                          "--trace", "1", "--quick"))
        for _ in range(2)
    ]
    counted = [
        name for name, unit, _ in metrics.PER_LAYER
        if unit == "count" and not name.startswith(("harness.", "runtime.process."))
    ]
    assert counted
    for name in counted:
        first, second = (line["metrics"][name]["value"] for line in lines)
        assert first == second, (name, first, second)
    assert lines[0]["attempted"] == lines[1]["attempted"]
    # Byte counts carry the writes' wall-clock timestamps, whose decimal
    # expansions differ in length from run to run.
    first, second = (line["metrics"]["event.codec.bytes_per_write"]["value"]
                     for line in lines)
    assert abs(first - second) <= 0.01 * first, (first, second)


def test_a_removed_entry_point_yields_null_not_a_crash(monkeypatch):
    gone = tuple(
        probe[:4] + ("handle_event_was_removed",) + probe[5:]
        if probe[0] == "SortingNode.handle_event" else probe
        for probe in tracing._METHOD_PROBES
    )
    monkeypatch.setattr(tracing, "_METHOD_PROBES", gone)
    workload = WORKLOADS["sorted-feed"].quick()
    detail = run.run_traced(workload, seed=3, seconds=0.5, spare=[])
    entry = detail["per_layer"]["core.sorting.self_us_per_event"]
    assert entry["value"] is None
    assert "SortingNode.handle_event" in entry["probe_error"]
    assert detail["per_layer"]["core.sorting.register_ms"]["value"] is not None
    assert detail["failed"] == 0
    line = run.result_line(detail, trace=True)
    assert line["metrics"]["core.sorting.self_us_per_event"]["value"] == metrics.MISSING
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_compare_flags_a_regression(tmp_path, capsys):
    import compare

    def suite(writes_per_s: float, failed_share: float = 0.0) -> dict:
        return {"workloads": {"paper-filter": {
            "end_to_end": {
                name: {"value": writes_per_s if name == "writes_per_s" else 1.0, "unit": unit}
                for name, unit, _, _ in metrics.END_TO_END
            },
            "failed_share": failed_share,
        }}}

    assert compare.report(suite(1000.0), suite(960.0)) == 0
    assert compare.report(suite(1000.0), suite(700.0)) == 1
    assert compare.report(suite(1000.0), suite(1000.0, failed_share=0.01)) == 1
    assert "worse" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_dominance_rules_hold_on_the_seed_commit(workload, seed, tmp_path):
    detail = tmp_path / "detail.json"
    completed = _run("--workload", workload, "--seed", str(seed), "--seconds", "6",
                     "--trace", "1", "--detail", str(detail))
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    traced = json.loads(detail.read_text())
    assert traced["dominance"], workload
    for rule in traced["dominance"]:
        assert rule["holds"], (workload, seed, rule)
    coverage = traced["per_layer"]["harness.budget_coverage"]["value"]
    assert coverage is not None and coverage > 0.0


def test_an_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    harness exist; there it must fail without printing a result line."""
    target = tmp_path / "benchmarks" / "harness"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "paper-filter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
