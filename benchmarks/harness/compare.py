"""``compare A.json B.json``: hold a suite run against a base run.

Per workload x end-to-end metric the report prints base, new, the ratio
with its base, the metric's bound and a verdict:

* ``within``  — new is no worse and no better than base by the bound;
* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``unresolved`` — the medians differ by more than the bound but the two
  sides' runs overlap (needs ``--repeats``: with one run per side there
  is no spread to consult and the bound alone decides).

Exit status is non-zero on any ``worse`` and on a higher ``failed_share``.
"""

from __future__ import annotations

from typing import Any, Dict, List

import metrics


def _verdict(base: Dict[str, Any], new: Dict[str, Any], better: str,
             bound: float) -> str:
    a, b = base["value"], new["value"]
    # Worsening as a share of the base median, positive = worse.
    change = (b - a) / a if better == metrics.LOWER else (a - b) / a
    if abs(change) <= bound:
        return "within"
    runs_a = [v for v in base.get("values", [a]) if v is not None]
    runs_b = [v for v in new.get("values", [b]) if v is not None]
    if len(runs_a) > 1 and len(runs_b) > 1:
        if better == metrics.LOWER:
            disjoint = max(runs_b) < min(runs_a) or min(runs_b) > max(runs_a)
        else:
            disjoint = min(runs_b) > max(runs_a) or max(runs_b) < min(runs_a)
        if not disjoint:
            return "unresolved"
    return "worse" if change > 0 else "better"


def report(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    """Print the comparison; return the process exit status."""
    failures: List[str] = []
    print(f"{'workload':22s} {'metric':16s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for name, base_row in base["workloads"].items():
        new_row = new["workloads"].get(name)
        if new_row is None:
            print(f"{name:22s} missing from the new run")
            failures.append(f"{name}: missing")
            continue
        for metric, _, better, bound in metrics.END_TO_END:
            a, b = base_row["end_to_end"][metric], new_row["end_to_end"][metric]
            if a["value"] is None or b["value"] is None:
                verdict = "worse" if b["value"] is None else "unresolved"
                ratio = float("nan")
            else:
                verdict = _verdict(a, b, better, bound)
                ratio = b["value"] / a["value"]
            print(f"{name:22s} {metric:16s} {a['value']!s:>12.12s} {b['value']!s:>12.12s} "
                  f"{ratio:9.3f} {bound:6.2f}  {verdict}")
            if verdict == "worse":
                failures.append(f"{name} {metric}: worse")
        # failed_share has no bound to stay within: any rise fails.
        a, b = base_row["failed_share"], new_row["failed_share"]
        verdict = "worse" if b > a else "within"
        print(f"{name:22s} {'failed_share':16s} {a:12.6f} {b:12.6f} "
              f"{'':9s} {0.0:6.2f}  {verdict}")
        if b > a:
            failures.append(f"{name} failed_share: {a} -> {b}")
    for failure in failures:
        print(f"REGRESSION {failure}")
    return 1 if failures else 0
