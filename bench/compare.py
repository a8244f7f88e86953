"""Compare two result files of bench/run.py, metric by metric.

    python3 bench/compare.py A.json B.json      # A is the base, B the change

For every workload and end-to-end metric it prints the base median, the new
median, their ratio, and how much worse B is, against the bound BENCHMARK.json
fixes for that metric.  Run-to-run spread is the interquartile range over the
median of each side's untraced runs (``--repeat``); where it exceeds the bound
the row reads ``unresolved`` — unless every run of one side beats every run of
the other, which no noise explains.  Per-layer metrics of the traced runs
follow, ratio only: they have no bound.

Exit status is non-zero on a regression or on any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (max-min for under four runs)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def _runs(path: str) -> Tuple[Dict, Dict, Dict]:
    """``(end_to_end, per_layer, failed_share)`` keyed by workload; the first
    two map metric name -> list of values over the file's runs."""
    e2e: Dict[str, Dict[str, List[float]]] = {}
    layer: Dict[str, Dict[str, List[float]]] = {}
    failed: Dict[str, List[int]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        into = layer if run["traced"] else e2e
        metrics = into.setdefault(run["workload"], {})
        for name, (value, _unit) in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
        totals = failed.setdefault(run["workload"], [0, 0])
        totals[0] += run["failed"]
        totals[1] += run["attempted"]
    return e2e, layer, {w: f / max(a, 1) for w, (f, a) in failed.items()}


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    # In cost space (larger is worse) both directions read the same.
    sign = 1.0 if better == "lower" else -1.0
    base_cost = [sign * value for value in base]
    new_cost = [sign * value for value in new]
    worse_by = statistics.median(new_cost) - statistics.median(base_cost)
    worse_by /= abs(statistics.median(base_cost))
    noisy = max(spread(base), spread(new)) > bound
    separated = min(new_cost) > max(base_cost) or max(new_cost) < min(base_cost)
    if noisy and not separated:
        return "unresolved"
    return "regression" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str, out=sys.stdout) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_a, layer_a, failed_a = _runs(path_a)
    e2e_b, layer_b, failed_b = _runs(path_b)
    status = 0
    print(
        "| workload | metric | unit | base (A) | new (B) | B/A | bound "
        "| spread A | spread B | verdict |",
        file=out,
    )
    print("|---|---|---|---|---|---|---|---|---|---|", file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            base = e2e_a.get(workload, {}).get(metric["name"])
            new = e2e_b.get(workload, {}).get(metric["name"])
            if not base or not new:
                continue
            result = verdict(base, new, metric["better"], metric["bound"])
            if result == "regression":
                status = 1
            a, b = statistics.median(base), statistics.median(new)
            print(
                f"| {workload} | {metric['name']} | {metric['unit']} | {a:.5g} "
                f"| {b:.5g} | {b / a:.3f} | {metric['bound']:.2f} "
                f"| {spread(base):.3f} | {spread(new):.3f} | {result} |",
                file=out,
            )
        a, b = failed_a.get(workload), failed_b.get(workload)
        if a is not None and b is not None:
            rose = b > a
            status = 1 if rose else status
            print(
                f"| {workload} | failed_share | ratio | {a:.5g} | {b:.5g} | - | 0 "
                f"| - | - | {'regression' if rose else 'ok'} |",
                file=out,
            )
    if layer_a and layer_b:
        print("\n| workload | per-layer metric | base (A) | new (B) | B/A |", file=out)
        print("|---|---|---|---|---|", file=out)
    for workload, metrics in layer_a.items():
        for name, values in metrics.items():
            other = layer_b.get(workload, {}).get(name)
            if other:
                a, b = statistics.median(values), statistics.median(other)
                ratio = f"{b / a:.3f}" if a else "-"
                print(f"| {workload} | {name} | {a:.5g} | {b:.5g} | {ratio} |", file=out)
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
