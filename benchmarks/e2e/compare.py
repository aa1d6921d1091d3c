"""Compare two result documents of ``benchmarks.e2e.run --json``.

    python -m benchmarks.e2e.compare A.json B.json

prints one row per (workload, end-to-end metric): both medians, the
relative difference of B against A (positive = worse), the metric's
bound, and a verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - it is not, but the spread of either side (distance
  between the first and third quartile over the median) is wider than the
  bound, so "no regression" cannot be told from noise;
* ``ok``         - otherwise.

The end-to-end metrics are those of ``BENCHMARK.json`` plus the ones only
some workloads have (``write_p50_ms``, ``write_p95_ms``, ``recover_s``,
read from the untraced runs' detail lines) and ``failed_frac``, whose
bound is 0: any failed check in B is a regression.  So is a workload, or
a metric of a workload, that A has and B lacks.

Metrics that are counts made by the program (``instrument.*``, the cache
hit rates, ``parallel.morsels_per_stmt``, ...) must be *identical* in the
two traced runs; a difference is a regression whatever its size.  The
exit status is non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):  # run as a script
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import metrics as m  # noqa: E402


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median; None under four values."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else None


def metric_values(runs: List[Dict[str, Any]], name: str) -> List[float]:
    """One end-to-end metric over untraced runs: from the result line, or
    from the detail line for a metric only some workloads have (empty
    where this workload lacks it)."""
    if name in m.END_TO_END:
        return [run["metrics"][name]["value"] for run in runs]
    return [
        run["detail"]["extras"][name] for run in runs
        if name in run["detail"]["extras"]
    ]


def failed_frac(runs: Dict[str, Any]) -> float:
    every = runs["untraced"] + [runs["traced"]]
    return (
        sum(run["failed"] for run in every)
        / sum(run["attempted"] for run in every)
    )


def row(
    workload: str, metric: str, a: float, b: Optional[float], verdict: str,
    bound: float = 0.0,
    worse: Optional[float] = None,
    widest: Optional[float] = None,
) -> Dict[str, Any]:
    return {
        "workload": workload, "metric": metric, "a": a, "b": b,
        "worse": worse, "bound": bound, "spread": widest, "verdict": verdict,
    }


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) and per differing
    exact-count metric."""
    rows: List[Dict[str, Any]] = []
    timed = {**m.END_TO_END, **m.SOME_WORKLOADS}
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if runs_b is None:
            rows.append(row(workload, "(workload)", 1, None, "regressed"))
            continue
        failed_b = failed_frac(runs_b)
        rows.append(row(
            workload, "failed_frac", failed_frac(runs_a), failed_b,
            "regressed" if failed_b > 0 else "ok",
        ))
        for name, (_unit, better, bound) in timed.items():
            values_a = metric_values(runs_a["untraced"], name)
            values_b = metric_values(runs_b["untraced"], name)
            if not values_a:
                continue
            median_a = statistics.median(values_a)
            if not values_b:
                rows.append(row(
                    workload, name, median_a, None, "regressed", bound
                ))
                continue
            median_b = statistics.median(values_b)
            change = (median_b - median_a) / median_a
            worse = change if better == m.LOWER else -change
            spreads = [
                s for s in (spread(values_a), spread(values_b))
                if s is not None
            ]
            widest = max(spreads) if spreads else None
            if worse > bound:
                verdict = "regressed"
            elif widest is not None and widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(row(
                workload, name, median_a, median_b, verdict, bound, worse,
                widest,
            ))
        traced_a = runs_a["traced"]["metrics"]
        traced_b = runs_b["traced"]["metrics"]
        for name in traced_a:
            if not m.is_exact(name) or name not in traced_b:
                continue
            value_a, value_b = traced_a[name]["value"], traced_b[name]["value"]
            if value_a != value_b:
                rows.append(row(workload, name, value_a, value_b, "regressed"))
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    header = (f"{'workload':<14}{'metric':<34}{'A median':>14}{'B median':>14}"
              f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict")
    lines = [header, "-" * len(header)]
    for r in rows:
        b = "missing" if r["b"] is None else f"{r['b']:.4f}"
        worse = "exact" if r["worse"] is None else f"{r['worse']:+.1%}"
        spread_text = "-" if r["spread"] is None else f"{r['spread']:.1%}"
        lines.append(
            f"{r['workload']:<14}{r['metric']:<34}{r['a']:>14.4f}{b:>14}"
            f"{worse:>10}{r['bound']:>7.0%}{spread_text:>8}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline document")
    parser.add_argument("b", help="candidate document")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    rows = compare(a, b)
    print(render(rows))
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); exact "
              "counts are only expected to match for one seed")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
