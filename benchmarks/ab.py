"""Interleaved parent-vs-change runs of the end-to-end benchmark.

    python3 benchmarks/ab.py --parent /root/scratch/parent --change . \\
        --workload query_mix_par --seconds 12 --pairs 10

runs ``benchmarks/e2e/run.py --trace 0`` once per side per pair, each in
its own checkout (so each side measures its own ``src/`` with its own
copy of the benchmark), alternating which side goes first so that host
drift lands on both.  Per end-to-end metric of ``BENCHMARK.json`` it
prints both medians, both quartile ranges and the pairs the change won
(ties count for neither side), and marks

* ``gain`` — the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile range;
* ``WORSE`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — neither, but one side's quartile range is wider
  than that bound, so "no change" cannot be read off these runs.

Exit status is 1 when any run failed a correctness check or any metric
is ``WORSE``.  This is the tool a performance claim is judged with; the
driver's acceptance rule is the same one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def run_once(
    checkout: Path,
    command: List[str],
    workload: str,
    seconds: float,
    seed: int,
) -> Dict[str, Any]:
    """One untraced run in ``checkout``; its last stdout line, parsed."""
    done = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"ab: run in {checkout} exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    command = declared["command"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in declared["end_to_end"]}
        for side in sides
    }
    failed = {side: 0 for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(
                sides[side], command, args.workload, seconds, args.seed
            )
            failed[side] += result["failed"] + (not result["correct"])
            for name, column in samples[side].items():
                column.append(result["metrics"][name]["value"])
        print(
            f"pair {pair + 1}/{args.pairs} ({order[0]} first): stmts_per_s "
            f"{samples['parent']['stmts_per_s'][-1]:.4g} -> "
            f"{samples['change']['stmts_per_s'][-1]:.4g}",
            flush=True,
        )

    print(
        f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s, seed "
        f"{args.seed}; failed checks parent {failed['parent']}, change "
        f"{failed['change']}"
    )
    header = (
        f"{'metric':<16} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = False
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        a, b = samples["parent"][name], samples["change"][name]
        a1, a2, a3 = quartiles(a)
        b1, b2, b3 = quartiles(b)
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        lost = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        verdict = ""
        if won >= 0.9 * args.pairs and sign * (b2 - a2) > (a3 - a1):
            verdict = "gain"
        elif a2 and sign * (a2 - b2) / abs(a2) > bound:
            verdict, worse = "WORSE", True
        elif a2 and max(a3 - a1, b3 - b1) / abs(a2) > bound:
            verdict = "unresolved"
        print(
            f"{name:<16} {a2:>12.4g} [{a1:>8.4g}, {a3:>8.4g}] "
            f"{b2:>12.4g} [{b1:>8.4g}, {b3:>8.4g}] "
            f"{(b2 / a2 if a2 else float('nan')):>7.3f} "
            f"{won:>3}/{won + lost:<2}  {verdict}"
        )
    return 1 if worse or failed["parent"] or failed["change"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
