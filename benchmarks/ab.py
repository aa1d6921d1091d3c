"""Interleaved parent-vs-change runs of the end-to-end benchmark.

    python3 benchmarks/ab.py --parent ../parent --change . \\
        --workload query_mix_par --seconds 12 --pairs 10

runs ``benchmarks/e2e/run.py --trace 0`` once per side per pair, each in
its own tree (so each side measures its own ``src/`` with its own copy
of the benchmark), alternating which side goes first so that host drift
lands on both.  Both trees are copies, without ``.git`` and without
``benchmarks/e2e/out``, into ``<tmp>/parent`` and ``<tmp>/change``:
paths of equal length, laid out alike, so the ~1% ``peak_rss_mb`` that
path length or a ``.git`` directory alone moves cannot appear.  Per
end-to-end metric of ``BENCHMARK.json`` it prints both medians, both
quartile ranges and the pairs the change won (ties count for neither
side), and marks

* ``gain`` — the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile range;
* ``WORSE`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — neither, but one side's quartile range is wider
  than that bound, so "no change" cannot be read off these runs.

Before the first pair it prints each side's source path, commit and
dirty state, and one host line: how much faster two spinning processes
get through their work than one (the median of 5 trials; ~2x on two
free cores, ~1x when the host gives this run one).

Exit status is 1 when any run failed a correctness check or any metric
is ``WORSE``.  This is the tool a performance claim is judged with.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
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


def describe_source(side: str, path: Path) -> str:
    """``side: path @ commit (clean|dirty)``, from git where it can."""
    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else ""

    commit = git("rev-parse", "--short", "HEAD")
    if not commit:
        return f"{side}: {path} @ no git commit"
    state = "dirty" if git("status", "--porcelain") else "clean"
    return f"{side}: {path} @ {commit} ({state})"


def stage(source: Path, target: Path) -> Path:
    """Copy ``source`` to ``target`` without ``.git`` or the e2e
    benchmark's output directory."""
    shutil.copytree(
        source,
        target,
        ignore=lambda folder, names: [
            name for name in names
            if name == ".git"
            or (Path(folder, name) == source / "benchmarks" / "e2e" / "out")
        ],
    )
    return target


#: One spinning process: a fixed count of loop turns, then its own
#: elapsed wall time on stdout.
SPIN = (
    "import time; t = time.perf_counter()\n"
    "for _ in range(3_000_000): pass\n"
    "print(time.perf_counter() - t)"
)


def host_capability(trials: int = 5) -> float:
    """Throughput of two spinning processes over one, the median of
    ``trials``; at most two processes run at a time."""
    def spin(count: int) -> float:
        started = [
            subprocess.Popen(
                [sys.executable, "-c", SPIN],
                stdout=subprocess.PIPE, text=True,
            )
            for _ in range(count)
        ]
        return max(float(proc.communicate()[0]) for proc in started)

    ratios = []
    for _ in range(trials):
        one = spin(1)
        ratios.append(2 * one / spin(2))
    return statistics.median(ratios)


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
    sources = {
        "parent": args.parent.resolve(),
        "change": args.change.resolve(),
    }
    for side, path in sources.items():
        print(describe_source(side, path), flush=True)
    started = time.perf_counter()
    capability = host_capability()
    print(
        f"host: two spinning processes run {capability:.2f}x one "
        f"(median of 5, {time.perf_counter() - started:.1f} s)",
        flush=True,
    )
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {
            side: stage(path, Path(tmp) / side)
            for side, path in sources.items()
        }
        return measure(args, declared, seconds, sides)


def measure(
    args: argparse.Namespace,
    declared: Dict[str, Any],
    seconds: float,
    sides: Dict[str, Path],
) -> int:
    """The interleaved pairs and the verdict table; exit status."""
    command = declared["command"]
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
