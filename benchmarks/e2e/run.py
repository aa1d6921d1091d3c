"""Command line of the end-to-end benchmark.

One workload, one run (what ``BENCHMARK.json``'s command is given)::

    python3 benchmarks/e2e/run.py --workload oltp_point --seed 7 \\
        --seconds 12 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Every workload, both runs, one report (no ``--workload``)::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 19860528

runs each workload's untraced and traced run in a fresh subprocess, one
after the other, prints every metric by name and unit, and with
``--json FILE`` writes the document ``benchmarks.e2e.compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 19860528
DEFAULT_SECONDS = 12
SMOKE_SCALE = 50
DETAIL_PREFIX = "E2E-DETAIL "
#: Environment mark of a process that already re-executed itself.
STABLE_MARK = "E2E_STABLE"
#: ``personality(2)`` flag from <linux/personality.h>.
ADDR_NO_RANDOMIZE = 0x0040000


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable, and the process
    deaf to ``REPRO_*``: those hooks reconfigure every database built in
    the process, and a benchmark must run the configuration it prints."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.stderr.write(
            f"e2e: {source}/repro not found; the benchmark runs from a "
            "checkout of the repository\n"
        )
        raise SystemExit(2)
    for path in (str(source), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        # Run as a script: keep this directory's ``trace.py`` from
        # shadowing the standard library's ``trace``.
        sys.path.pop(0)


def stabilise() -> None:
    """Re-execute this process once with a fixed string-hash seed and
    without address-space randomisation.

    Both move a pure-Python workload by a few percent from one process to
    the next (dict collision chains, cache-line placement) while meaning
    nothing about the code under test; with them pinned, the spread
    between identical runs halves.  Where the kernel refuses the
    personality call the run simply continues randomised.
    """
    if os.environ.get(STABLE_MARK) == "1":
        return
    environment = dict(os.environ, PYTHONHASHSEED="0")
    environment[STABLE_MARK] = "1"
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass
    argv = getattr(sys, "orig_argv", None) or [sys.executable] + sys.argv
    os.execve(sys.executable, argv, environment)


def host_stamp() -> Dict[str, Any]:
    commit = "unknown"
    # Only in a checkout that is itself a repository: git would otherwise
    # go looking in the directories above it.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def effective_workers(requested: Optional[int]) -> int:
    """Two workers fit a two-core host; never more workers than cores
    unless ``--workers`` says so."""
    if requested is not None:
        return requested
    return max(1, min(2, os.cpu_count() or 1))


def expected_digests(workload, scale: int) -> Optional[Dict[str, Any]]:
    """The committed digests for this stream, when the seed is theirs."""
    path = HERE / "expected_digests.json"
    if not path.exists():
        return None
    document = json.loads(path.read_text(encoding="utf-8"))
    entry = document.get(str(scale), {}).get(
        workload.stream_name or workload.name
    )
    if entry is None or entry["seed"] != workload.seed:
        return None
    return entry


def record(workload, scale: int) -> int:
    """Write this stream's oracle digests into expected_digests.json."""
    from benchmarks.e2e.driver import record_digests

    path = HERE / "expected_digests.json"
    document = (
        json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    )
    entry = dict(record_digests(workload), seed=workload.seed)
    document.setdefault(str(scale), {})[
        workload.stream_name or workload.name
    ] = entry
    path.write_text(
        json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded the digests of {len(entry['statements'])} statement "
          f"classes and {len(entry['tables'])} tables for {workload.name}")
    return 0


def run_workload(args: argparse.Namespace) -> int:
    """One workload, one run, in this process."""
    from benchmarks.e2e import metrics as m
    from benchmarks.e2e.driver import traced_run, untraced_run
    from benchmarks.e2e.workloads import WORKLOADS

    scale = SMOKE_SCALE if args.smoke else 1
    workers = effective_workers(args.workers)
    workload = WORKLOADS[args.workload](args.seed, scale, workers)
    stamp = dict(
        host_stamp(), seed=args.seed, workload=args.workload,
        scale=scale, seconds=args.seconds, trace=args.trace,
        workers=workload.workers,
    )
    if args.record:
        return record(workload, scale)
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        rec, values, detail = traced_run(
            workload, args.seconds,
            str(out_dir / f"trace_{args.workload}.json"),
            expected_digests(workload, scale), stamp,
        )
        units = {name: unit for name, (unit, _) in m.PER_LAYER.items()}
    else:
        rec, values, detail = untraced_run(workload, args.seconds)
        units = {name: unit for name, (unit, _, _) in m.END_TO_END.items()}
    detail.update(
        stamp=stamp,
        declared=workload.declared(),
        stream_hash=rec.stream_hash,
        first_error=rec.first_error,
    )
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# --------------------------------------------------------------------------- #
# the whole suite
# --------------------------------------------------------------------------- #


def child(
    args: argparse.Namespace, workload: str, trace: int, seed: int
) -> Dict[str, Any]:
    """Run one workload in a fresh, hermetic subprocess."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.workers is not None:
        command += ["--workers", str(args.workers)]
    environment = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    done = subprocess.run(
        command, capture_output=True, text=True, env=environment,
        timeout=900,
    )
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(
            f"e2e: {workload} (trace {trace}) exited {done.returncode}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, one subprocess at a time: ``--repeat`` untraced
    runs on consecutive seeds, then one traced run on ``--seed``."""
    from benchmarks.e2e import metrics as m
    from benchmarks.e2e.workloads import WORKLOADS

    names = args.only.split(",") if args.only else list(WORKLOADS)
    document: Dict[str, Any] = {
        "host": host_stamp(), "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "repeat": args.repeat, "workloads": {},
    }
    failed = 0
    for name in names:
        runs = {
            "untraced": [
                child(args, name, 0, args.seed + k)
                for k in range(args.repeat)
            ],
            "traced": child(args, name, 1, args.seed),
        }
        failed += runs["traced"]["failed"]
        failed += sum(run["failed"] for run in runs["untraced"])
        document["workloads"][name] = runs
        print_workload(name, runs, m)
    print_cross_checks(document)
    if args.json:
        Path(args.json).write_text(
            json.dumps(document, indent=1), encoding="utf-8"
        )
        print(f"wrote {args.json}")
    return 1 if failed else 0


def print_workload(name: str, runs: Dict[str, Any], m) -> None:
    from benchmarks.e2e.compare import metric_values

    untraced, traced = runs["untraced"], runs["traced"]
    detail = untraced[0]["detail"]
    stamp = detail["stamp"]
    print(f"\n== {name} ==  seed {stamp['seed']}  nproc {stamp['nproc']}  "
          f"python {stamp['python']}  workers {stamp['workers']}  "
          f"commit {stamp['commit'][:12]}")
    print(f"   closed loop, 1 client; first untraced run: "
          f"{detail['statements']} statements in {detail['rounds']} rounds, "
          f"timed region {detail['timed_region_s']:.2f} s, "
          f"stream {detail['stream_hash']}")
    print(f"   latency samples {detail['samples']}; each round's read "
          f"percentiles rest on {detail['reads_per_round']} reads, "
          f"{detail['reads_beyond_pooled_p95']} reads lie beyond the pooled "
          f"p95 ({detail['pooled']['read_p95_ms']:.4f} ms)")
    print(f"   verify_s {detail['verify_s']:.2f}")
    attempted = traced["attempted"] + sum(r["attempted"] for r in untraced)
    failures = traced["failed"] + sum(r["failed"] for r in untraced)
    print(f"   failed_frac {failures / attempted:.6f} "
          f"({failures} of {attempted} checks)")
    print(f"   end to end (median of {len(untraced)} untraced runs):")
    for metric, (unit, better, bound) in (
        {**m.END_TO_END, **m.SOME_WORKLOADS}.items()
    ):
        values = metric_values(untraced, metric)
        if values:
            print(f"     {metric:<44}{statistics.median(values):>16.4f} "
                  f"{unit:<6} {better} is better, bound {bound:.0%}")
    print("   per layer (traced run; 0 = layer not exercised here):")
    for metric, (unit, _better) in m.PER_LAYER.items():
        value = traced["metrics"][metric]["value"]
        print(f"     {metric:<44}{value:>16.4f} {unit}")


def print_cross_checks(document: Dict[str, Any]) -> None:
    """Exact-count identity of the serial and the parallel mix."""
    workloads = document["workloads"]
    if "query_mix" not in workloads or "query_mix_par" not in workloads:
        return
    serial = workloads["query_mix"]["traced"]["metrics"]
    parallel = workloads["query_mix_par"]["traced"]["metrics"]
    names = [name for name in serial if name.startswith("instrument.")]
    same = all(serial[n]["value"] == parallel[n]["value"] for n in names)
    print(f"\ninstrument.* of query_mix and query_mix_par: "
          f"{'identical' if same else 'DIFFERENT'}")


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 table sizes and short rounds")
    parser.add_argument("--workers", type=int, default=None,
                        help="workers of query_mix_par (default min(2, nproc))")
    parser.add_argument("--json", help="suite mode: write the full document")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: untraced runs per workload, on "
                             "seeds seed, seed+1, ...")
    parser.add_argument("--only", help="suite mode: comma list of workloads")
    parser.add_argument("--record", action="store_true",
                        help="replay the traced prefix on the oracle "
                             "configuration and store its digests in "
                             "expected_digests.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else DEFAULT_SECONDS
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    bootstrap()
    if args.workload is None:
        return run_suite(args)
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"e2e: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}\n"
        )
        return 2
    stabilise()
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
