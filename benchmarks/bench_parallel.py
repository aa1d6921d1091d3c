"""Morsel-driven parallel engine across worker counts.

Runs the Graph-2-style 60/20/20 query mix (the same plan trees as
``bench_vectorized.py``: 18 selections, 6 hash joins, 6 hash-dedup
projections) through the batch engine at each ``--workers`` count and
reports wall-clock, weighted cost, and raw counters per worker count.

Asserted: **determinism** — every worker count produces identical
result rows and identical merged Section 3.1 counter totals (see
DESIGN.md section 3.9).  Wall-clock and
speed-ups are reported, never gated: the end-to-end benchmark
(``benchmarks/e2e``, ``query_mix_par``) is where parallel time is
judged.
"""

from __future__ import annotations

import os

try:
    from benchmarks.bench_vectorized import (
        N_INNER,
        N_OUTER,
        N_QUERIES,
        build_db,
        query_mix,
        run_mix,
    )
    from benchmarks.harness import (
        WORKERS,
        SeriesCollector,
        configure_engine,
        measure,
    )
except ImportError:  # pragma: no cover - direct execution
    from bench_vectorized import (
        N_INNER,
        N_OUTER,
        N_QUERIES,
        build_db,
        query_mix,
        run_mix,
    )
    from harness import (
        WORKERS,
        SeriesCollector,
        configure_engine,
        measure,
    )

from repro.instrument import counters_scope
from repro.query.parallel import fork_available

TIMING_ROUNDS = 3

#: Worker counts to sweep: the ``--workers`` selection, or the
#: canonical {1, 2, 4} ladder when none was given.
WORKER_SWEEP = WORKERS if WORKERS != (1,) else (1, 2, 4)

#: Morsels sized so every scan decomposes into ~8 units even at the
#: scaled-down default cardinalities.
MORSEL_SIZE = max(256, N_OUTER // 8)


def _pool_mode() -> str:
    return "process" if fork_available() else "inline"


def _cpu_count() -> int:
    try:
        return os.cpu_count() or 1
    except Exception:  # pragma: no cover
        return 1


def run_query_mix(db, plans, series):
    """Time the mix per worker count.

    Returns ``(best_seconds, latencies)`` where ``latencies`` maps a
    ``workers=N`` label to every timed round's wall-clock, feeding the
    harness's embedded p50/p95/p99 summaries.
    """
    seconds = {}
    latencies = {}
    reference_counts = None
    reference_rows = None
    for workers in WORKER_SWEEP:
        configure_engine(
            db,
            engine="batch",
            workers=workers,
            morsel_size=MORSEL_SIZE,
            pool=_pool_mode(),
        )
        with counters_scope() as scope:
            rows = [db.executor.execute(plan).rows() for plan in plans]
        counts = scope.snapshot().as_dict()
        if reference_counts is None:
            reference_counts, reference_rows = counts, rows
        else:
            assert rows == reference_rows, (
                f"workers={workers} changed result rows"
            )
            assert counts == reference_counts, (
                f"workers={workers} changed merged counter totals: "
                f"{counts} != {reference_counts}"
            )
        best = None
        snap = None
        samples = latencies.setdefault(f"workers={workers}", [])
        for _ in range(TIMING_ROUNDS):
            _, counters, elapsed = measure(lambda: run_mix(db, plans))
            samples.append(elapsed)
            if best is None or elapsed < best:
                best, snap = elapsed, counters
        seconds[workers] = best
        series.add(
            workers,
            seconds=best,
            speedup_vs_1=round(seconds[WORKER_SWEEP[0]] / best, 3),
            cost=snap.weighted_cost(),
            comparisons=snap.comparisons,
            traversals=snap.traversals,
            hashes=snap.hashes,
        )
    configure_engine(db, engine="tuple")
    return seconds, latencies


def main() -> None:
    db = build_db()
    plans = query_mix()

    series = SeriesCollector(
        f"Morsel-parallel batch engine - query mix 60/20/20, "
        f"|Orders|={N_OUTER}, |Parts|={N_INNER}, morsel={MORSEL_SIZE}",
        "workers",
        [
            "seconds",
            "speedup_vs_1",
            "cost",
            "comparisons",
            "traversals",
            "hashes",
        ],
    )
    seconds, latencies = run_query_mix(db, plans, series)

    baseline = seconds[WORKER_SWEEP[0]]
    speedups = {
        workers: round(baseline / elapsed, 3)
        for workers, elapsed in seconds.items()
    }
    series.publish(
        "parallel_query_mix",
        extra={
            "speedups": {str(k): v for k, v in speedups.items()},
            "pool": _pool_mode(),
            "cpu_count": _cpu_count(),
            "morsel_size": MORSEL_SIZE,
            "queries": N_QUERIES,
            "mix": {"selections": 18, "joins": 6, "projections": 6},
        },
        config={"engine": "batch", "workers": list(WORKER_SWEEP)},
        latencies=latencies,
    )
    print(f"speedups vs workers={WORKER_SWEEP[0]}: {speedups}")


if __name__ == "__main__":
    main()
