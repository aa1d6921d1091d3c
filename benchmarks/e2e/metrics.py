"""Metric names, units and directions, plus the host measurements.

``BENCHMARK.json`` lists the same names; the smoke test asserts that the
two agree, so a metric cannot be added to one and forgotten in the other.
"""

from __future__ import annotations

import os
import resource
from typing import Dict, List, Sequence, Tuple

LOWER, HIGHER = "lower", "higher"

#: End-to-end metrics (untraced run): name -> (unit, better, bound).
#: ``BENCHMARK.json`` can only carry metrics every workload has and that
#: are never zero, so these six are the ones it lists.
#:
#: The time bounds are the contract's largest, not the 10% / 15% the
#: issue proposed: the 2-core reference VM changes speed by 10-17% in
#: levels that last tens of minutes, with disturbances of seconds to
#: minutes on top.  ``reference/set_a.json`` and ``set_b.json`` are two
#: calm sets of one commit taken one after the other (spreads of 1-7% on
#: three workloads, 11-17% on ``chain_cached``); their medians are 10-17%
#: apart on three workloads, so at the issue's bounds ``compare`` reports
#: 13 regressions of the commit against itself, and none at these.
#: ``reference/set_disturbed.json``, half an hour earlier, shows what a
#: disturbance does.  Differences smaller than the bound are for
#: interleaved pairs of parent and change to resolve, not for a bound.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", LOWER, 0.25),
    "stmts_per_s": ("1/s", HIGHER, 0.25),
    "read_p50_ms": ("ms", LOWER, 0.25),
    "read_p95_ms": ("ms", LOWER, 0.25),
    "cpu_ms_per_stmt": ("ms", LOWER, 0.25),
    "peak_rss_mb": ("MB", LOWER, 0.10),
}

#: End-to-end metrics only some workloads have: write latency
#: (``oltp_point``, ``chain_cached``) and restart time (``oltp_point``).
#: The untraced run reports them in its detail line and ``compare`` gates
#: them like the six above.
SOME_WORKLOADS: Dict[str, Tuple[str, str, float]] = {
    "write_p50_ms": ("ms", LOWER, 0.25),
    "write_p95_ms": ("ms", LOWER, 0.25),
    "recover_s": ("s", LOWER, 0.25),
}

#: Per-layer metrics (traced run): name -> (unit, better).  A value of 0
#: means the layer is not exercised (or not wrapped) on that workload.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sql.lex_us_per_stmt": ("us", LOWER),
    "sql.parse_us_per_stmt": ("us", LOWER),
    "sql.interp_self_us_per_stmt": ("us", LOWER),
    "sql.share": ("ratio", LOWER),
    "cache.lookup_us_per_stmt": ("us", LOWER),
    "cache.ast_hit_rate": ("ratio", HIGHER),
    "cache.plan_hit_rate": ("ratio", HIGHER),
    "cache.result_hit_rate": ("ratio", HIGHER),
    "cache.evictions": ("count", LOWER),
    "cache.invalidations": ("count", LOWER),
    "cache.share": ("ratio", LOWER),
    "optimizer.plan_us_per_stmt": ("us", LOWER),
    "optimizer.chain_dp_ms_per_call": ("ms", LOWER),
    "optimizer.share": ("ratio", LOWER),
    "executor.exec_ms_per_stmt": ("ms", LOWER),
    "executor.select_ms_p50": ("ms", LOWER),
    "executor.join_ms_p50": ("ms", LOWER),
    "executor.dedup_ms_p50": ("ms", LOWER),
    "executor.rows_out_per_s": ("1/s", HIGHER),
    "executor.share": ("ratio", LOWER),
    "vectorized.deref_hit_rate": ("ratio", HIGHER),
    "vectorized.deref_saved_traversals_per_stmt": ("count", HIGHER),
    "parallel.sched_run_ms_per_stmt": ("ms", LOWER),
    "parallel.merge_self_ms_per_stmt": ("ms", LOWER),
    "parallel.pack_ms_per_stmt": ("ms", LOWER),
    "parallel.share": ("ratio", LOWER),
    "parallel.morsels_per_stmt": ("count", LOWER),
    "parallel.pipe_bytes_per_stmt": ("bytes", LOWER),
    "parallel.pool_forks": ("count", LOWER),
    "parallel.inline_fallbacks": ("count", LOWER),
    "parallel.retries": ("count", LOWER),
    "parallel.worker_busy_frac": ("ratio", HIGHER),
    "parallel.queue_wait_ms_per_morsel": ("ms", LOWER),
    "parallel.speedup_vs_serial": ("ratio", HIGHER),
    "parallel.serial_base_stmts_per_s": ("1/s", HIGHER),
    "engine.share": ("ratio", LOWER),
    "indexes.search_us": ("us", LOWER),
    "indexes.insert_us": ("us", LOWER),
    "indexes.delete_us": ("us", LOWER),
    "indexes.compares_per_search": ("count", LOWER),
    "indexes.share": ("ratio", LOWER),
    "storage.dml_self_us_per_write": ("us", LOWER),
    "storage.rss_bytes_per_row": ("bytes", LOWER),
    "storage.share": ("ratio", LOWER),
    "txn.commit_us_per_transfer": ("us", LOWER),
    "recovery.log_append_us_per_write": ("us", LOWER),
    "recovery.disk_bytes_per_user_byte": ("ratio", LOWER),
    "recovery.propagate_ms_per_call": ("ms", LOWER),
    "recovery.checkpoint_ms": ("ms", LOWER),
    "recovery.stall_frac": ("ratio", LOWER),
    "recovery.restart_partitions_per_s": ("1/s", HIGHER),
    "recovery.records_merged": ("count", LOWER),
    "recovery.share": ("ratio", LOWER),
    "txn.share": ("ratio", LOWER),
    "instrument.weighted_ops_per_stmt": ("count", LOWER),
    "instrument.comparisons_per_stmt": ("count", LOWER),
    "instrument.moves_per_stmt": ("count", LOWER),
    "instrument.hashes_per_stmt": ("count", LOWER),
    "instrument.traversals_per_stmt": ("count", LOWER),
    "instrument.allocations_per_stmt": ("count", LOWER),
    "obs.enabled_slowdown": ("ratio", LOWER),
    "trace.overhead_ratio": ("ratio", LOWER),
    "trace.untraced_stmts_per_s": ("1/s", HIGHER),
    "trace.accounted_share": ("ratio", HIGHER),
    "write_p50_ms": ("ms", LOWER),
    "write_p95_ms": ("ms", LOWER),
    "recover_s": ("s", LOWER),
    "verify_s": ("s", LOWER),
}

#: Per-layer metrics that are counts made by the program: two runs of the
#: same commit and seed must print them identically.
EXACT_PREFIXES = ("instrument.",)
EXACT_NAMES = (
    "cache.ast_hit_rate", "cache.plan_hit_rate", "cache.result_hit_rate",
    "cache.evictions", "cache.invalidations", "parallel.morsels_per_stmt",
    "indexes.compares_per_search", "vectorized.deref_hit_rate",
    "vectorized.deref_saved_traversals_per_stmt",
)


def is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES


def percentile(values: Sequence[float], q: float) -> float:
    """Sample quantile with linear interpolation between ranks.

    The same definition as ``benchmarks/harness.percentile``, which this
    package must not import: ``harness`` reads ``REPRO_*`` variables and
    ``sys.argv`` at import, and it lies outside ``BENCHMARK.json``'s
    ``paths``, so a later change to it would change this benchmark.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _live_children() -> List[int]:
    me = os.getpid()
    pids: List[int] = []
    task_dir = f"/proc/{me}/task"
    try:
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        return pids
    except OSError:
        pass
    # Kernels without CONFIG_PROC_CHILDREN: look for our pid as parent.
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                pids.append(int(entry))
    return pids


def children_cpu_seconds() -> float:
    """CPU seconds of this process's children: the reaped ones from
    ``getrusage`` plus the live ones (pool workers) from ``/proc``."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total
