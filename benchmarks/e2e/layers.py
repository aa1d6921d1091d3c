"""Per-layer metrics from one traced run.

Every metric is derived from a span total, a Section-3.1 counter, or a
statistic the engine already publishes (``cache_stats()``,
``scheduler_stats()``, the simulated disk's byte counters); nothing here
estimates.  A metric whose layer the workload does not exercise is 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import metrics as m
from benchmarks.e2e.trace import TraceSummary
from benchmarks.e2e.workloads import MAINT, READ, WRITE

#: Span names of the cache layer's entry points.
CACHE_SPANS = (
    "ast_lookup", "ast_store", "plan_lookup", "plan_store",
    "result_lookup", "result_store", "subtree_lookup", "subtree_store",
)
#: Statement classes whose executor time feeds the select/join medians.
SELECT_CLASSES = ("select", "range", "disjunct", "filter")
JOIN_CLASSES = ("join", "wide", "chain3", "chain4", "chain5")
#: Client bytes per field value written (every column is an integer).
FIELD_BYTES = 8
USER_FIELDS = {"insert": 3, "update": 1, "delete": 1, "transfer": 2}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def write_latencies(writes: List[float]) -> Dict[str, float]:
    """``write_p50_ms`` / ``write_p95_ms``; nothing without writes."""
    if not writes:
        return {}
    return {
        "write_p50_ms": m.percentile(writes, 0.50) * 1e3,
        "write_p95_ms": m.percentile(writes, 0.95) * 1e3,
    }


def _cache_delta(before: Dict, after: Dict, layer: str) -> Dict[str, int]:
    keys = ("hits", "misses", "evictions", "invalidations")
    if layer not in after:
        return dict.fromkeys(keys, 0)
    start = before.get(layer, {})
    return {key: after[layer][key] - start.get(key, 0) for key in keys}


def layer_metrics(
    workload,
    summary: TraceSummary,
    traced,
    untraced,
    counters,
    cache: Tuple[Dict, Dict],
    scheduler: Tuple[Optional[Dict], Optional[Dict]],
    disk_written: int,
    telemetry: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """All of ``metrics.PER_LAYER`` for one workload."""
    stmts = summary.statements
    values = dict.fromkeys(m.PER_LAYER, 0.0)
    #: Statements per second of the untraced stretch, on a latency basis
    #: (the basis the traced prefix has too).
    untraced_rate = _ratio(1.0, untraced.mean_latency())

    def per_stmt_us(seconds: float) -> float:
        return _ratio(seconds, stmts) * 1e6

    def per_stmt_ms(seconds: float) -> float:
        return _ratio(seconds, stmts) * 1e3

    # -- sql ---------------------------------------------------------------
    values["sql.lex_us_per_stmt"] = per_stmt_us(summary.seconds("lex"))
    values["sql.parse_us_per_stmt"] = per_stmt_us(
        summary.self_seconds("parse")
    )
    values["sql.interp_self_us_per_stmt"] = per_stmt_us(
        summary.self_seconds("interpret")
    )
    for layer in ("sql", "cache", "optimizer", "executor", "parallel",
                  "engine", "indexes", "storage", "txn", "recovery"):
        values[f"{layer}.share"] = summary.share(layer)

    # -- cache -------------------------------------------------------------
    values["cache.lookup_us_per_stmt"] = per_stmt_us(
        sum(summary.seconds(name) for name in CACHE_SPANS)
    )
    ast = _cache_delta(*cache, "ast")
    plan = _cache_delta(*cache, "plan")
    result = _cache_delta(*cache, "result")
    values["cache.ast_hit_rate"] = _ratio(
        ast["hits"], ast["hits"] + ast["misses"]
    )
    # A stale plan is found (an LRU hit) and then discarded.
    values["cache.plan_hit_rate"] = _ratio(
        plan["hits"] - plan["invalidations"], plan["hits"] + plan["misses"]
    )
    if workload.caches:
        # Statement level: a SELECT answered without reaching the executor.
        selects = [
            index for index, (op, _rows) in enumerate(traced.executed)
            if op.rw == READ
        ]
        executed = summary.per_statement("execute", selects)
        values["cache.result_hit_rate"] = _ratio(
            sum(1 for seconds in executed if seconds == 0.0), len(selects)
        )
    values["cache.evictions"] = float(
        ast["evictions"] + plan["evictions"] + result["evictions"]
    )
    values["cache.invalidations"] = float(
        ast["invalidations"] + plan["invalidations"]
        + result["invalidations"]
    )

    # -- optimizer ---------------------------------------------------------
    values["optimizer.plan_us_per_stmt"] = per_stmt_us(
        summary.outermost_seconds("plan_selection")
        + summary.outermost_seconds("plan_join")
    )
    values["optimizer.chain_dp_ms_per_call"] = (
        _ratio(summary.seconds("chain_dp"), summary.calls("chain_dp")) * 1e3
    )

    # -- executor ----------------------------------------------------------
    execute_seconds = summary.outermost_seconds("execute")
    values["executor.exec_ms_per_stmt"] = per_stmt_ms(execute_seconds)
    by_class: Dict[str, list] = {}
    for index, (op, _rows) in enumerate(traced.executed):
        by_class.setdefault(op.cls, []).append(index)

    def class_times(classes, name: str) -> list:
        indexes = [i for cls in classes for i in by_class.get(cls, ())]
        return [
            seconds for seconds in summary.per_statement(name, indexes)
            if seconds > 0.0
        ]

    values["executor.select_ms_p50"] = _median_ms(
        class_times(SELECT_CLASSES, "execute")
    )
    values["executor.join_ms_p50"] = _median_ms(
        class_times(JOIN_CLASSES, "execute")
    )
    values["executor.dedup_ms_p50"] = _median_ms(
        class_times(("distinct",), "dedup")
    )
    values["executor.rows_out_per_s"] = _ratio(
        traced.rows_out, execute_seconds + summary.seconds("dedup")
    )
    saved = counters.extra.get("deref_saved_traversals", 0)
    values["vectorized.deref_hit_rate"] = _ratio(saved, counters.traversals)
    values["vectorized.deref_saved_traversals_per_stmt"] = _ratio(saved, stmts)

    # -- parallel ----------------------------------------------------------
    if workload.workers > 1:
        before, after = scheduler
        values["parallel.sched_run_ms_per_stmt"] = per_stmt_ms(
            summary.seconds("sched_run")
        )
        values["parallel.merge_self_ms_per_stmt"] = per_stmt_ms(
            summary.self_seconds("execute")
        )
        values["parallel.pack_ms_per_stmt"] = per_stmt_ms(
            summary.seconds("pack")
        )
        values["parallel.morsels_per_stmt"] = _ratio(
            after["morsels"] - before["morsels"], stmts
        )
        values["parallel.pool_forks"] = float(after["pool_forks"])
        values["parallel.inline_fallbacks"] = float(after["inline_runs"])
        values["parallel.retries"] = float(after["morsel_retries"])
        for name in ("pipe_bytes_per_stmt", "worker_busy_frac",
                     "queue_wait_ms_per_morsel"):
            values[f"parallel.{name}"] = telemetry[name]
        values["parallel.serial_base_stmts_per_s"] = extras["serial_base"]
        values["parallel.speedup_vs_serial"] = _ratio(
            untraced_rate, extras["serial_base"]
        )

    # -- indexes / storage / txn / log (wrapped on oltp_point only) --------
    if workload.per_row_layers:
        for name in ("search", "insert", "delete"):
            span = f"index_{name}"
            values[f"indexes.{name}_us"] = (
                _ratio(summary.seconds(span), summary.calls(span)) * 1e6
            )
        values["indexes.compares_per_search"] = _ratio(
            summary.count("index_search"), summary.calls("index_search")
        )
        writes = sum(1 for op, _ in traced.executed if op.rw == WRITE)
        values["storage.dml_self_us_per_write"] = (
            _ratio(summary.self_seconds("dml"), writes) * 1e6
        )
        transfers = sum(1 for op, _ in traced.executed if op.cls == "transfer")
        values["txn.commit_us_per_transfer"] = (
            _ratio(summary.seconds("commit"), transfers) * 1e6
        )
        values["recovery.log_append_us_per_write"] = (
            _ratio(summary.seconds("log_append"), writes) * 1e6
        )
        user_bytes = FIELD_BYTES * sum(
            USER_FIELDS.get(op.cls, 0) for op, _ in traced.executed
        )
        values["recovery.disk_bytes_per_user_byte"] = _ratio(
            disk_written, user_bytes
        )
    values["storage.rss_bytes_per_row"] = extras["rss_bytes_per_row"]

    # -- maintenance, restart ----------------------------------------------
    maintenance = untraced.latency[MAINT]
    if maintenance:
        propagates = untraced.maintenance.get("propagate_log", [])
        checkpoints = (
            traced.maintenance.get("checkpoint", [])
            + untraced.maintenance.get("checkpoint", [])
        )
        values["recovery.propagate_ms_per_call"] = (
            _ratio(sum(propagates), len(propagates)) * 1e3
        )
        values["recovery.checkpoint_ms"] = (
            _ratio(sum(checkpoints), len(checkpoints)) * 1e3
        )
        values["recovery.stall_frac"] = _ratio(
            sum(maintenance), untraced.seconds
        )
    if "recover_s" in extras:
        values["recover_s"] = extras["recover_s"]
        values["recovery.restart_partitions_per_s"] = _ratio(
            extras["restart_partitions"], extras["recover_s"]
        )
        values["recovery.records_merged"] = float(extras["records_merged"])

    # -- Section-3.1 counts (exact) ----------------------------------------
    values["instrument.weighted_ops_per_stmt"] = _ratio(
        counters.weighted_cost(), stmts
    )
    for name in ("comparisons", "moves", "hashes", "traversals",
                 "allocations"):
        values[f"instrument.{name}_per_stmt"] = _ratio(
            getattr(counters, name), stmts
        )

    # -- the measurement itself --------------------------------------------
    values["obs.enabled_slowdown"] = extras["obs_slowdown"]
    values["trace.untraced_stmts_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = _ratio(
        _ratio(summary.root_seconds, stmts), untraced.mean_latency()
    )
    values["trace.accounted_share"] = summary.accounted_share()
    values.update(write_latencies(untraced.latency[WRITE]))
    values["verify_s"] = extras["verify_s"]
    return values
