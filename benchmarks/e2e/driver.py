"""One closed-loop client driving one workload in this process.

``untraced_run`` yields the end-to-end metrics: it sets the workload up
(``SETUPS`` times, for a steady ``setup_s``), then sends whole rounds of
the statement stream, one statement at a time, each only after the
previous one returned, until the requested seconds of timed region have
passed.  Statement texts are generated, and results checked against the
driver's model, *between* rounds; the little bookkeeping that has to
happen inside a round is taken off the round's clocks.  The timed region
is the sum of the round loops, so the client is in neither throughput,
latency nor CPU.

``traced_run`` yields the per-layer metrics: a fixed number of rounds
under the tracer and ``counters_scope()`` (fixed, so the Section-3.1
counts repeat exactly), then an untraced stretch that is the base of
``trace.overhead_ratio``: the very same statements again where the
stream only reads, the next rounds of the stream where it writes.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.instrument import counters_scope

from benchmarks.e2e import metrics as m
from benchmarks.e2e.digest import Digester
from benchmarks.e2e.layers import layer_metrics, write_latencies
from benchmarks.e2e.trace import ROOT_LAYER, Tracer, layer_sites
from benchmarks.e2e.workloads import (
    MAINT, READ, WRITE, Op, Workload, stream_hash,
)

HASH_MASK = (1 << 64) - 1
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


class Recorder:
    """Latencies, counts and failures of the rounds executed so far."""

    def __init__(self, keep_all: bool = False) -> None:
        self.ops = 0
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.latency: Dict[str, List[float]] = {READ: [], WRITE: [], MAINT: []}
        #: One entry per round: operations, loop seconds, CPU seconds and
        #: the read latencies' median and 95th percentile.  The end-to-end
        #: metrics are medians over rounds, so a few seconds of a noisy
        #: neighbour move a few rounds and not the result.
        self.rounds: List[Dict[str, float]] = []
        #: Maintenance latencies by call name.
        self.maintenance: Dict[str, List[float]] = {}
        self.rows_out = 0
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        #: ``(op, rows)`` of the executed statements, in order: all of
        #: them for a traced prefix (``keep_all``), else every tenth.
        #: Keeping 100,000 statement texts would put the client's memory
        #: into ``peak_rss_mb``, and more of it the faster the engine.
        self.keep_all = keep_all
        self.executed: List[Tuple[Op, int]] = []
        #: Hash of the first round executed: the same statements
        #: whatever the run length or trace mode.
        self.stream_hash: Optional[str] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            sys.stderr.write(f"e2e: FAILED CHECK: {message}\n")

    def absorb(self, other: "Recorder") -> None:
        """Take over another recorder's checks (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        if self.first_error is None:
            self.first_error = other.first_error

    def stmts_per_s(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    def mean_latency(self) -> float:
        total = sum(sum(values) for values in self.latency.values())
        return total / self.ops if self.ops else 0.0


def execute_round(
    workload: Workload,
    ops: Sequence[Op],
    rec: Recorder,
    tracer: Optional[Tracer] = None,
    folded: Optional[Dict[str, List[int]]] = None,
    digester: Optional[Digester] = None,
    children_cpu: bool = False,
) -> None:
    """Run ``ops`` in order against the workload's database.

    The loop holds the call, the clock and the row count.  What the
    client must do between two statements is timed by itself and taken
    off the round's wall-clock and CPU seconds: copying a checked result
    (now, because a later statement may delete the row behind a pointer)
    and, when ``folded`` is given, digesting the result per statement
    class as ``[statements, rows, sum of hashes]`` (outside the
    statement's root span and the enclosing counter scope too).
    """
    db = workload.db
    clock = time.perf_counter
    cpu = time.process_time
    count = len(ops)
    latency = [0.0] * count
    rows = [0] * count
    kept: List[Tuple[Op, Any]] = []
    base = rec.ops
    client_seconds = client_cpu = 0.0
    cpu_before = cpu()
    if children_cpu:
        cpu_before += m.children_cpu_seconds()
    started = clock()
    for i, op in enumerate(ops):
        result = None
        if tracer is None:
            t0 = clock()
            try:
                result = op.run(db)
                rows[i] = result if result.__class__ is int else len(result)
            except Exception:
                rows[i] = -1
                rec.fail(f"{op.text()!r} raised:\n{traceback.format_exc()}")
            latency[i] = clock() - t0
        else:
            root = tracer.begin(op.cls, ROOT_LAYER, base + i)
            try:
                result = op.run(db)
                rows[i] = result if result.__class__ is int else len(result)
            except Exception:
                rows[i] = -1
                rec.fail(f"{op.text()!r} raised:\n{traceback.format_exc()}")
            tracer.end(root)
            span = tracer.spans[root]
            latency[i] = span[5] - span[4]
        checked = op.check is not None and i % 10 == 0 and result is not None
        if checked or folded is not None:
            t0, c0 = clock(), cpu()
            if checked:
                kept.append((op, result.materialize()))
            if folded is not None:
                with counters_scope():
                    result_rows, result_hash = digester.digest(result)
                entry = folded.setdefault(op.cls, [0, 0, 0])
                entry[0] += 1
                entry[1] += result_rows
                entry[2] = (entry[2] + result_hash) & HASH_MASK
            client_seconds += clock() - t0
            client_cpu += cpu() - c0
    elapsed = clock() - started - client_seconds
    cpu_after = cpu()
    if children_cpu:
        cpu_after += m.children_cpu_seconds()
    cpu_seconds = cpu_after - cpu_before - client_cpu
    rec.seconds += elapsed
    rec.cpu_seconds += cpu_seconds
    reads = [latency[i] for i, op in enumerate(ops) if op.rw == READ]
    rec.rounds.append({
        "ops": count,
        "seconds": elapsed,
        "cpu_seconds": cpu_seconds,
        "read_p50": m.percentile(reads, 0.50) if reads else 0.0,
        "read_p95": m.percentile(reads, 0.95) if reads else 0.0,
    })

    if rec.stream_hash is None:
        rec.stream_hash = stream_hash(ops)
    for i, op in enumerate(ops):
        rec.latency[op.rw].append(latency[i])
        if op.rw == MAINT:
            rec.maintenance.setdefault(op.cls, []).append(latency[i])
        elif op.rw == READ and rows[i] > 0:
            rec.rows_out += rows[i]
        if op.expect is not None and rows[i] >= 0 and rows[i] != op.expect:
            rec.fail(
                f"{op.text()!r} returned {rows[i]} rows, model says "
                f"{op.expect}"
            )
        if rec.keep_all or (rec.ops + i) % 10 == 0:
            rec.executed.append((op, rows[i]))
    rec.ops += count
    rec.attempted += count
    for op, values in kept:
        rec.attempted += 1
        if values != [op.check]:
            rec.fail(f"{op.text()!r} returned {values}, model says {op.check}")


def run_unrecorded(
    workload: Workload, rec: Recorder, rounds: Iterable[Sequence[Op]]
) -> Recorder:
    """Execute ``rounds`` into a scratch recorder; only their checks
    reach ``rec``."""
    scratch = Recorder()
    for ops in rounds:
        execute_round(workload, ops, scratch)
    rec.absorb(scratch)
    return scratch


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #


class Verifier:
    """What a workload's ``verify`` may use: untimed execution, digests
    and the oracle comparison.  Checks count into the recorder."""

    def __init__(self, workload: Workload, rec: Recorder) -> None:
        self.workload = workload
        self.rec = rec
        self.digester = Digester(workload.db)
        self.extras: Dict[str, float] = {}

    def run_ops(self, ops: Sequence[Op]) -> None:
        """Execute ``ops`` untimed; failures and model mismatches count."""
        run_unrecorded(self.workload, self.rec, [ops])

    def check(self, ok: bool, message: str) -> None:
        self.rec.attempted += 1
        if not ok:
            self.rec.fail(message)

    def digest(self, op: Op) -> List[int]:
        return self.digester.digest(op.run(self.workload.db))

    def oracle_compare(
        self,
        ops: Sequence[Op],
        reference: Sequence[List[int]],
        budget_s: float,
    ) -> None:
        """Re-run ``ops`` on the reference configuration (tuple engine,
        caches off, written join order) and compare digests, stopping
        once ``budget_s`` is spent (never before two statements)."""
        workload = self.workload
        workload.oracle()
        started = time.perf_counter()
        try:
            for done, (op, expected) in enumerate(zip(ops, reference)):
                if done >= 2 and time.perf_counter() - started > budget_s:
                    break
                self.check(
                    self.digest(op) == expected,
                    f"{op.text()!r}: oracle digest differs from {expected}",
                )
        finally:
            workload.configure()


def check_expected(
    rec: Recorder,
    expected: Dict[str, Any],
    folded: Dict[str, List[int]],
    tables: Dict[str, List[int]],
) -> None:
    """Compare the traced prefix against the committed digests."""
    for kind, got, want in (
        ("statement", folded, expected["statements"]),
        ("table", tables, expected["tables"]),
    ):
        rec.attempted += 1
        if got != want:
            wrong = sorted(
                name for name in set(got) | set(want)
                if got.get(name) != want.get(name)
            )
            rec.fail(
                f"{kind} digests of {wrong} differ from "
                f"expected_digests.json: got "
                f"{ {name: got.get(name) for name in wrong} }"
            )


def record_digests(workload: Workload) -> Dict[str, Any]:
    """The traced prefix replayed on the oracle configuration (plain
    tuple engine, caches off, written join order): what
    ``expected_digests.json`` holds."""
    rec = Recorder()
    set_up(workload, rec, 1)
    settle(workload, rec)
    workload.oracle()
    digester = Digester(workload.db)
    folded: Dict[str, List[int]] = {}
    for _ in range(workload.traced_rounds):
        execute_round(
            workload, workload.next_round(), rec, None, folded, digester
        )
    tables = table_digests(workload, digester)
    workload.close()
    if rec.failed:
        raise RuntimeError(f"oracle replay failed: {rec.first_error}")
    return {"statements": folded, "tables": tables}


def table_digests(workload: Workload, digester: Digester) -> Dict[str, List[int]]:
    db = workload.db
    return {
        relation.name: digester.digest(db.select(relation.name))
        for relation in db.catalog
    }


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #


def set_up(workload: Workload, rec: Recorder, repeats: int) -> Dict[str, float]:
    """Schema + load + configure + warm-up round, ``repeats`` times.

    Returns the median set-up time and the memory the first load took.
    The last database built is the one the run measures.
    """
    times: List[float] = []
    rss_per_row = 0.0
    for attempt in range(repeats):
        if attempt:
            workload.close()
            gc.collect()
        rss_before = m.current_rss_bytes()
        started = time.perf_counter()
        workload.setup()
        if attempt == 0:
            rss_per_row = (
                (m.current_rss_bytes() - rss_before) / workload.rows_loaded
            )
        run_unrecorded(workload, rec, [workload.warmup_round()])
        times.append(time.perf_counter() - started)
    # Long-lived rows out of the collector's way: a full collection over
    # a 30,000-row database in the middle of a round is a 50 ms outlier
    # that says nothing about the engine.
    gc.collect()
    gc.freeze()
    return {"setup_s": statistics.median(times), "rss_bytes_per_row": rss_per_row}


def settle(workload: Workload, rec: Recorder) -> None:
    """The workload's extra untimed rounds before a traced prefix."""
    run_unrecorded(
        workload, rec,
        (workload.next_round() for _ in range(workload.settle_rounds)),
    )


# --------------------------------------------------------------------------- #
# the two runs
# --------------------------------------------------------------------------- #


def timed_rounds(workload: Workload, rec: Recorder, seconds: float) -> int:
    """Whole rounds, at least one, until ``seconds`` of timed region have
    passed."""
    rounds = 0
    children = workload.workers > 1
    while True:
        execute_round(
            workload, workload.next_round(), rec, children_cpu=children
        )
        rounds += 1
        if rec.seconds >= seconds:
            return rounds


def untraced_run(
    workload: Workload, seconds: float
) -> Tuple[Recorder, Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of one workload."""
    rec = Recorder()
    setup = set_up(workload, rec, SETUPS)
    rounds = timed_rounds(workload, rec, seconds)
    # Before verification: the oracle replay's transients are not the
    # workload's memory.
    peak_rss = m.peak_rss_mb()
    verify_started = time.perf_counter()
    verifier = Verifier(workload, rec)
    workload.verify(verifier, seconds)
    verify_s = time.perf_counter() - verify_started
    per_round = rec.rounds
    values = {
        "setup_s": setup["setup_s"],
        "stmts_per_s": statistics.median(
            r["ops"] / r["seconds"] for r in per_round
        ),
        "read_p50_ms": statistics.median(
            r["read_p50"] for r in per_round
        ) * 1e3,
        "read_p95_ms": statistics.median(
            r["read_p95"] for r in per_round
        ) * 1e3,
        "cpu_ms_per_stmt": statistics.median(
            r["cpu_seconds"] / r["ops"] for r in per_round
        ) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    reads = rec.latency[READ]
    pooled_p95 = m.percentile(reads, 0.95)
    detail = {
        "rounds": rounds,
        "statements": rec.ops,
        "timed_region_s": rec.seconds,
        "samples": {kind: len(v) for kind, v in rec.latency.items()},
        # What the read percentiles rest on: reads in one round (each
        # round gives one p50 and one p95, the run reports their medians)
        # and reads slower than the pooled p95 below.
        "reads_per_round": len(reads) // rounds,
        "reads_beyond_pooled_p95": sum(1 for v in reads if v > pooled_p95),
        "verify_s": verify_s,
        # The same quantities over the whole timed region, for reference.
        "pooled": {
            "stmts_per_s": rec.stmts_per_s(),
            "read_p50_ms": m.percentile(reads, 0.50) * 1e3,
            "read_p95_ms": pooled_p95 * 1e3,
            "cpu_ms_per_stmt": rec.cpu_seconds / rec.ops * 1e3,
        },
        "extras": dict(
            verifier.extras, **write_latencies(rec.latency[WRITE])
        ),
    }
    workload.close()
    return rec, values, detail


def traced_run(
    workload: Workload,
    seconds: float,
    trace_path: Optional[str],
    expected: Optional[Dict[str, Any]],
    meta: Dict[str, Any],
) -> Tuple[Recorder, Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of one workload."""
    run_started = time.perf_counter()
    rec = Recorder()
    setup = set_up(workload, rec, 1)
    settle(workload, rec)
    db = workload.db
    digester = Digester(db)
    prefix = [workload.next_round() for _ in range(workload.traced_rounds)]
    # A stream that only reads can be sent again: the extra measurements
    # below then compare the same statements, not their successors.
    replayable = all(op.rw == READ for ops in prefix for op in ops)

    def comparison_rounds() -> List[List[Op]]:
        return prefix if replayable else [workload.next_round()]

    # 1. The traced prefix: fixed rounds, wrappers on, counters scoped.
    #    A stream that writes has to be digested as it runs; one that
    #    only reads is digested in a pass of its own during verification,
    #    so that neither the client's pauses between statements nor the
    #    digester's memory differ between this pass and the next.
    traced = Recorder(keep_all=True)
    folded: Optional[Dict[str, List[int]]] = (
        {} if expected is not None and not replayable else None
    )
    cache_before = db.cache_stats()
    sched_before = db.scheduler_stats()
    disk = db.recovery.disk if db.recovery is not None else None
    disk_before = disk.bytes_written if disk is not None else 0
    tracer = Tracer()
    tracer.install(layer_sites(workload.per_row_layers))
    try:
        with counters_scope() as scope:
            for ops in prefix:
                execute_round(
                    workload, ops, traced, tracer, folded, digester
                )
        counters = scope.snapshot()
    finally:
        tracer.restore()
    cache_after = db.cache_stats()
    sched_after = db.scheduler_stats()
    disk_written = (disk.bytes_written - disk_before) if disk else 0
    if folded is not None:
        check_expected(
            traced, expected, folded, table_digests(workload, digester)
        )
    # The spans live until the run ends: out of the collector's way, like
    # the loaded database, or every later pass pays for scanning them.
    gc.freeze()

    # 2. The untraced stretch: the base of trace.overhead_ratio and the
    #    source of the write latencies and maintenance stalls.
    untraced = Recorder()
    if replayable:
        for ops in prefix:
            execute_round(workload, ops, untraced)
    else:
        spent = time.perf_counter() - run_started - setup["setup_s"]
        timed_rounds(workload, untraced, max(0.0, seconds - spent) / 2.0)

    # 3. Worker telemetry needs observability (metrics only), which makes
    #    the scheduler pickle every payload twice; it gets its own pass
    #    so the spans above time the wire the untraced run uses.
    telemetry: Dict[str, float] = {}
    serial_base = 0.0
    if workload.workers > 1:
        telemetry = telemetry_round(workload, rec, comparison_rounds())
        serial_base = serial_round(workload, rec, comparison_rounds())

    # 4. Cost of the engine's own observability.
    obs_slowdown = 0.0
    if workload.obs_round:
        obs_slowdown = (
            observability_round(workload, rec, comparison_rounds())
            / untraced.mean_latency()
        )

    verify_started = time.perf_counter()
    if expected is not None and replayable:
        folded = {}
        digested = Recorder()
        for ops in prefix:
            execute_round(workload, ops, digested, None, folded, digester)
        rec.absorb(digested)
        check_expected(
            rec, expected, folded, table_digests(workload, digester)
        )
    rec.stream_hash = traced.stream_hash
    # The sample ``verify`` may replay: a third of the traced statements.
    rec.executed = traced.executed[::3]
    rec.absorb(traced)
    rec.absorb(untraced)
    verifier = Verifier(workload, rec)
    workload.verify(verifier, seconds)
    verify_s = time.perf_counter() - verify_started

    summary = tracer.summary()
    values = layer_metrics(
        workload=workload,
        summary=summary,
        traced=traced,
        untraced=untraced,
        counters=counters,
        cache=(cache_before, cache_after),
        scheduler=(sched_before, sched_after),
        disk_written=disk_written,
        telemetry=telemetry,
        extras=dict(
            verifier.extras,
            obs_slowdown=obs_slowdown,
            serial_base=serial_base,
            rss_bytes_per_row=setup["rss_bytes_per_row"],
            verify_s=verify_s,
        ),
    )
    detail = {
        "traced_statements": traced.ops,
        "untraced_statements": untraced.ops,
        "spans": len(tracer.spans),
        "layer_self_s": dict(summary.layer_self),
        "root_s": summary.root_seconds,
        "samples": {kind: len(v) for kind, v in untraced.latency.items()},
        "untraced_is_replay": replayable,
        "wrappers_restored": tracer.restored(),
        "expected_digests_checked": expected is not None,
    }
    if trace_path is not None:
        tracer.dump(trace_path, meta)
        detail["trace_file"] = trace_path
    workload.close()
    return rec, values, detail


def telemetry_round(
    workload: Workload, rec: Recorder, rounds: Sequence[Sequence[Op]]
) -> Dict[str, float]:
    """``rounds`` with metrics-only observability: pipe bytes, worker
    busy time and queue wait from ``db.scheduler_stats()``."""
    from repro.obs import ObservabilityConfig

    db = workload.db
    db.configure_observability(
        ObservabilityConfig(
            tracing=False, metrics=True, slow_query_ops=None,
            flight_recorder=False,
        )
    )
    before = db.scheduler_stats()
    try:
        scratch = run_unrecorded(workload, rec, rounds)
    finally:
        db.configure_observability(
            ObservabilityConfig(tracing=False, metrics=False)
        )
    after = db.scheduler_stats()
    morsels = after["morsels"] - before["morsels"]
    busy = sum(w["busy_seconds"] for w in after["workers"].values())
    wait = sum(w["queue_wait_seconds"] for w in after["workers"].values())
    pipe = (
        after["dispatch_bytes"] - before["dispatch_bytes"]
        + after["result_bytes"] - before["result_bytes"]
    )
    return {
        "pipe_bytes_per_stmt": pipe / scratch.ops,
        "worker_busy_frac": busy / (workload.workers * scratch.seconds),
        "queue_wait_ms_per_morsel": wait / morsels * 1e3 if morsels else 0.0,
    }


def observability_round(
    workload: Workload, rec: Recorder, rounds: Sequence[Sequence[Op]]
) -> float:
    """``rounds`` with ``configure_observability()`` defaults on; returns
    their mean statement latency."""
    from repro.obs import ObservabilityConfig

    db = workload.db
    db.configure_observability()
    try:
        scratch = run_unrecorded(workload, rec, rounds)
    finally:
        db.configure_observability(
            ObservabilityConfig(tracing=False, metrics=False)
        )
    return scratch.mean_latency()


def serial_round(
    workload: Workload, rec: Recorder, rounds: Sequence[Sequence[Op]]
) -> float:
    """The same database on one worker: statements per second of
    ``rounds``, the base of ``parallel.speedup_vs_serial``."""
    workload.db.configure_execution(engine="batch")
    try:
        scratch = run_unrecorded(workload, rec, rounds)
    finally:
        workload.configure()
    return 1.0 / scratch.mean_latency()
