"""The morsel scheduler: fans task payloads out to worker processes.

One scheduler serves one catalog.  It owns (at most) one fork-based
``ProcessPoolExecutor`` whose children inherit the catalog snapshot
copy-on-write; the pool is created lazily on the first parallel
dispatch and *re-forked* whenever the catalog fingerprint — every
relation's ``(name, version)``, where versions tick on all DML/DDL —
no longer matches the one the pool was forked under.  Forked-late
workers are safe for the same reason: an unchanged fingerprint means
logically unchanged data.

**Self-healing.**  Failures are handled per morsel, not per run: a
morsel whose future fails (a worker exception or a died worker process)
is retried through the pool up to :data:`RETRY_ATTEMPTS` total runs, with
the pool re-forked first whenever it broke.  A morsel
that exhausts the pool budget is *quarantined*: only it re-executes
inline, while every already-gathered result is kept.  If even the
inline run fails, the query dies with a typed
:class:`~repro.errors.PoisonedMorselError` naming the morsel — the
failure is the morsel's, not the pool's.  Because tasks are pure
functions of the catalog snapshot and their payload, a retried morsel
returns bit-identical ``(result, packed_counts)``; with fault injection
active the scheduler re-verifies that differentially after every
successful pool retry.

Platforms without ``fork`` (and sandboxes whose process pools break at
runtime) degrade to the **inline executor**: the same task functions
run in-process, in the same isolated counter scopes, producing
bit-identical results and counts — only the wall-clock parallelism is
lost.  ``pool="inline"`` forces that mode deterministically for tests
and CI.
"""

from __future__ import annotations

import concurrent.futures
import gc
import itertools
import multiprocessing
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectedFaultError, PoisonedMorselError
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.obs.config import DEFAULT_WORKER_MORSEL_BUCKETS
from repro.query.parallel import tasks
from repro.query.parallel.transport import (
    TRACE_SPANS,
    TRACE_TELEMETRY,
    trace_request,
)

#: Run attempts per morsel before it is quarantined to the inline
#: executor: the first run plus one retry.  Enough to absorb any single
#: transient worker failure without hiding a persistently failing
#: morsel behind a long retry storm.  Retries re-dispatch immediately.
RETRY_ATTEMPTS = 2

#: Process-wide token source for catalog registration slots.
_token_counter = itertools.count(1)


def fork_available() -> bool:
    """Can this platform fork worker processes?"""
    return "fork" in multiprocessing.get_all_start_methods()


def _wire_nbytes(message: Any) -> int:
    """Pipe bytes of one request or result, without re-pickling rows.

    Packed buffers (``bytes`` anywhere in the nested tuples of the
    message: morsels, the broadcast blob) count their ``len()``; what
    is left once they are taken out — tokens, specs, predicates,
    counts, and the keyed results of ``hash_build`` / ``hash_dedup`` —
    is the envelope, pickled as ``pool.submit`` would.
    """
    buffers = 0

    def strip(value: Any) -> Any:
        nonlocal buffers
        if type(value) is bytes:
            buffers += len(value)
            return b""
        if type(value) is tuple:
            return tuple(strip(item) for item in value)
        return value

    envelope = strip(message)
    return buffers + len(
        pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    )


class MorselScheduler:
    """Dispatches morsel tasks for one catalog, merging nothing itself.

    ``run`` preserves payload order: result *i* corresponds to payload
    *i*, so per-morsel outputs concatenate back into the scalar
    engine's row order and per-morsel counts merge in a deterministic
    order.
    """

    def __init__(
        self,
        catalog: Any,
        workers: int,
        pool_mode: str = "process",
    ) -> None:
        self.catalog = catalog
        self.workers = int(workers)
        self.pool_mode = pool_mode
        self.token = next(_token_counter)
        tasks.register_catalog(self.token, catalog)
        self._closed = False
        self._pool = None
        self._pool_fingerprint: Optional[tuple] = None
        self._blob_ids = itertools.count(1)
        #: Why the last run fell back inline (verbose, None when the
        #: last run stayed on the pool).  Reset at the start of every
        #: ``run`` so a stale reason never outlives the run it blames.
        self.fallback_reason: Optional[str] = None
        #: Short label for the same fallback, used as a metric label.
        self.fallback_code: Optional[str] = None
        self.stats = {
            "pool_forks": 0,
            "pool_reforks": 0,
            "process_runs": 0,
            "inline_runs": 0,
            "morsels": 0,
            "morsel_retries": 0,
            "quarantined_morsels": 0,
            "verified_retries": 0,
            # Pipe traffic, measured only when observability is active:
            # what crossed the pool pipe.
            "dispatch_bytes": 0,
            "result_bytes": 0,
        }
        #: Per-worker telemetry accumulated from traced runs, keyed by
        #: worker pid: morsels, busy/queue-wait seconds, retried/
        #: quarantined morsel attribution.  Empty until observability is
        #: active (telemetry only ships with a trace context — the
        #: zero-overhead contract).
        self.worker_stats: Dict[int, Dict[str, Any]] = {}
        #: Per-run fault/retry report for the most recent ``run`` call:
        #: ``{"kind", "faults": {morsel: [actions]}, "retries":
        #: {morsel: n}, "quarantined": {morsel, ...}}`` — consumed by
        #: the engine to annotate ``<op>.morsel`` spans so injected
        #: fault events survive the worker→coordinator round-trip.
        self.last_run: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #

    def fingerprint(self) -> tuple:
        """Every relation's (name, version): the pool-validity stamp."""
        return tuple(
            (relation.name, relation.version) for relation in self.catalog
        )

    def next_blob_id(self) -> int:
        """A fresh id for a broadcast blob (worker-side decode cache)."""
        return next(self._blob_ids)

    def _ensure_pool(self):
        fingerprint = self.fingerprint()
        if (
            self._pool is not None
            and fingerprint == self._pool_fingerprint
        ):
            return self._pool
        self._discard_pool()
        if not fork_available():
            self._note_fallback(
                "no-fork", "no fork start method on this platform"
            )
            return None
        try:
            from concurrent.futures import ProcessPoolExecutor

            # A pool forked inside a SELECT would inherit the paused
            # collector (repro.sql.interpreter); workers run with it on.
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=gc.enable,
            )
        except Exception as exc:  # pragma: no cover - sandbox-dependent
            self._note_fallback(
                "pool-create-failed", f"pool creation failed: {exc!r}"
            )
            return None
        self._pool = pool
        self._pool_fingerprint = fingerprint
        self.stats["pool_forks"] += 1
        return pool

    def _refork_pool(self):
        """Replace a broken pool with a fresh fork, or None."""
        self._discard_pool()
        pool = self._ensure_pool()
        if pool is not None:
            self.stats["pool_reforks"] += 1
            obs_runtime.metric_inc("pool_reforks_total")
        return pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            # wait=True joins the workers and the pool's management
            # thread; detached pools otherwise trip the interpreter's
            # atexit hook on already-closed pipes.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_fingerprint = None

    def close(self) -> None:
        """Shut the pool down and release the catalog slot.

        Idempotent: ``__del__`` closes too, and a second release must
        not pop a token a later scheduler may have been handed (tests
        pin tokens to compare wire captures across instances).
        """
        if self._closed:
            return
        self._closed = True
        self._discard_pool()
        tasks.release_catalog(self.token)

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # failure bookkeeping
    # ------------------------------------------------------------------ #

    def _note_fallback(self, code: str, reason: str) -> None:
        self.fallback_code = code
        self.fallback_reason = reason
        obs_runtime.metric_inc("scheduler_fallback_total", reason=code)

    def _worker_fault(self, kind: str, index: int) -> Optional[str]:
        """The parent-side ``pool.worker`` decision for one dispatch.

        Returns the action to apply ("error" | "kill" | None).  The
        decision is made here, in the parent, so the injector's seeded
        RNG stays in one process and the fault sequence is replayable
        regardless of worker scheduling.
        """
        injector = fault_runtime.active()
        if injector is None:
            return None
        try:
            action = injector.fire("pool.worker", kind=kind, morsel=index)
        except InjectedFaultError:
            self._note_fault(index, "error")
            return "error"
        if action is not None:
            self._note_fault(index, action)
        return action if action == "kill" else None

    def _note_fault(self, index: int, action: str) -> None:
        """Record one fired ``pool.worker`` action in the run report."""
        if self.last_run is not None:
            self.last_run["faults"].setdefault(index, []).append(action)

    def _note_retry(self, index: int) -> None:
        """Record one morsel retry in both stats and the run report."""
        self.stats["morsel_retries"] += 1
        if self.last_run is not None:
            retries = self.last_run["retries"]
            retries[index] = retries.get(index, 0) + 1

    def _trace_mode(self) -> int:
        """Which trace context (if any) this run's requests carry.

        0 when observability is inactive — requests stay two-element
        and the whole telemetry path stays untouched, preserving the
        zero-overhead contract; otherwise telemetry always, spans only
        when a tracer is live (EXPLAIN ANALYZE, ``tracing=True``).
        """
        obs = obs_runtime.active()
        if obs is None:
            return 0
        return TRACE_SPANS if obs.tracer is not None else TRACE_TELEMETRY

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def run(
        self, kind: str, payloads: List[tuple]
    ) -> List[Tuple[Any, tuple]]:
        """Run every ``(kind, payload)`` task; results in payload order.

        Each element of the returned list is ``(result, packed_counts)``
        exactly as :func:`repro.query.parallel.tasks.run_task` returns
        it — plus a trailing telemetry tuple when observability is
        active (callers unpack the first two elements and pass the rest
        to the span-grafting merge).  Per-morsel failures retry through
        the pool (re-forking it when it broke) up to the retry budget,
        then quarantine to one inline re-execution; a broken or
        unavailable pool degrades the whole run to inline execution of
        the same tasks — identical results and counts either way.
        """
        self.fallback_reason = None
        self.fallback_code = None
        self.last_run = {
            "kind": kind,
            "faults": {},
            "retries": {},
            "quarantined": set(),
            "payload_bytes": {},
        }
        mode = self._trace_mode()
        if mode:
            self._measure_dispatch(kind, payloads)
        self.stats["morsels"] += len(payloads)
        results: Optional[List[Tuple[Any, tuple]]] = None
        if self.pool_mode != "inline":
            results = self._run_pooled(kind, payloads, mode)
            if results is not None:
                self.stats["process_runs"] += 1
        if results is None:
            self.stats["inline_runs"] += 1
            results = [
                self._run_inline_one(kind, index, payload, mode=mode)
                for index, payload in enumerate(payloads)
            ]
        if mode:
            self._measure_results(results)
            self._absorb_telemetry(kind, results)
        return results

    # ------------------------------------------------------------------ #
    # pipe-byte accounting
    # ------------------------------------------------------------------ #

    def _measure_dispatch(
        self, kind: str, payloads: List[tuple]
    ) -> None:
        """Tally what dispatch sends through the pool pipe.

        Per request: the ``len()`` of every packed buffer it carries
        plus its pickled envelope (see :func:`_wire_nbytes`) — the
        pipe cost without pickling the rows a second time.
        """
        last_run = self.last_run or {}
        per_morsel = last_run.setdefault("payload_bytes", {})
        for index, payload in enumerate(payloads):
            nbytes = _wire_nbytes((kind, payload))
            per_morsel[index] = nbytes
            self.stats["dispatch_bytes"] += nbytes
            obs_runtime.metric_inc(
                "transport_bytes_total", nbytes, path="dispatch"
            )

    def _measure_results(
        self, results: List[Tuple[Any, tuple]]
    ) -> None:
        """Tally the return pipe the same way."""
        last_run = self.last_run or {}
        per_morsel = last_run.setdefault("payload_bytes", {})
        for index, item in enumerate(results):
            nbytes = _wire_nbytes(tuple(item[:2]))
            per_morsel[index] = per_morsel.get(index, 0) + nbytes
            self.stats["result_bytes"] += nbytes
            obs_runtime.metric_inc(
                "transport_bytes_total", nbytes, path="result"
            )

    # ------------------------------------------------------------------ #
    # telemetry absorption
    # ------------------------------------------------------------------ #

    def _absorb_telemetry(
        self, kind: str, results: List[Tuple[Any, tuple]]
    ) -> None:
        """Fold traced results' telemetry into per-worker stats/metrics.

        Runs only on traced runs (``mode`` nonzero), after every morsel
        has gathered.  Two sinks: ``worker_stats`` (the cumulative
        per-pid dict surfaced through ``db.scheduler_stats()``) and,
        when observability metrics are active, ``worker``-labelled
        series in the registry.
        """
        obs = obs_runtime.active()
        metrics = obs.metrics if obs is not None else None
        last_run = self.last_run or {}
        retries = last_run.get("retries", {})
        quarantined = last_run.get("quarantined", set())
        for index, item in enumerate(results):
            if len(item) < 3:
                continue
            pid, elapsed, queue_wait, _span = item[2]
            stats = self.worker_stats.setdefault(
                pid,
                {
                    "morsels": 0,
                    "busy_seconds": 0.0,
                    "queue_wait_seconds": 0.0,
                    "retried_morsels": 0,
                    "quarantined_morsels": 0,
                },
            )
            stats["morsels"] += 1
            stats["busy_seconds"] += elapsed
            stats["queue_wait_seconds"] += queue_wait
            stats["retried_morsels"] += retries.get(index, 0)
            if index in quarantined:
                stats["quarantined_morsels"] += 1
            if metrics is not None:
                metrics.counter(
                    "worker_morsels_total",
                    "Morsels completed per worker process",
                    worker=pid,
                    kind=kind,
                ).inc()
                metrics.histogram(
                    "worker_morsel_seconds",
                    DEFAULT_WORKER_MORSEL_BUCKETS,
                    "Per-morsel wall-clock per worker process",
                    worker=pid,
                ).observe(elapsed)
                metrics.gauge(
                    "worker_queue_wait_seconds_total",
                    "Cumulative dispatch-to-start wait per worker",
                    worker=pid,
                ).inc(queue_wait)

    # ------------------------------------------------------------------ #
    # pooled path
    # ------------------------------------------------------------------ #

    def _run_pooled(
        self, kind: str, payloads: List[tuple], mode: int = 0
    ) -> Optional[List[Tuple[Any, tuple]]]:
        """All results via the pool, or None for a whole-run fallback.

        Per-morsel retries happen in rounds: every still-pending morsel
        is submitted, the futures gather individually (so one failure
        no longer discards its siblings' results), and only the failed
        morsels carry into the next round.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        injector = fault_runtime.active()
        if injector is not None:
            try:
                injector.fire(
                    "pool.dispatch", kind=kind, morsels=len(payloads)
                )
            except InjectedFaultError as exc:
                # The dispatch path itself is down; the parent snapshot
                # is authoritative, so the whole run degrades inline.
                self._note_fallback(
                    "injected-dispatch-fault",
                    f"injected dispatch fault: {exc}",
                )
                return None
        results: List[Optional[Tuple[Any, tuple]]] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        pending = list(range(len(payloads)))
        retried_ok: List[int] = []
        quarantined: List[int] = []
        while pending:
            actions = {
                index: self._worker_fault(kind, index) for index in pending
            }
            # A killed worker breaks the whole pool, failing whichever
            # siblings are still in flight.  Killed morsels therefore go
            # in a second wave, once every sibling has gathered, so no
            # sibling fails with them and the retries (and every later
            # fault draw) replay exactly, whatever the timing.
            waves = (
                [i for i in pending if actions[i] != "kill"],
                [i for i in pending if actions[i] == "kill"],
            )
            failed: List[int] = []
            pool_broke = False
            for wave in waves:
                futures: Dict[int, Any] = {}
                for index in wave:
                    task_fn = {
                        None: tasks.run_task,
                        "error": tasks.injected_failure,
                        "kill": tasks.worker_exit,
                    }[actions[index]]
                    try:
                        # The dispatch stamp is taken per submit (retries
                        # included) so queue wait measures this attempt's
                        # time on the pool's queue, not the retry saga.
                        futures[index] = pool.submit(
                            task_fn,
                            trace_request(
                                kind, payloads[index], mode, index,
                                time.monotonic(),
                            ),
                        )
                    except Exception:
                        # submit() only fails when the pool itself is
                        # gone; unsubmitted morsels simply stay pending.
                        pool_broke = True
                        break
                for index in wave:
                    future = futures.get(index)
                    if future is None:
                        failed.append(index)
                        continue
                    try:
                        results[index] = future.result()
                        if attempts[index] > 0:
                            retried_ok.append(index)
                    except Exception as exc:
                        failed.append(index)
                        if self._broken_pool_error(exc):
                            pool_broke = True
            failed.sort()
            pending = []
            for index in failed:
                attempts[index] += 1
                if attempts[index] >= RETRY_ATTEMPTS:
                    quarantined.append(index)
                else:
                    pending.append(index)
                    self._note_retry(index)
                    obs_runtime.metric_inc("morsel_retries_total", kind=kind)
            if pool_broke:
                if pending:
                    pool = self._refork_pool()
                    if pool is None:
                        # No pool to retry against: everything unfinished
                        # is quarantined to the inline executor.
                        quarantined.extend(pending)
                        pending = []
                else:
                    # Nothing left to retry; don't leave a broken pool
                    # for the next run to trip over.
                    self._discard_pool()
        for index in quarantined:
            self.stats["quarantined_morsels"] += 1
            if self.last_run is not None:
                self.last_run["quarantined"].add(index)
            obs_runtime.metric_inc("quarantined_morsels_total", kind=kind)
            results[index] = self._run_inline_one(
                kind, index, payloads[index], budget=1, mode=mode
            )
        # Re-run successfully retried morsels inline and assert the
        # results and packed counts are identical (the counter-merge
        # determinism contract) — exactly when fault injection is active.
        if retried_ok and fault_runtime.active() is not None:
            self._verify_retried(kind, payloads, results, retried_ok)
        return results

    @staticmethod
    def _broken_pool_error(exc: BaseException) -> bool:
        # BrokenProcessPool subclasses BrokenExecutor; anything else
        # raised by a future is the task's own failure.
        return isinstance(exc, concurrent.futures.BrokenExecutor)

    def _verify_retried(
        self,
        kind: str,
        payloads: List[tuple],
        results: List[Tuple[Any, tuple]],
        indices: List[int],
    ) -> None:
        """Differential check: a retried morsel must be bit-identical.

        Tasks are pure functions of (catalog snapshot, payload), so a
        retry that succeeded must return exactly what the first attempt
        would have — result *and* packed counts.  Re-running inline (an
        isolated counter scope, no charges leak) and comparing proves
        the merged Section 3.1 totals are unaffected by retries.
        """
        for index in indices:
            replay = tasks.run_task((kind, payloads[index]))
            # Compare only (result, packed_counts) — a traced result
            # carries a trailing telemetry tuple whose wall-clock
            # fields are never bit-stable.
            if replay != tuple(results[index][:2]):
                raise AssertionError(
                    f"retried morsel {index} of {kind!r} diverged from "
                    f"its inline replay — the counter-merge determinism "
                    f"contract is broken"
                )
            self.stats["verified_retries"] += 1
            obs_runtime.metric_inc("verified_retries_total", kind=kind)

    # ------------------------------------------------------------------ #
    # inline path
    # ------------------------------------------------------------------ #

    def _run_inline_one(
        self,
        kind: str,
        index: int,
        payload: tuple,
        budget: Optional[int] = None,
        mode: int = 0,
    ) -> Tuple[Any, tuple]:
        """One morsel inline, with the same bounded retry semantics.

        ``pool.worker`` faults apply here too (both actions surface as
        :class:`InjectedFaultError` — there is no process to kill), so
        chaos runs exercise retry even under ``pool="inline"``.  After
        the budget the morsel is poisoned.
        """
        remaining = RETRY_ATTEMPTS if budget is None else max(1, budget)
        last: Optional[BaseException] = None
        for attempt in range(remaining):
            try:
                action = self._worker_fault(kind, index)
                if action is not None:
                    raise InjectedFaultError("pool.worker", action)
                return tasks.run_task(
                    trace_request(kind, payload, mode, index, time.monotonic())
                )
            except Exception as exc:
                last = exc
                if attempt + 1 < remaining:
                    self._note_retry(index)
                    obs_runtime.metric_inc("morsel_retries_total", kind=kind)
        obs_runtime.metric_inc("poisoned_morsels_total", kind=kind)
        raise PoisonedMorselError(kind, index, repr(last)) from last
