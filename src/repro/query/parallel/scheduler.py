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
morsel whose future fails (a worker exception, a died worker process, a
gather timeout) is retried through the pool up to ``retry_attempts``
total runs, with the pool re-forked first whenever it broke.  A morsel
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
import itertools
import multiprocessing
import pickle
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import InjectedFaultError, PoisonedMorselError
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.query.parallel import shm, tasks
from repro.query.parallel.transport import (
    TRACE_SPANS,
    TRACE_TELEMETRY,
    trace_request,
)
from repro.query.vectorized.config import (
    DEFAULT_MORSEL_SIZE,
    DEFAULT_RETRY_ATTEMPTS,
)

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
    descriptors, counts, and the keyed results of ``hash_build`` /
    ``hash_dedup`` — is the envelope, pickled as ``pool.submit`` would.
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


def _metric(name: str, amount: int = 1, **labels) -> None:
    """Bump a scheduler metric when observability is active."""
    if amount:
        obs = obs_runtime.active()
        if obs is not None:
            obs.metric_inc(name, amount, **labels)


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
        pool_mode: str = "auto",
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
        retry_timeout: float = 0.0,
        verify_retries: Optional[bool] = None,
        transport: str = "pickle",
        retry_backoff=None,
    ) -> None:
        self.catalog = catalog
        self.workers = int(workers)
        self.pool_mode = pool_mode
        #: Which morsel transport the engine resolved ("pickle"|"shm");
        #: purely descriptive here — the engine builds the payloads —
        #: but surfaced through ``scheduler_stats()``.
        self.transport = transport
        #: Measure per-morsel pipe bytes even without observability
        #: (benchmarks flip this; it pickles every envelope a second
        #: time, so it is not the default).
        self.measure_bytes = False
        #: Morsel granularity for dispatchers without their own setting
        #: (e.g. the parallel index build reaching through the runtime
        #: slot); the engine passes its configured value through.
        self.morsel_size = int(morsel_size)
        #: Pool runs per morsel before quarantine (first run included).
        self.retry_attempts = max(1, int(retry_attempts))
        #: Seconds to wait for one morsel result; 0 waits forever.
        self.retry_timeout = float(retry_timeout)
        #: Slept between retry rounds (pooled) / attempts (inline).  The
        #: default NO_BACKOFF retries immediately, exactly the historic
        #: fixed-delay-of-zero behaviour.
        from repro.fault.backoff import NO_BACKOFF

        self.retry_backoff = (
            retry_backoff if retry_backoff is not None else NO_BACKOFF
        )
        #: Re-run successfully retried morsels inline and assert the
        #: results and packed counts are identical (the counter-merge
        #: determinism contract).  None = automatic: on exactly when
        #: fault injection is active.
        self.verify_retries = verify_retries
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
            # Pipe traffic, measured only when observability is active
            # or ``measure_bytes`` is set: what crossed the pool pipe —
            # descriptors in shm mode, packed morsels in pickle mode.
            "dispatch_bytes": 0,
            "result_bytes": 0,
        }
        #: Per-worker telemetry accumulated from traced runs, keyed by
        #: worker pid: morsels, busy/queue-wait seconds, deref-cache
        #: hit/miss tallies and hit rate, retried/quarantined morsel
        #: attribution.  Empty until observability is active (telemetry
        #: only ships with a trace context — the zero-overhead contract).
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

            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
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
            _metric("pool_reforks_total")
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
        _metric("scheduler_fallback_total", reason=code)

    def _verify_retries_active(self) -> bool:
        if self.verify_retries is None:
            return fault_runtime.active() is not None
        return bool(self.verify_retries)

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
            "transport": {},
        }
        mode = self._trace_mode()
        measure = bool(mode) or self.measure_bytes
        if measure:
            self._measure_dispatch(kind, payloads)
        self.stats["morsels"] += len(payloads)
        results: Optional[List[Tuple[Any, tuple]]] = None
        if self.pool_mode != "inline":
            results = self._run_pooled(kind, payloads, mode)
            if results is not None:
                self.stats["process_runs"] += 1
        if results is None:
            self.stats["inline_runs"] += 1
            results = []
            try:
                for index, payload in enumerate(payloads):
                    results.append(
                        self._run_inline_one(kind, index, payload, mode=mode)
                    )
            except BaseException:
                # A poisoned morsel aborts the query; packed result
                # segments already gathered were ownership-transferred
                # to this coordinator and must not outlive it.
                self._reap_packed(results)
                raise
        if measure:
            self._measure_results(results)
        if mode:
            self._absorb_telemetry(kind, results)
        return results

    # ------------------------------------------------------------------ #
    # pipe-byte accounting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _payload_transport(payload: Any) -> str:
        """"shm" for a wrapped shm-protocol payload, else "pickle"."""
        if (
            type(payload) is tuple
            and len(payload) == 3
            and payload[0] == shm.REQUEST_TAG
        ):
            return "shm"
        return "pickle"

    def _measure_dispatch(
        self, kind: str, payloads: List[tuple]
    ) -> None:
        """Tally what dispatch sends through the pool pipe.

        Per request: the ``len()`` of every packed buffer it carries
        plus its pickled envelope (see :func:`_wire_nbytes`) — the
        pipe cost without pickling the rows a second time.  In shm mode
        descriptors are all envelope and the packed rows never appear
        here — which is the entire point of that carrier.
        """
        last_run = self.last_run or {}
        per_morsel = last_run.setdefault("payload_bytes", {})
        labels = last_run.setdefault("transport", {})
        for index, payload in enumerate(payloads):
            nbytes = _wire_nbytes((kind, payload))
            label = self._payload_transport(payload)
            per_morsel[index] = nbytes
            labels[index] = label
            self.stats["dispatch_bytes"] += nbytes
            _metric(
                "transport_bytes_total",
                nbytes,
                path="dispatch",
                transport=label,
            )

    def _measure_results(
        self, results: List[Tuple[Any, tuple]]
    ) -> None:
        """Tally the return pipe the same way."""
        last_run = self.last_run or {}
        per_morsel = last_run.setdefault("payload_bytes", {})
        for index, item in enumerate(results):
            nbytes = _wire_nbytes(tuple(item[:2]))
            label = "shm" if shm.is_rows(item[0]) else "pickle"
            per_morsel[index] = per_morsel.get(index, 0) + nbytes
            self.stats["result_bytes"] += nbytes
            _metric(
                "transport_bytes_total",
                nbytes,
                path="result",
                transport=label,
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
        series in the registry.  The coordinator-level deref counters
        are re-published here too: traced tasks flush their deref
        tallies into the *worker-local* registry (which dies with the
        worker, or is read back below), so without this the global
        ``deref_cache_requests_total`` would go dark whenever telemetry
        is on.
        """
        obs = obs_runtime.active()
        metrics = obs.metrics if obs is not None else None
        buckets = (
            obs.config.worker_morsel_buckets if obs is not None else (1.0,)
        )
        last_run = self.last_run or {}
        retries = last_run.get("retries", {})
        quarantined = last_run.get("quarantined", set())
        for index, item in enumerate(results):
            if len(item) < 3:
                continue
            pid, elapsed, queue_wait, hits, misses, _span = item[2]
            stats = self.worker_stats.setdefault(
                pid,
                {
                    "morsels": 0,
                    "busy_seconds": 0.0,
                    "queue_wait_seconds": 0.0,
                    "deref_hits": 0,
                    "deref_misses": 0,
                    "deref_hit_rate": None,
                    "retried_morsels": 0,
                    "quarantined_morsels": 0,
                },
            )
            stats["morsels"] += 1
            stats["busy_seconds"] += elapsed
            stats["queue_wait_seconds"] += queue_wait
            stats["deref_hits"] += hits
            stats["deref_misses"] += misses
            requests = stats["deref_hits"] + stats["deref_misses"]
            stats["deref_hit_rate"] = (
                stats["deref_hits"] / requests if requests else None
            )
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
                    buckets,
                    "Per-morsel wall-clock per worker process",
                    worker=pid,
                ).observe(elapsed)
                metrics.gauge(
                    "worker_queue_wait_seconds_total",
                    "Cumulative dispatch-to-start wait per worker",
                    worker=pid,
                ).inc(queue_wait)
                if hits:
                    metrics.counter(
                        "worker_deref_cache_requests_total",
                        "Worker-side deref-cache lookups by outcome",
                        worker=pid,
                        outcome="hit",
                    ).inc(hits)
                    metrics.counter(
                        "deref_saved_traversals_total", "",
                    ).inc(hits)
                    metrics.counter(
                        "deref_cache_requests_total", "", outcome="hit"
                    ).inc(hits)
                if misses:
                    metrics.counter(
                        "worker_deref_cache_requests_total",
                        "Worker-side deref-cache lookups by outcome",
                        worker=pid,
                        outcome="miss",
                    ).inc(misses)
                    metrics.counter(
                        "deref_cache_requests_total", "", outcome="miss"
                    ).inc(misses)

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
        timeout = self.retry_timeout or None
        retry_round = 0
        while pending:
            if retry_round:
                # Between retry rounds, not before the first: the
                # configured backoff paces re-dispatch of failed morsels.
                self.retry_backoff.sleep(retry_round - 1)
            retry_round += 1
            futures: Dict[int, Any] = {}
            pool_broke = False
            for index in pending:
                action = self._worker_fault(kind, index)
                task_fn = {
                    None: tasks.run_task,
                    "error": tasks.injected_failure,
                    "kill": tasks.worker_exit,
                }[action]
                try:
                    # The dispatch stamp is taken per submit (retries
                    # included) so queue wait measures this attempt's
                    # time on the pool's queue, not the whole retry saga.
                    futures[index] = pool.submit(
                        task_fn,
                        trace_request(
                            kind, payloads[index], mode, index,
                            time.monotonic(),
                        ),
                    )
                except Exception:
                    # submit() only fails when the pool itself is gone;
                    # unsubmitted morsels simply stay pending.
                    pool_broke = True
                    break
            failed: List[int] = []
            for index in pending:
                future = futures.get(index)
                if future is None:
                    failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=timeout)
                    if attempts[index] > 0:
                        retried_ok.append(index)
                except concurrent.futures.TimeoutError:
                    # The worker may be wedged on this morsel; give up
                    # on the whole pool rather than on the morsel.
                    future.cancel()
                    pool_broke = True
                    failed.append(index)
                except Exception as exc:
                    failed.append(index)
                    if self._broken_pool_error(exc):
                        pool_broke = True
            pending = []
            for index in failed:
                attempts[index] += 1
                if attempts[index] >= self.retry_attempts:
                    quarantined.append(index)
                else:
                    pending.append(index)
                    self._note_retry(index)
                    _metric("morsel_retries_total", kind=kind)
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
        try:
            for index in quarantined:
                self.stats["quarantined_morsels"] += 1
                if self.last_run is not None:
                    self.last_run["quarantined"].add(index)
                _metric("quarantined_morsels_total", kind=kind)
                results[index] = self._run_inline_one(
                    kind, index, payloads[index], budget=1, mode=mode
                )
            if retried_ok and self._verify_retries_active():
                self._verify_retried(kind, payloads, results, retried_ok)
        except BaseException:
            # Poisoning (or a failed retry verification) aborts the
            # query; reap the packed result segments that were already
            # transferred to this coordinator.
            self._reap_packed(results)
            raise
        return results

    @staticmethod
    def _reap_packed(results) -> None:
        """Unlink every packed result segment in a doomed result set."""
        for item in results:
            if item is not None and shm.is_rows(item[0]):
                shm.arena().unlink(item[0][1])

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
            # fields are never bit-stable.  Packed results compare by
            # *content*: a replay packs into a fresh segment, so the
            # descriptors legitimately differ while the rows must not.
            # The original's segment is read without unlinking (the
            # engine still decodes it); the replay's is reclaimed here.
            original = tuple(results[index][:2])
            if shm.is_rows(original[0]) or shm.is_rows(replay[0]):
                original_rows = (
                    shm.read_rows(original[0], unlink=False)
                    if shm.is_rows(original[0])
                    else original[0]
                )
                replay_rows = (
                    shm.read_rows(replay[0], unlink=True)
                    if shm.is_rows(replay[0])
                    else replay[0]
                )
                identical = (
                    replay_rows == original_rows
                    and replay[1] == original[1]
                )
            else:
                identical = replay == original
            if not identical:
                raise AssertionError(
                    f"retried morsel {index} of {kind!r} diverged from "
                    f"its inline replay — the counter-merge determinism "
                    f"contract is broken"
                )
            self.stats["verified_retries"] += 1
            _metric("verified_retries_total", kind=kind)

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
        remaining = self.retry_attempts if budget is None else max(1, budget)
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
                    _metric("morsel_retries_total", kind=kind)
                    self.retry_backoff.sleep(attempt)
        _metric("poisoned_morsels_total", kind=kind)
        raise PoisonedMorselError(kind, index, repr(last)) from last
