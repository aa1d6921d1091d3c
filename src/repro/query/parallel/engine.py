"""The morsel-driven parallel batch executor.

:class:`ParallelBatchExecutor` is a
:class:`~repro.query.vectorized.engine.BatchExecutor` that fans the
hot, data-parallel operators out over a
:class:`~repro.query.parallel.scheduler.MorselScheduler`:

* selection — scan predicates and filters, morsels of the input rows;
* hash equi-join — parallel partitioned build *and* probe, broadcast
  of the merged build table as one pickled blob;
* hash duplicate elimination — local dedup per morsel, ordered merge.

Everything else — index leaves, sorts, the non-hash join methods,
sort-based dedup, non-plain predicates (the FK rewrite captures live
relations), and any input at or below one morsel — takes the inherited
scalar batch path unchanged.

**Counter-merge contract.**  Morsel boundaries are a function of the
input size and ``morsel_size`` only, never of the worker count; every
parallelised operator charges only per-item-decomposable counts in the
workers, and the coordinator charges the whole-operator constants (the
hash-table partition allocation, the dedup set allocation, the final
moves).  Summed, the five Section 3.1 counters are *identical* for any
``workers`` — including 1, which never reaches this class — and
identical to the scalar batch engine.  The one deliberate exception is
the ``deref_saved_traversals`` extra: a per-morsel memo cannot span
morsels, so on repeated-pointer inputs (filters over join output) the
reported physical savings may be lower than the scalar engine's.

Per-morsel counts merge under a ``<op>.morsel`` span each, so with
tracing active the rollup places every worker's ops inside the
operator span that dispatched it (eager mode is already forced when a
tracer is active, exactly as in the scalar batch engine).
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Any, List, Optional, Tuple

from repro.instrument import count_alloc, count_move, count_traverse
from repro.instrument.counters import current_counters
from repro.obs import runtime as obs_runtime
from repro.query.parallel import shm
from repro.query.parallel.scheduler import MorselScheduler
from repro.query.parallel.tasks import merge_packed
from repro.query.parallel.transport import (
    Packed,
    decode_refs,
    decode_rows,
    describable,
    describe,
    encode_refs,
    encode_rows,
    morsel_bounds,
    packed_len,
    plain_predicate,
    slice_packed,
)
from repro.query.plan import (
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
)
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.config import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MORSEL_SIZE,
    DEFAULT_RETRY_ATTEMPTS,
    DEFAULT_SHM_THRESHOLD,
    TRANSPORTS,
)
from repro.query.vectorized.engine import BatchExecutor
from repro.query.vectorized.kernels import (
    DEFAULT_PARTITIONS,
    _fit_partitions,
)
from repro.storage.temporary import ResultDescriptor, TemporaryList


class ParallelBatchExecutor(BatchExecutor):
    """Morsel-parallel evaluation on top of the batch engine.

    Same constructor contract as :class:`BatchExecutor` plus the
    parallel knobs; ``db.configure_execution(engine="batch",
    workers=N)`` builds one for ``N > 1`` (``N == 1`` builds the plain
    scalar :class:`BatchExecutor` — no pool, no morsels).
    """

    def __init__(
        self,
        catalog,
        result_cache=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int = 2,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        pool: str = "auto",
        retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
        retry_timeout: float = 0.0,
        transport: Optional[str] = None,
        shm_threshold_rows: int = DEFAULT_SHM_THRESHOLD,
        retry_backoff=None,
    ) -> None:
        super().__init__(catalog, result_cache, batch_size)
        if workers < 2:
            raise ValueError(
                "ParallelBatchExecutor needs workers >= 2; "
                "workers=1 is the scalar BatchExecutor"
            )
        self.workers = int(workers)
        self.morsel_size = int(morsel_size)
        if transport is None:
            # Mirror ExecutionConfig: directly-constructed executors
            # (tests, benches) honour the lane-wide env default too.
            transport = os.environ.get("REPRO_TRANSPORT", "pickle")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; choose from {TRANSPORTS}"
            )
        #: Why an shm request degraded to pickle (None when it didn't).
        self.transport_fallback: Optional[str] = None
        if transport == "shm" and not shm.available():
            # Loud and deterministic: the caller asked for shm, the
            # platform can't back it, and silence here would make every
            # downstream byte measurement a lie.
            self.transport_fallback = (
                "multiprocessing.shared_memory unavailable; "
                "using the pickle transport"
            )
            warnings.warn(
                f"transport='shm' requested but {self.transport_fallback}",
                RuntimeWarning,
                stacklevel=2,
            )
            transport = "pickle"
        self.transport = transport
        self.shm_threshold_rows = int(shm_threshold_rows)
        self.scheduler = MorselScheduler(
            catalog,
            self.workers,
            pool,
            morsel_size=self.morsel_size,
            retry_attempts=retry_attempts,
            retry_timeout=retry_timeout,
            transport=self.transport,
            retry_backoff=retry_backoff,
        )

    def close(self) -> None:
        """Release the worker pool and the catalog registration."""
        self.scheduler.close()

    # ------------------------------------------------------------------ #
    # morsel plumbing
    # ------------------------------------------------------------------ #

    def _merge_morsels(
        self, op_name: str, results: List[Tuple[Any, tuple]]
    ) -> List[Any]:
        """Fold per-worker counts into the active scope, in morsel order.

        Each morsel's counts merge under their own ``<op>.morsel`` span
        (a no-op context when tracing is off), so span rollup attributes
        the worker's operations to the dispatching operator.  Traced
        results carry a trailing telemetry tuple: its serialized worker
        span tree is grafted *under* the morsel span (purely structural
        — the morsel's counters still come exclusively from the
        ``merge_packed`` rollup, so root totals are untouched), and the
        morsel span is annotated with the worker pid, queue wait, deref
        tallies, and any injected-fault events the scheduler recorded —
        which is how fault annotations survive the worker→coordinator
        round-trip.
        """
        last_run = self.scheduler.last_run or {}
        payloads = []
        for index, item in enumerate(results):
            payload, packed = item[0], item[1]
            if shm.is_rows(payload):
                # A worker moved this packed result into a transferred
                # segment; copy it out (and reclaim the segment — the
                # coordinator owns it from the transfer on).
                payload = shm.read_rows(payload, unlink=True)
            telemetry = item[2] if len(item) > 2 else None
            with obs_runtime.span(
                f"{op_name}.morsel", "morsel", index=index
            ) as morsel_span:
                merge_packed(current_counters(), packed)
                if morsel_span is not None and telemetry is not None:
                    self._annotate_morsel(
                        morsel_span, index, telemetry, last_run
                    )
            payloads.append(payload)
        return payloads

    @staticmethod
    def _annotate_morsel(
        morsel_span, index: int, telemetry: tuple, last_run: dict
    ) -> None:
        from repro.obs.span import Span

        pid, _elapsed, queue_wait, hits, misses, span_dict = telemetry
        morsel_span.attrs["worker_pid"] = pid
        morsel_span.attrs["queue_wait"] = queue_wait
        if hits or misses:
            morsel_span.attrs["deref_hits"] = hits
            morsel_span.attrs["deref_misses"] = misses
        faults = (last_run.get("faults") or {}).get(index)
        if faults:
            morsel_span.attrs["fault_events"] = list(faults)
        retries = (last_run.get("retries") or {}).get(index)
        if retries:
            morsel_span.attrs["retries"] = retries
        if index in (last_run.get("quarantined") or ()):
            morsel_span.attrs["quarantined"] = True
        transport = (last_run.get("transport") or {}).get(index)
        if transport is not None:
            morsel_span.attrs["transport"] = transport
        payload_bytes = (last_run.get("payload_bytes") or {}).get(index)
        if payload_bytes is not None:
            morsel_span.attrs["payload_bytes"] = payload_bytes
        if span_dict is not None:
            morsel_span.children.append(Span.from_dict(span_dict))

    def _dispatch_morsels(
        self, packed: Packed
    ) -> Tuple[List[Any], Optional[str]]:
        """Per-morsel dispatch payload elements, plus a segment to reap.

        ``packed`` is one operator's whole input, packed once.  Pickle
        transport (or an input under the shm threshold): each morsel
        carries its own byte slice of it.  Shm transport above the
        threshold: the same bytes go into one coordinator-owned
        segment, and each morsel carries only a tiny slice descriptor
        naming its ``[start, stop)`` window.  The caller must unlink
        the returned segment name after the run (see :meth:`_run_op`).
        """
        total = packed_len(packed)
        bounds = morsel_bounds(total, self.morsel_size)
        if self.transport == "shm" and total >= self.shm_threshold_rows:
            name = shm.write_rows(packed)[1]
            return (
                [
                    shm.shm_slice(name, packed[0], start, stop)
                    for start, stop in bounds
                ],
                name,
            )
        return (
            [slice_packed(packed, start, stop) for start, stop in bounds],
            None,
        )

    def _run_op(
        self,
        kind: str,
        payloads: List[tuple],
        segments: Tuple[Optional[str], ...] = (),
    ) -> List[Tuple[Any, tuple]]:
        """One scheduler run, with shm wrapping and segment reaping.

        In shm mode every payload is wrapped as ``("shm:req",
        threshold, inner)`` so workers know to pack large results into
        transferred segments; in pickle mode payloads pass through
        *untouched* — the wire stays byte-identical to the classic
        transport.  Coordinator-owned dispatch/broadcast segments are
        unlinked after the run returns — by then every retry,
        quarantine re-execution, and retry verification has finished
        with them (attached readers on Linux survive the unlink; the
        name just disappears).
        """
        if self.transport == "shm":
            payloads = [
                (shm.REQUEST_TAG, self.shm_threshold_rows, payload)
                for payload in payloads
            ]
        try:
            return self.scheduler.run(kind, payloads)
        finally:
            for name in segments:
                if name is not None:
                    shm.arena().unlink(name)

    # ------------------------------------------------------------------ #
    # parallel selection
    # ------------------------------------------------------------------ #

    def _parallel_scan(self, node: ScanNode, relation) -> Optional[list]:
        """Filtered scan refs via the pool, or None for the scalar path."""
        if node.predicate is None or not plain_predicate(node.predicate):
            return None
        if relation.cardinality <= self.morsel_size:
            return None
        # The one canonical (organically counted) index walk happens
        # here in the coordinator, exactly as on the scalar path; each
        # worker gets its morsel of that walk packed.
        refs = list(relation.any_index().scan())
        token = self.scheduler.token
        morsels, segment = self._dispatch_morsels(encode_refs(refs))
        payloads = [
            (token, relation.name, node.predicate, morsel)
            for morsel in morsels
        ]
        results = self._run_op("scan_filter", payloads, (segment,))
        kept: list = []
        for packed in self._merge_morsels("scan", results):
            kept.extend(decode_refs(packed))
        return kept

    def _maybe_parallel_filter(
        self, descriptor: ResultDescriptor, predicate, rows: list
    ) -> Optional[list]:
        """Filtered rows via the pool, or None for the scalar path."""
        if (
            len(rows) <= self.morsel_size
            or not plain_predicate(predicate)
            or not describable(self.catalog, descriptor)
        ):
            return None
        token = self.scheduler.token
        spec = describe(descriptor)
        morsels, segment = self._dispatch_morsels(encode_rows(rows))
        payloads = [
            (token, spec, predicate, morsel) for morsel in morsels
        ]
        results = self._run_op("filter_rows", payloads, (segment,))
        kept: list = []
        for packed in self._merge_morsels("filter", results):
            kept.extend(decode_rows(packed))
        return kept

    # ------------------------------------------------------------------ #
    # parallel hash join
    # ------------------------------------------------------------------ #

    def _maybe_parallel_hash_join(
        self,
        node: JoinNode,
        left_desc: ResultDescriptor,
        outer: list,
        right_desc: ResultDescriptor,
        inner: list,
    ) -> Optional[list]:
        """Joined rows via the pool, or None for the scalar path."""
        if len(outer) <= self.morsel_size and len(inner) <= self.morsel_size:
            return None
        if not (
            describable(self.catalog, left_desc)
            and describable(self.catalog, right_desc)
        ):
            return None
        token = self.scheduler.token
        with obs_runtime.span("hash_join.build", "join_phase"):
            groups = self._build_groups(token, right_desc, node.right_col, inner)
            # The whole-table constant the scalar kernel charges in its
            # constructor, charged once by the coordinator.
            count_alloc(_fit_partitions(len(inner), DEFAULT_PARTITIONS))
        with obs_runtime.span("hash_join.probe", "join_phase"):
            rows = self._probe_groups(
                token, left_desc, node.left_col, outer, groups, len(inner)
            )
        return rows

    def _build_groups(
        self, token: int, descriptor: ResultDescriptor, column: str, inner: list
    ) -> dict:
        """Build-side groups ``{key: [pointer rows]}`` in input order.

        The rows in the groups are tuples of plain ints either way —
        the groups are pickled into the broadcast blob, which must
        never walk ``TupleRef.__reduce__``.
        """
        from repro.query.parallel import tasks

        if len(inner) <= self.morsel_size:
            # Small build side: group in-process (same charges as one
            # worker morsel would make, minus the shipping).
            key_of, cost = self._batch_key(descriptor, column)
            keys = [key_of(row) for row in inner]
            count_traverse(len(inner) * cost)
            plain = decode_rows(encode_rows(inner))
            return tasks.build_groups(plain, keys)
        spec = describe(descriptor)
        morsels, segment = self._dispatch_morsels(encode_rows(inner))
        payloads = [
            (token, spec, column, morsel) for morsel in morsels
        ]
        results = self._run_op("hash_build", payloads, (segment,))
        merged: dict = {}
        for groups in self._merge_morsels("hash_join.build", results):
            for key, rows in groups.items():
                bucket = merged.get(key)
                if bucket is None:
                    merged[key] = rows
                else:
                    bucket.extend(rows)
        return merged

    def _probe_groups(
        self,
        token: int,
        descriptor: ResultDescriptor,
        column: str,
        outer: list,
        groups: dict,
        inner_size: int,
    ) -> list:
        from repro.query.parallel import tasks

        if len(outer) <= self.morsel_size:
            # Small probe side: probe the groups in-process.
            key_of, cost = self._batch_key(descriptor, column)
            keys = [key_of(row) for row in outer]
            count_traverse(len(outer) * cost)
            return tasks.probe_groups(groups, outer, keys)
        blob = pickle.dumps(groups, protocol=pickle.HIGHEST_PROTOCOL)
        table_id = self.scheduler.next_blob_id()
        spec = describe(descriptor)
        morsels, segment = self._dispatch_morsels(encode_rows(outer))
        blob_segment: Optional[str] = None
        if (
            self.transport == "shm"
            and len(blob) >= shm.MIN_BLOB_BYTES
        ):
            # Broadcast once: the pickled build table goes into a single
            # segment every worker attaches by name, instead of riding
            # inside every probe payload on the pipe.
            blob = shm.write_blob(blob)
            blob_segment = blob[1]
        payloads = [
            (token, spec, column, table_id, blob, morsel)
            for morsel in morsels
        ]
        results = self._run_op(
            "hash_probe", payloads, (segment, blob_segment)
        )
        out: list = []
        for packed in self._merge_morsels("hash_join.probe", results):
            out.extend(decode_rows(packed))
        return out

    # ------------------------------------------------------------------ #
    # parallel hash dedup (shared by pipelined and eager modes)
    # ------------------------------------------------------------------ #

    def _dedup_rows(
        self, descriptor: ResultDescriptor, rows: list, node: ProjectNode
    ) -> list:
        if (
            node.dedup_method == "hash"
            and len(rows) > self.morsel_size
            and describable(self.catalog, descriptor)
        ):
            return self._parallel_dedup(descriptor, rows, node)
        return super()._dedup_rows(descriptor, rows, node)

    def _parallel_dedup(
        self, descriptor: ResultDescriptor, rows: list, node: ProjectNode
    ) -> list:
        token = self.scheduler.token
        spec = describe(descriptor)
        columns = tuple(node.columns)
        morsels, segment = self._dispatch_morsels(encode_rows(rows))
        payloads = [
            (token, spec, columns, morsel) for morsel in morsels
        ]
        results = self._run_op("hash_dedup", payloads, (segment,))
        seen = set()
        add = seen.add
        out: list = []
        append = out.append
        for survivors in self._merge_morsels("dedup", results):
            for key, row in survivors:
                if key not in seen:
                    add(key)
                    append(row)
        # The scalar kernel's whole-operator charges: one set allocation
        # and one move per surviving row (the cross-morsel membership
        # re-test above is merge bookkeeping, not a modelled operation).
        count_alloc(1)
        count_move(len(out))
        return out

    # ------------------------------------------------------------------ #
    # pipelined-mode overrides
    # ------------------------------------------------------------------ #

    def _stream_scan(self, node: ScanNode):
        relation = self.catalog.relation(node.relation_name)
        kept = self._parallel_scan(node, relation)
        if kept is None:
            return super()._stream_scan(node)
        descriptor = ResultDescriptor.whole_relation(relation)
        rows = [(ref,) for ref in kept]
        return descriptor, self._chunks(rows)

    def _stream_filter(self, node: FilterNode):
        descriptor, batches = self._stream(node.child)
        if not (
            plain_predicate(node.predicate)
            and describable(self.catalog, descriptor)
        ):
            return self._scalar_stream_filter(node, descriptor, batches)

        def generate():
            rows: list = []
            iterator = iter(batches)
            for batch in iterator:
                rows.extend(batch)
                if len(rows) > self.morsel_size:
                    break
            else:
                # Never crossed one morsel: scalar-filter the buffer
                # with a single mask (one memo, like the scalar stream).
                yield from self._filter_buffered(node, descriptor, rows)
                return
            for batch in iterator:
                rows.extend(batch)
            kept = self._maybe_parallel_filter(
                descriptor, node.predicate, rows
            )
            if kept is None:  # pragma: no cover - raced describability
                yield from self._filter_buffered(node, descriptor, rows)
                return
            yield from self._chunks(kept)

        return descriptor, generate()

    def _scalar_stream_filter(self, node, descriptor, batches):
        mask = compile_predicate(
            node.predicate, self._row_access(descriptor)
        )

        def generate():
            for batch in batches:
                flags = mask(batch)
                kept = [row for row, keep in zip(batch, flags) if keep]
                if kept:
                    yield kept

        return descriptor, generate()

    def _filter_buffered(self, node, descriptor, rows):
        mask = compile_predicate(
            node.predicate, self._row_access(descriptor)
        )
        for chunk in self._chunks(rows):
            flags = mask(chunk)
            kept = [row for row, keep in zip(chunk, flags) if keep]
            if kept:
                yield kept

    def _stream_hash_join(self, node: JoinNode):
        left_desc, left_batches = self._stream(node.left)
        right_desc, right_batches = self._stream(node.right)
        descriptor = self._join_descriptor(left_desc, right_desc)

        def generate():
            inner: list = []
            for batch in right_batches:
                inner.extend(batch)
            outer: list = []
            for batch in left_batches:
                outer.extend(batch)
            rows = self._maybe_parallel_hash_join(
                node, left_desc, outer, right_desc, inner
            )
            if rows is None:
                rows = self._scalar_hash_join(
                    node, left_desc, outer, right_desc, inner
                )
            yield from self._chunks(rows)

        return descriptor, generate()

    def _scalar_hash_join(
        self, node, left_desc, outer, right_desc, inner
    ) -> list:
        """The scalar batch engine's hash join over materialised inputs."""
        from repro.query.vectorized.kernels import (
            build_hash_table,
            probe_hash_table,
        )

        inner_key, inner_cost = self._batch_key(right_desc, node.right_col)
        outer_key, outer_cost = self._batch_key(left_desc, node.left_col)
        with obs_runtime.span("hash_join.build", "join_phase"):
            table = build_hash_table(inner, inner_key)
            count_traverse(len(inner) * inner_cost)
        with obs_runtime.span("hash_join.probe", "join_phase"):
            rows = probe_hash_table(table, outer, outer_key)
            count_traverse(len(outer) * outer_cost)
        return rows

    # ------------------------------------------------------------------ #
    # eager-mode overrides (tracer / result cache active)
    # ------------------------------------------------------------------ #

    def _execute_scan(self, node: ScanNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        kept = self._parallel_scan(node, relation)
        if kept is None:
            return super()._execute_scan(node)
        return TemporaryList.from_refs(relation, kept)

    def _execute_filter(self, node: FilterNode) -> TemporaryList:
        child = self.execute(node.child)
        rows = child.rows()
        kept = self._maybe_parallel_filter(
            child.descriptor, node.predicate, rows
        )
        if kept is None:
            mask = compile_predicate(
                node.predicate, self._row_access(child.descriptor)
            )
            flags = mask(rows)
            kept = [row for row, keep in zip(rows, flags) if keep]
        return TemporaryList(child.descriptor, kept)

    def _execute_join(self, node: JoinNode) -> TemporaryList:
        if node.op == "=" and node.method == "hash":
            left = self.execute(node.left)
            right = self.execute(node.right)
            outer, inner = left.rows(), right.rows()
            rows = self._maybe_parallel_hash_join(
                node, left.descriptor, outer, right.descriptor, inner
            )
            if rows is None:
                rows = self._scalar_hash_join(
                    node, left.descriptor, outer, right.descriptor, inner
                )
            descriptor = self._join_descriptor(
                left.descriptor, right.descriptor
            )
            return TemporaryList(descriptor, rows)
        return super()._execute_join(node)
