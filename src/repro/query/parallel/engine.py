"""The morsel-driven parallel batch executor.

:class:`ParallelBatchExecutor` is a
:class:`~repro.query.vectorized.engine.BatchExecutor` that fans the
batch engine's four row kernels out over a
:class:`~repro.query.parallel.scheduler.MorselScheduler`:

* ``_scan_refs`` / ``_filter_rows`` — selection, morsels of the input
  pointers / rows;
* ``_hash_join_rows`` — parallel build *and* probe on the serial
  engine's own kernels, broadcast of the merged build table as one
  pickled blob;
* ``dedup_rows`` — hash duplicate elimination, local dedup per morsel,
  ordered merge.

Those four overrides are all it changes: every node still materialises
through the batch engine's own operators, and each override falls back
to ``super()`` for what the pool cannot take — index leaves, sorts, the
non-hash join methods and sort-based dedup never reach it; non-plain
predicates (the FK rewrite captures live relations) and any input at or
below one morsel run in-process.

**Counter-merge contract.**  Morsel boundaries are a function of the
input size and ``morsel_size`` only, never of the worker count; every
parallelised operator charges only per-item-decomposable counts in the
workers, and the coordinator charges the whole-operator constants (the
hash-table header allocation, the dedup set allocation, the final
moves).  Summed, the five Section 3.1 counters are *identical* for any
``workers`` — including 1, which never reaches this class — and
identical to the scalar batch engine.

Per-morsel counts merge under a ``<op>.morsel`` span each, so with
tracing active the rollup places every worker's ops inside the
operator span that dispatched it.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Sequence, Tuple

from repro.instrument import count_alloc, count_move, count_traverse
from repro.instrument.counters import current_counters
from repro.obs import runtime as obs_runtime
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
from repro.query.plan import FilterNode, JoinNode, ScanNode
from repro.query.vectorized.config import DEFAULT_MORSEL_SIZE
from repro.query.vectorized.deref import batch_key
from repro.query.vectorized.engine import BatchExecutor
from repro.query.vectorized.kernels import (
    build_hash_table,
    charge_table_header,
    probe_hash_table,
)
from repro.storage.temporary import ResultDescriptor


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
        workers: int = 2,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        pool: str = "process",
    ) -> None:
        super().__init__(catalog, result_cache)
        if workers < 2:
            raise ValueError(
                "ParallelBatchExecutor needs workers >= 2; "
                "workers=1 is the scalar BatchExecutor"
            )
        self.workers = int(workers)
        self.morsel_size = int(morsel_size)
        self.scheduler = MorselScheduler(catalog, self.workers, pool)

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
        morsel span is annotated with the worker pid, queue wait and any
        injected-fault events the scheduler recorded —
        which is how fault annotations survive the worker→coordinator
        round-trip.
        """
        last_run = self.scheduler.last_run or {}
        payloads = []
        for index, item in enumerate(results):
            payload, packed = item[0], item[1]
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

        pid, _elapsed, queue_wait, span_dict = telemetry
        morsel_span.attrs["worker_pid"] = pid
        morsel_span.attrs["queue_wait"] = queue_wait
        faults = (last_run.get("faults") or {}).get(index)
        if faults:
            morsel_span.attrs["fault_events"] = list(faults)
        retries = (last_run.get("retries") or {}).get(index)
        if retries:
            morsel_span.attrs["retries"] = retries
        if index in (last_run.get("quarantined") or ()):
            morsel_span.attrs["quarantined"] = True
        payload_bytes = (last_run.get("payload_bytes") or {}).get(index)
        if payload_bytes is not None:
            morsel_span.attrs["payload_bytes"] = payload_bytes
        if span_dict is not None:
            morsel_span.children.append(Span.from_dict(span_dict))

    def _dispatch_morsels(self, packed: Packed) -> List[Packed]:
        """One operator's whole input, packed once, cut into morsels."""
        bounds = morsel_bounds(packed_len(packed), self.morsel_size)
        return [slice_packed(packed, start, stop) for start, stop in bounds]

    # ------------------------------------------------------------------ #
    # parallel selection
    # ------------------------------------------------------------------ #

    def _scan_refs(self, node: ScanNode, relation) -> list:
        if (
            node.predicate is None
            or not plain_predicate(node.predicate)
            or relation.cardinality <= self.morsel_size
        ):
            return super()._scan_refs(node, relation)
        # The one canonical (organically counted) index walk happens
        # here in the coordinator, exactly as on the scalar path; each
        # worker gets its morsel of that walk packed.
        refs = list(relation.any_index().scan())
        token = self.scheduler.token
        payloads = [
            (token, relation.name, node.predicate, morsel)
            for morsel in self._dispatch_morsels(encode_refs(refs))
        ]
        results = self.scheduler.run("scan_filter", payloads)
        kept: list = []
        for packed in self._merge_morsels("scan", results):
            kept.extend(decode_refs(packed))
        return kept

    def _filter_rows(
        self, node: FilterNode, descriptor: ResultDescriptor, rows: list
    ) -> list:
        if (
            len(rows) <= self.morsel_size
            or not plain_predicate(node.predicate)
            or not describable(self.catalog, descriptor)
        ):
            return super()._filter_rows(node, descriptor, rows)
        token = self.scheduler.token
        spec = describe(descriptor)
        payloads = [
            (token, spec, node.predicate, morsel)
            for morsel in self._dispatch_morsels(encode_rows(rows))
        ]
        results = self.scheduler.run("filter_rows", payloads)
        kept: list = []
        for packed in self._merge_morsels("filter", results):
            kept.extend(decode_rows(packed))
        return kept

    # ------------------------------------------------------------------ #
    # parallel hash join
    # ------------------------------------------------------------------ #

    def _hash_join_rows(
        self,
        node: JoinNode,
        left_desc: ResultDescriptor,
        outer: list,
        right_desc: ResultDescriptor,
        inner: list,
    ) -> list:
        if (
            len(outer) <= self.morsel_size and len(inner) <= self.morsel_size
        ) or not (
            describable(self.catalog, left_desc)
            and describable(self.catalog, right_desc)
        ):
            return super()._hash_join_rows(
                node, left_desc, outer, right_desc, inner
            )
        token = self.scheduler.token
        with obs_runtime.span("hash_join.build", "join_phase"):
            table = self._build_table(token, right_desc, node.right_col, inner)
            charge_table_header(len(inner))
        with obs_runtime.span("hash_join.probe", "join_phase"):
            return self._probe_table(
                token, left_desc, node.left_col, outer, table
            )

    def _build_table(
        self, token: int, descriptor: ResultDescriptor, column: str, inner: list
    ) -> dict:
        """The build table ``{key: [pointer rows]}`` in input order.

        Its rows are tuples of plain ints either way — the table is
        pickled into the broadcast blob, which must never walk
        ``TupleRef.__reduce__``.
        """
        if len(inner) <= self.morsel_size:
            # Small build side: group in-process (same charges as one
            # worker morsel would make, minus the shipping).
            keys, cost = batch_key(descriptor, column, inner)
            count_traverse(len(inner) * cost)
            plain = decode_rows(encode_rows(inner))
            return build_hash_table(plain, keys)
        spec = describe(descriptor)
        payloads = [
            (token, spec, column, morsel)
            for morsel in self._dispatch_morsels(encode_rows(inner))
        ]
        results = self.scheduler.run("hash_build", payloads)
        merged: dict = {}
        for fragment in self._merge_morsels("hash_join.build", results):
            for key, rows in fragment.items():
                bucket = merged.get(key)
                if bucket is None:
                    merged[key] = rows
                else:
                    bucket.extend(rows)
        return merged

    def _probe_table(
        self,
        token: int,
        descriptor: ResultDescriptor,
        column: str,
        outer: list,
        table: dict,
    ) -> list:
        if len(outer) <= self.morsel_size:
            # Small probe side: probe the table in-process.
            keys, cost = batch_key(descriptor, column, outer)
            count_traverse(len(outer) * cost)
            return probe_hash_table(table, outer, keys)
        blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        table_id = self.scheduler.next_blob_id()
        spec = describe(descriptor)
        payloads = [
            (token, spec, column, table_id, blob, morsel)
            for morsel in self._dispatch_morsels(encode_rows(outer))
        ]
        results = self.scheduler.run("hash_probe", payloads)
        out: list = []
        for packed in self._merge_morsels("hash_join.probe", results):
            out.extend(decode_rows(packed))
        return out

    # ------------------------------------------------------------------ #
    # parallel hash dedup
    # ------------------------------------------------------------------ #

    def dedup_rows(
        self,
        descriptor: ResultDescriptor,
        rows: list,
        columns: Sequence[str],
        method: str = "hash",
    ) -> list:
        if not (
            method == "hash"
            and len(rows) > self.morsel_size
            and describable(self.catalog, descriptor)
        ):
            return super().dedup_rows(descriptor, rows, columns, method)
        token = self.scheduler.token
        spec = describe(descriptor)
        columns = tuple(columns)
        payloads = [
            (token, spec, columns, morsel)
            for morsel in self._dispatch_morsels(encode_rows(rows))
        ]
        results = self.scheduler.run("hash_dedup", payloads)
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
