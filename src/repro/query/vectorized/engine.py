"""The batch executor.

:class:`BatchExecutor` evaluates the same plan trees as the tuple
engine, one node at a time: every node materialises its output as a
``TemporaryList`` of pointer rows (the paper's temporary list, §2.3)
and the operator runs over its child's whole row list as one batch.
Each operator compiles its predicate once
(:mod:`~repro.query.vectorized.compile`), which reads each field it
names once per batch, and the two hash-based operators — hash
equi-joins and hash duplicate elimination, SQL ``DISTINCT`` included —
run the batch kernels
(:mod:`~repro.query.vectorized.kernels`), whose counts are elementwise
*bounded above* by the tuple engine's rather than equal.

Everything else — index leaves, the non-hash join algorithms, sorting,
sort-based duplicate elimination — deliberately *reuses* the
instrumented reference algorithms, only swapping in key extractors
memoized per operator (:mod:`~repro.query.vectorized.deref`): op
totals stay identical to the tuple engine (the counter-equivalence
contract) while the physical dereferences behind them collapse.

The four row kernels — :meth:`BatchExecutor._scan_refs`,
:meth:`~BatchExecutor._filter_rows`, :meth:`~BatchExecutor._hash_join_rows`
and :meth:`~BatchExecutor.dedup_rows` — are list in, list out; they
are the only methods the morsel-parallel engine overrides.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.errors import PlanError
from repro.instrument import count_traverse
from repro.obs import runtime as obs_runtime
from repro.query.executor import Executor, filter_column_resolver
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    JoinNode,
    ScanNode,
)
from repro.query.project import project_sort_scan
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.deref import (
    RowFieldAccess,
    ScanFieldAccess,
    dedup_keys,
    raw_row_extractor,
    row_extractor,
)
from repro.query.vectorized.kernels import (
    build_hash_table,
    dedup_hash_rows,
    probe_hash_table,
    sort_rows_cached,
)
from repro.storage.temporary import (
    ResultDescriptor,
    TemporaryList,
    join_descriptor,
)
from repro.storage.tuples import TupleRef

Row = Tuple[TupleRef, ...]


def _flush_saved(*extractors: Callable) -> None:
    """Publish accumulated dereference savings of cached extractors.

    Cached extractors tally memo hits in a local cell (the hot path);
    operators call this at their boundaries to fold the tally into
    ``OpCounters.extra`` via one bulk ``count_event``.  Extractors
    without a ``flush`` attribute (raw readers, ``self_ref``) are
    skipped.
    """
    for extractor in extractors:
        flush = getattr(extractor, "flush", None)
        if flush is not None:
            flush()


class BatchExecutor(Executor):
    """Batch-at-a-time evaluation of the tuple engine's plan trees.

    A drop-in :class:`~repro.query.executor.Executor`: same
    constructor contract, same ``execute`` entry point, same
    result-cache and span integration, same results — and, outside
    hash equi-joins, the same Section 3.1 op totals.
    """

    engine_name = "batch"

    def __init__(self, catalog, result_cache=None) -> None:
        super().__init__(catalog, result_cache)
        #: Cached key extractors handed to reference join algorithms,
        #: awaiting a hit-tally flush when the algorithm returns.
        self._live_keys: List[Callable] = []

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #

    def _execute_scan(self, node: ScanNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        return TemporaryList.from_refs(
            relation, self._scan_refs(node, relation)
        )

    def _execute_filter(self, node: FilterNode) -> TemporaryList:
        child = self.execute(node.child)
        kept = self._filter_rows(node, child.descriptor, child.rows())
        return TemporaryList(child.descriptor, kept)

    def _execute_join(self, node: JoinNode) -> TemporaryList:
        if node.op == "=" and node.method == "hash":
            left = self.execute(node.left)
            right = self.execute(node.right)
            rows = self._hash_join_rows(
                node, left.descriptor, left.rows(),
                right.descriptor, right.rows(),
            )
            descriptor = join_descriptor(left.descriptor, right.descriptor)
            return TemporaryList(descriptor, rows)
        # Non-hash joins reuse the reference algorithms; the overridden
        # _key_extractor below hands them dereference-cached keys, whose
        # hit tallies are flushed here once the algorithm finishes —
        # or fails, so a raising join leaves no extractor (and no memo
        # of every row) behind.
        marker = len(self._live_keys)
        try:
            return super()._execute_join(node)
        finally:
            _flush_saved(*self._live_keys[marker:])
            del self._live_keys[marker:]

    # ------------------------------------------------------------------ #
    # row kernels (the morsel-parallel engine's override points)
    # ------------------------------------------------------------------ #

    def _scan_refs(self, node: ScanNode, relation) -> List[TupleRef]:
        """The pointers of ``relation`` that satisfy ``node.predicate``."""
        refs = list(relation.any_index().scan())
        if node.predicate is not None:
            mask = compile_predicate(
                node.predicate, ScanFieldAccess(relation)
            )
            flags = mask(refs)
            refs = [ref for ref, keep in zip(refs, flags) if keep]
        return refs

    def _filter_rows(
        self, node: FilterNode, descriptor: ResultDescriptor, rows: List[Row]
    ) -> List[Row]:
        """The rows that satisfy ``node.predicate``, under one compiled
        mask (one dereference memo)."""
        mask = compile_predicate(
            node.predicate, self._row_access(descriptor)
        )
        flags = mask(rows)
        return [row for row, keep in zip(rows, flags) if keep]

    def _hash_join_rows(
        self,
        node: JoinNode,
        left_desc: ResultDescriptor,
        outer: List[Row],
        right_desc: ResultDescriptor,
        inner: List[Row],
    ) -> List[Row]:
        """Hash equi-join: build ``inner``, probe with ``outer``."""
        with obs_runtime.span("hash_join.build", "join_phase"):
            keys, cost = self._batch_key(right_desc, node.right_col, inner)
            table = build_hash_table(inner, keys)
            count_traverse(len(inner) * cost)
        with obs_runtime.span("hash_join.probe", "join_phase"):
            keys, cost = self._batch_key(left_desc, node.left_col, outer)
            rows = probe_hash_table(table, outer, keys)
            count_traverse(len(outer) * cost)
        return rows

    def dedup_rows(
        self,
        descriptor: ResultDescriptor,
        rows: List[Row],
        columns: Sequence[str],
        method: str = "hash",
    ) -> List[Row]:
        """Duplicate elimination.

        ``hash`` runs the dict-based batch kernel (first occurrence
        wins, same rows/order as ``project_hash``, elementwise cheaper
        counts — like the hash join, outside the strict equivalence
        contract).  ``sort_scan`` reuses the paper's sort-based
        algorithm unchanged with dereference-cached keys, so its op
        totals match the tuple engine exactly.
        """
        if method == "hash":
            keys = dedup_keys(descriptor, columns, rows)
            return dedup_hash_rows(rows, keys, keys_per_row=len(columns))
        extractors = [row_extractor(descriptor, name) for name in columns]

        def row_key(row: Row) -> Tuple[Any, ...]:
            return tuple(extract(row) for extract in extractors)

        unique = project_sort_scan(rows, row_key)
        _flush_saved(*extractors)
        return unique

    def _row_access(self, descriptor: ResultDescriptor) -> RowFieldAccess:
        return RowFieldAccess(
            descriptor, filter_column_resolver(descriptor)
        )

    def _batch_key(
        self, descriptor: ResultDescriptor, column: str, rows: List[Row]
    ) -> Tuple[List[Any], int]:
        """Hash-kernel join keys of ``rows``: ``(keys, traversals per
        row)``.

        The kernel keys each row exactly once, so the keys are one
        column read (no memo) and the caller charges the logical
        traversals in bulk — one per keyed row, what the tuple engine's
        per-call extractor charges — after the build/probe pass.
        ``REF_COLUMN`` keys on the row's own pointer, which the tuple
        engine reads without a traversal charge.
        """
        if column == REF_COLUMN:
            if len(descriptor.sources) != 1:
                raise PlanError(
                    f"{REF_COLUMN} is ambiguous over "
                    f"{len(descriptor.sources)} sources"
                )
            return [row[0] for row in rows], 0
        return raw_row_extractor(descriptor, column).column(rows), 1

    # ------------------------------------------------------------------ #
    # cached-key hooks into the reference algorithms
    # ------------------------------------------------------------------ #

    def _key_extractor(
        self, rows_list: TemporaryList, column: str
    ) -> Callable[[Row], Any]:
        if column == REF_COLUMN:
            return super()._key_extractor(rows_list, column)
        extractor = row_extractor(rows_list.descriptor, column)
        self._live_keys.append(extractor)
        return extractor

    def sort_rows(
        self, result: TemporaryList, column: str
    ) -> List[Row]:
        extractor = row_extractor(result.descriptor, column)
        rows = sort_rows_cached(list(result.rows()), extractor)
        _flush_saved(extractor)
        return rows
