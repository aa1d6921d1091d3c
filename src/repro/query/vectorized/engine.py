"""The batch-pipelined executor.

:class:`BatchExecutor` evaluates the same plan trees as the tuple
engine but moves rows between operators in fixed-size batches through
generators: a Scan -> Filter -> Project chain never materialises a
``TemporaryList`` between nodes, only at the root.  Each operator
compiles its predicate once (:mod:`~repro.query.vectorized.compile`),
extracts fields through per-operator dereference caches
(:mod:`~repro.query.vectorized.deref`), and the two hash-based
operators — hash equi-joins and hash duplicate elimination — run the
batch kernels (:mod:`~repro.query.vectorized.kernels`), whose counts
are elementwise *bounded above* by the tuple engine's rather than
equal.

Everything else — index leaves, the non-hash join algorithms, sorting,
sort-based duplicate elimination — deliberately *reuses* the
instrumented reference algorithms, only swapping in cached key
extractors: op totals stay identical to the tuple engine (the
counter-equivalence contract) while the physical dereferences behind
them collapse.

Two execution modes:

* **pipelined** (the default): ``_stream`` recursively builds a
  generator pipeline; batches flow straight through Filter/Project and
  through hash-join probes.
* **eager**: when an observability tracer is active (per-operator spans
  need one span per materialised node, and EXPLAIN ANALYZE renders
  rows-out per operator) or a result cache is attached (subtree
  memoization needs materialised subtree results), each node
  materialises its child first and then applies the same batch kernels
  to the child's rows as one big batch.  The kernels are shared, so
  op counts are identical in either mode.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator, List, Tuple

from repro.errors import PlanError
from repro.instrument import count_traverse
from repro.obs import runtime as obs_runtime
from repro.query.executor import Executor, filter_column_resolver
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from repro.query.project import project_sort_scan
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.config import DEFAULT_BATCH_SIZE
from repro.query.vectorized.deref import (
    RowFieldAccess,
    ScanFieldAccess,
    raw_row_extractor,
    row_extractor,
)
from repro.query.vectorized.kernels import (
    build_hash_table,
    dedup_hash_rows,
    probe_hash_table,
    sort_rows_cached,
)
from repro.storage.temporary import ResultDescriptor, TemporaryList
from repro.storage.tuples import TupleRef

Row = Tuple[TupleRef, ...]
Batches = Iterator[List[Row]]


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
    constructor contract (plus ``batch_size``), same ``execute`` entry
    point, same result-cache and span integration, same results — and,
    outside hash equi-joins, the same Section 3.1 op totals.
    """

    engine_name = "batch"

    def __init__(
        self,
        catalog,
        result_cache=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(catalog, result_cache)
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.batch_size = int(batch_size)
        #: Cached key extractors handed to reference join algorithms,
        #: awaiting a hit-tally flush when the algorithm returns.
        self._live_keys: List[Callable] = []

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(self, plan: PlanNode) -> TemporaryList:
        if self._eager_mode():
            return super()._dispatch(plan)
        descriptor, batches = self._stream(plan)
        result = TemporaryList(descriptor)
        for batch in batches:
            result.extend(batch)
        return result

    def _eager_mode(self) -> bool:
        """Materialise node-by-node (spans / subtree result cache)?"""
        obs = obs_runtime.active()
        if obs is not None and obs.tracer is not None:
            return True
        return self.result_cache is not None

    # ------------------------------------------------------------------ #
    # pipelined mode
    # ------------------------------------------------------------------ #

    def _chunks(self, rows: List[Row]) -> Batches:
        size = self.batch_size
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def _stream(self, plan: PlanNode) -> Tuple[ResultDescriptor, Batches]:
        """Evaluate ``plan`` to (descriptor, iterator of row batches)."""
        if isinstance(plan, ScanNode):
            return self._stream_scan(plan)
        if isinstance(plan, FilterNode):
            return self._stream_filter(plan)
        if isinstance(plan, ProjectNode):
            return self._stream_project(plan)
        if (
            isinstance(plan, JoinNode)
            and plan.op == "="
            and plan.method == "hash"
        ):
            return self._stream_hash_join(plan)
        # Index leaves and the blocking join methods: evaluate the node
        # whole (children recurse back through this engine) and chunk.
        result = super()._dispatch(plan)
        return result.descriptor, self._chunks(result.rows())

    def _stream_scan(
        self, node: ScanNode
    ) -> Tuple[ResultDescriptor, Batches]:
        relation = self.catalog.relation(node.relation_name)
        descriptor = ResultDescriptor.whole_relation(relation)
        mask = None
        if node.predicate is not None:
            mask = compile_predicate(
                node.predicate, ScanFieldAccess(relation)
            )
        size = self.batch_size

        def generate() -> Batches:
            refs = iter(relation.any_index().scan())
            while True:
                chunk = list(islice(refs, size))
                if not chunk:
                    return
                if mask is not None:
                    flags = mask(chunk)
                    rows = [
                        (ref,) for ref, keep in zip(chunk, flags) if keep
                    ]
                else:
                    rows = [(ref,) for ref in chunk]
                if rows:
                    yield rows

        return descriptor, generate()

    def _stream_filter(
        self, node: FilterNode
    ) -> Tuple[ResultDescriptor, Batches]:
        descriptor, batches = self._stream(node.child)
        return descriptor, self._filter_batches(node, descriptor, batches)

    def _stream_project(
        self, node: ProjectNode
    ) -> Tuple[ResultDescriptor, Batches]:
        descriptor, batches = self._stream(node.child)
        projected = descriptor.project(list(node.columns))
        if not node.deduplicate:
            # Descriptor-only projection: the batches pass through.
            return projected, batches

        def generate() -> Batches:
            rows: List[Row] = []
            for batch in batches:
                rows.extend(batch)
            yield from self._chunks(self._dedup_rows(projected, rows, node))

        return projected, generate()

    def _stream_hash_join(
        self, node: JoinNode
    ) -> Tuple[ResultDescriptor, Batches]:
        left_desc, left_batches = self._stream(node.left)
        right_desc, right_batches = self._stream(node.right)
        descriptor = self._join_descriptor(left_desc, right_desc)

        def generate() -> Batches:
            inner_rows: List[Row] = []
            for batch in right_batches:
                inner_rows.extend(batch)
            inner_key, inner_cost = self._batch_key(
                right_desc, node.right_col
            )
            with obs_runtime.span("hash_join.build", "join_phase"):
                table = build_hash_table(inner_rows, inner_key)
                count_traverse(len(inner_rows) * inner_cost)
            outer_key, outer_cost = self._batch_key(
                left_desc, node.left_col
            )
            with obs_runtime.span("hash_join.probe", "join_phase"):
                for batch in left_batches:
                    pairs = probe_hash_table(table, batch, outer_key)
                    count_traverse(len(batch) * outer_cost)
                    if pairs:
                        yield pairs

        return descriptor, generate()

    # ------------------------------------------------------------------ #
    # shared batch operators (used by both modes)
    # ------------------------------------------------------------------ #

    def _filter_batches(
        self, node: FilterNode, descriptor: ResultDescriptor, batches
    ) -> Batches:
        """The rows of ``batches`` that satisfy ``node.predicate``.

        One compiled mask (one dereference memo) over every batch;
        empty output batches are dropped.
        """
        mask = compile_predicate(
            node.predicate, self._row_access(descriptor)
        )

        def generate() -> Batches:
            for batch in batches:
                flags = mask(batch)
                kept = [row for row, keep in zip(batch, flags) if keep]
                if kept:
                    yield kept

        return generate()

    def _hash_join_rows(
        self,
        node: JoinNode,
        left_desc: ResultDescriptor,
        outer: List[Row],
        right_desc: ResultDescriptor,
        inner: List[Row],
    ) -> List[Row]:
        """Hash equi-join of materialised inputs: build ``inner``,
        probe with ``outer``."""
        inner_key, inner_cost = self._batch_key(right_desc, node.right_col)
        outer_key, outer_cost = self._batch_key(left_desc, node.left_col)
        with obs_runtime.span("hash_join.build", "join_phase"):
            table = build_hash_table(inner, inner_key)
            count_traverse(len(inner) * inner_cost)
        with obs_runtime.span("hash_join.probe", "join_phase"):
            rows = probe_hash_table(table, outer, outer_key)
            count_traverse(len(outer) * outer_cost)
        return rows

    def _row_access(self, descriptor: ResultDescriptor) -> RowFieldAccess:
        return RowFieldAccess(
            descriptor, filter_column_resolver(descriptor)
        )

    def _batch_key(
        self, descriptor: ResultDescriptor, column: str
    ) -> Tuple[Callable[[Row], Any], int]:
        """Hash-kernel join key: ``(extractor, traversals per row)``.

        The kernel keys each row exactly once, so the extractor is a
        raw (unmemoized) reader and the caller charges the logical
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

            def self_ref(row: Row) -> TupleRef:
                return row[0]

            return self_ref, 0
        return raw_row_extractor(descriptor, column), 1

    def _dedup_rows(
        self, descriptor: ResultDescriptor, rows: List[Row], node: ProjectNode
    ) -> List[Row]:
        """Duplicate elimination.

        ``hash`` runs the dict-based batch kernel (first occurrence
        wins, same rows/order as ``project_hash``, elementwise cheaper
        counts — like the hash join, outside the strict equivalence
        contract).  ``sort_scan`` reuses the paper's sort-based
        algorithm unchanged with dereference-cached keys, so its op
        totals match the tuple engine exactly.
        """
        if node.dedup_method == "hash":
            raw = [
                raw_row_extractor(descriptor, name) for name in node.columns
            ]
            if len(raw) == 1:
                key_of = raw[0]
            else:

                def key_of(row: Row) -> Tuple[Any, ...]:
                    return tuple(extract(row) for extract in raw)

            return dedup_hash_rows(rows, key_of, keys_per_row=len(raw))
        extractors = [
            row_extractor(descriptor, name, counted=True)
            for name in node.columns
        ]

        def row_key(row: Row) -> Tuple[Any, ...]:
            return tuple(extract(row) for extract in extractors)

        unique = project_sort_scan(rows, row_key)
        _flush_saved(*extractors)
        return unique

    # ------------------------------------------------------------------ #
    # eager-mode operator overrides (spans / result cache active)
    # ------------------------------------------------------------------ #

    def _execute_scan(self, node: ScanNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        refs = list(relation.any_index().scan())
        if node.predicate is not None:
            mask = compile_predicate(
                node.predicate, ScanFieldAccess(relation)
            )
            flags = mask(refs)
            refs = [ref for ref, keep in zip(refs, flags) if keep]
        return TemporaryList.from_refs(relation, refs)

    def _execute_filter(self, node: FilterNode) -> TemporaryList:
        child = self.execute(node.child)
        # One input batch: at most one (non-empty) output batch.
        kept = next(
            self._filter_batches(node, child.descriptor, [child.rows()]), []
        )
        return TemporaryList(child.descriptor, kept)

    def _execute_project(self, node: ProjectNode) -> TemporaryList:
        child = self.execute(node.child)
        projected = child.project(list(node.columns))
        if not node.deduplicate:
            return projected
        unique = self._dedup_rows(
            projected.descriptor, projected.rows(), node
        )
        return TemporaryList(projected.descriptor, unique)

    def _execute_join(self, node: JoinNode) -> TemporaryList:
        if node.op == "=" and node.method == "hash":
            left = self.execute(node.left)
            right = self.execute(node.right)
            rows = self._hash_join_rows(
                node, left.descriptor, left.rows(),
                right.descriptor, right.rows(),
            )
            descriptor = self._join_descriptor(
                left.descriptor, right.descriptor
            )
            return TemporaryList(descriptor, rows)
        # Non-hash joins reuse the reference algorithms; the overridden
        # _key_extractor below hands them dereference-cached keys, whose
        # hit tallies are flushed here once the algorithm finishes.
        marker = len(self._live_keys)
        result = super()._execute_join(node)
        _flush_saved(*self._live_keys[marker:])
        del self._live_keys[marker:]
        return result

    # ------------------------------------------------------------------ #
    # cached-key hooks into the reference algorithms
    # ------------------------------------------------------------------ #

    def _key_extractor(
        self, rows_list: TemporaryList, column: str
    ) -> Callable[[Row], Any]:
        if column == REF_COLUMN:
            return super()._key_extractor(rows_list, column)
        extractor = row_extractor(rows_list.descriptor, column, counted=True)
        self._live_keys.append(extractor)
        return extractor

    def sort_rows(
        self, result: TemporaryList, column: str
    ) -> List[Row]:
        extractor = row_extractor(result.descriptor, column, counted=True)
        rows = sort_rows_cached(list(result.rows()), extractor)
        _flush_saved(extractor)
        return rows
