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
sort-based duplicate elimination — is the shared
:class:`~repro.query.executor.Executor` code running the instrumented
reference algorithms over row positions.  The one difference is the
key hook, :meth:`BatchExecutor._position_key`: it reads the key column
once per operator input and charges one traversal per key the
algorithm extracts, so op totals stay identical to the tuple engine
(the counter-equivalence contract) while the physical reads behind
them collapse to one per row.

The four row kernels — :meth:`BatchExecutor._scan_refs`,
:meth:`~BatchExecutor._filter_rows`, :meth:`~BatchExecutor._hash_join_rows`
and :meth:`~BatchExecutor.dedup_rows` — are list in, list out; they
are the only methods the morsel-parallel engine overrides.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.instrument import count_traverse
from repro.obs import runtime as obs_runtime
from repro.query.executor import Executor, filter_column_resolver
from repro.query.plan import FilterNode, JoinNode, ScanNode
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.deref import (
    RowFieldAccess,
    ScanFieldAccess,
    batch_key,
    dedup_keys,
)
from repro.query.vectorized.kernels import (
    build_hash_table,
    charge_table_header,
    dedup_hash_rows,
    probe_hash_table,
)
from repro.storage.temporary import (
    ResultDescriptor,
    TemporaryList,
    join_descriptor,
)
from repro.storage.tuples import TupleRef

Row = Tuple[TupleRef, ...]


class BatchExecutor(Executor):
    """Batch-at-a-time evaluation of the tuple engine's plan trees.

    A drop-in :class:`~repro.query.executor.Executor`: same
    constructor contract, same ``execute`` entry point, same
    result-cache and span integration, same results — and, outside
    hash equi-joins, the same Section 3.1 op totals.
    """

    engine_name = "batch"

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
        return super()._execute_join(node)

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
        mask."""
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
            keys, cost = batch_key(right_desc, node.right_col, inner)
            table = build_hash_table(inner, keys)
            charge_table_header(len(inner))
            count_traverse(len(inner) * cost)
        with obs_runtime.span("hash_join.probe", "join_phase"):
            keys, cost = batch_key(left_desc, node.left_col, outer)
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
        contract).  ``sort_scan`` is the shared reference algorithm
        over positions, so its op totals match the tuple engine exactly.
        """
        if method != "hash":
            return super().dedup_rows(descriptor, rows, columns, method)
        keys = dedup_keys(descriptor, columns, rows)
        return dedup_hash_rows(rows, keys, keys_per_row=len(columns))

    def _row_access(self, descriptor: ResultDescriptor) -> RowFieldAccess:
        return RowFieldAccess(
            descriptor, filter_column_resolver(descriptor)
        )

    def _position_key(
        self, result: TemporaryList, column: str
    ) -> Callable[[int], Any]:
        """``position -> key``: the key column read once, one traversal
        charged per call — what the tuple engine's per-call read
        charges."""
        keys, cost = batch_key(result.descriptor, column, result.rows())
        if not cost:
            return keys.__getitem__

        def key(position: int) -> Any:
            count_traverse()
            return keys[position]

        return key
