"""Batch kernels: partitioned hash-join build/probe, key-cached sorts.

The hash-join kernel follows the hybrid-hash shape: the build side is
split across a small power-of-two number of partitions (each its own
dict keyed by join value), probes hash straight to their partition, and
equal-key matches are emitted newest-first — the same order the tuple
engine's Chained Bucket Hash produces (its chains are LIFO), so results
are bit-identical.

The hash kernels take their keys as a list parallel to the rows,
computed by the caller once per batch — a column read through
``Relation.reader`` (:func:`repro.query.vectorized.deref.raw_row_extractor`)
— the same shape the morsel workers' ``build_groups`` / ``probe_groups``
take.

Counting: the kernel charges what it actually does — one hash per
build/probe row, one move per build insert and per emitted pair, one
allocation per partition header — and the caller charges the key
extractions in bulk.  That is strictly *less*
than the tuple engine's chained-hash totals, which additionally pay
chain traversals, chain comparisons and per-chain-node key
re-extractions; differential tests assert the elementwise bound.  Hash
equi-joins are therefore the one path *outside* the counter-equivalence
contract (DESIGN.md §3.8) — by design, since eliminating re-extractions
is the point.

The sort kernels reuse the paper's instrumented quicksort unchanged;
supplying dereference-cached key extractors makes the key cache the
optimisation (physical derefs drop from O(n log n) to O(n)) while
comparison/move/traversal totals stay identical.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.instrument import (
    count_alloc,
    count_hash,
    count_move,
    count_traverse,
)
from repro.query.sort import quicksort

KeyOf = Callable[[Any], Any]

#: Build-side partitions (power of two; the paper-scale inners this
#: engine sees make a deeper partitioning pointless).
DEFAULT_PARTITIONS = 8


class PartitionedHashTable:
    """A build-side hash table split across ``n_partitions`` dicts."""

    __slots__ = ("partitions", "mask", "size")

    def __init__(self, n_partitions: int = DEFAULT_PARTITIONS) -> None:
        if n_partitions < 1 or n_partitions & (n_partitions - 1):
            raise ValueError("n_partitions must be a power of two")
        self.partitions: List[dict] = [dict() for _ in range(n_partitions)]
        self.mask = n_partitions - 1
        self.size = 0
        count_alloc(n_partitions)


def _fit_partitions(n_rows: int, ceiling: int) -> int:
    """Largest power of two <= min(n_rows, ceiling), at least 1.

    Scaling the partition count to the build size (the hybrid-hash
    move) also keeps the kernel's allocation count bounded by the tuple
    engine's chained-hash build (one node allocation per insert plus
    the table), preserving the elementwise op-count bound even for tiny
    inners.
    """
    fitted = 1
    while fitted * 2 <= min(n_rows, ceiling):
        fitted *= 2
    return fitted


def build_hash_table(
    rows: Sequence[Any],
    keys: Sequence[Any],
    n_partitions: int = None,
) -> PartitionedHashTable:
    """Build phase: partition the inner input by its parallel join
    ``keys``."""
    if n_partitions is None:
        n_partitions = _fit_partitions(len(rows), DEFAULT_PARTITIONS)
    table = PartitionedHashTable(n_partitions)
    partitions = table.partitions
    mask = table.mask
    for row, key in zip(rows, keys):
        bucket = partitions[hash(key) & mask]
        matches = bucket.get(key)
        if matches is None:
            bucket[key] = [row]
        else:
            matches.append(row)
    count_hash(len(rows))
    count_move(len(rows))
    table.size = len(rows)
    return table


def probe_hash_table(
    table: PartitionedHashTable,
    rows: Sequence[Tuple[Any, ...]],
    keys: Sequence[Any],
) -> List[Tuple[Any, ...]]:
    """Probe phase: one batch of outer rows and their parallel join
    ``keys`` -> combined output rows.

    Emits ``outer_row + inner_row`` concatenations.  Equal-key matches
    come out newest-inserted-first (``reversed``), matching the LIFO
    chains of the tuple engine's Chained Bucket Hash so both engines
    produce identical row order.
    """
    partitions = table.partitions
    mask = table.mask
    out: List[Tuple[Any, ...]] = []
    append = out.append
    for row, key in zip(rows, keys):
        matches = partitions[hash(key) & mask].get(key)
        if matches is not None:
            for inner_row in reversed(matches):
                append(row + inner_row)
    count_hash(len(rows))
    count_move(len(out))
    return out


def dedup_hash_rows(
    rows: Sequence[Any],
    keys: Sequence[Any],
    keys_per_row: int = 1,
) -> List[Any]:
    """Hash duplicate elimination, dict-based (first occurrence wins).

    The batch counterpart of :func:`repro.query.project.project_hash`:
    same result rows in the same order, but the chained-bucket walk —
    and its per-chain-node key re-extractions — collapse into one dict
    membership test per row.  Charges one hash per row, one traversal
    per key column per row (what a counted key extractor would charge
    row-wise) and
    one move per surviving row; the tuple engine's totals additionally
    pay the chain traversals/comparisons, so this is elementwise
    cheaper — outside the strict equivalence contract, like the hash
    join kernel.  ``keys`` are the rows' dedup keys, read uncounted
    (``keys_per_row`` columns each); this function charges the
    traversals in bulk.
    """
    seen = set()
    add = seen.add
    out: List[Any] = []
    append = out.append
    for row, key in zip(rows, keys):
        if key not in seen:
            add(key)
            append(row)
    count_alloc(1)
    count_hash(len(rows))
    count_traverse(len(rows) * keys_per_row)
    count_move(len(out))
    return out


def sort_rows_cached(
    rows: List[Any], key_of: KeyOf
) -> List[Any]:
    """In-place paper quicksort with a (typically cached) key extractor.

    Thin named wrapper so call sites read as "the key-cached sort
    kernel"; the instrumentation and the permutation are exactly the
    paper's footnote-6 quicksort.
    """
    quicksort(rows, key_of=key_of)
    return rows
