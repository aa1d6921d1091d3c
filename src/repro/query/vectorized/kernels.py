"""Batch kernels: hash-join build/probe and hash duplicate elimination.

The hash-join kernel is the paper's hash join (§3.3) on a single table
keyed by join value: the build groups the inner rows ``{key: [rows]}``
in input order, and the probe emits equal-key matches newest-first —
the same order the tuple engine's Chained Bucket Hash produces (its
chains are LIFO), so results are bit-identical.  The serial batch
engine, the morsel coordinator and the morsel workers all run these
two functions.

The kernels take their keys as a list parallel to the rows, computed
by the caller once per batch — a column read through
``Relation.reader`` (:func:`repro.query.vectorized.deref.batch_key`).

Counting: the kernel charges what it actually does — one hash per
build/probe row, one move per build insert and per emitted pair — and
the caller charges the key extractions in bulk and the table header
once (:func:`charge_table_header`).  That is strictly *less* than the
tuple engine's chained-hash totals, which additionally pay chain
traversals, chain comparisons and per-chain-node key re-extractions;
differential tests assert the elementwise bound.  Hash equi-joins are
therefore the one path *outside* the counter-equivalence contract
(DESIGN.md §3.8) — by design, since eliminating re-extractions is the
point.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.instrument import (
    count_alloc,
    count_hash,
    count_move,
    count_traverse,
)

#: Ceiling of the modelled table header (see :func:`charge_table_header`).
HEADER_PARTITIONS = 8


def _fit_partitions(n_rows: int, ceiling: int) -> int:
    """Largest power of two <= min(n_rows, ceiling), at least 1."""
    fitted = 1
    while fitted * 2 <= min(n_rows, ceiling):
        fitted *= 2
    return fitted


def charge_table_header(n_rows: int) -> None:
    """Charge the build table's header allocation, once per build.

    The modelled cost of a hybrid-hash table split into up to
    ``HEADER_PARTITIONS`` partitions scaled to the build size, which
    keeps the kernel's allocations bounded by the tuple engine's
    chained-hash build even for tiny inners.  The serial engine and the
    morsel coordinator both call it, so the totals match for any
    worker count.
    """
    count_alloc(_fit_partitions(n_rows, HEADER_PARTITIONS))


def build_hash_table(rows: Sequence[Any], keys: Sequence[Any]) -> dict:
    """Build phase: ``{key: [rows]}``, insertion order preserved.

    Charges one hash and one move per row.  A morsel worker's table is
    one slice of the whole build; the coordinator extends the groups
    in morsel order.
    """
    table: dict = {}
    for row, key in zip(rows, keys):
        matches = table.get(key)
        if matches is None:
            table[key] = [row]
        else:
            matches.append(row)
    count_hash(len(rows))
    count_move(len(rows))
    return table


def probe_hash_table(
    table: dict,
    rows: Sequence[Tuple[Any, ...]],
    keys: Sequence[Any],
) -> List[Tuple[Any, ...]]:
    """Probe phase: one batch of outer rows and their parallel join
    ``keys`` -> combined output rows.

    Emits ``outer_row + inner_row`` concatenations.  Equal-key matches
    come out newest-inserted-first (``reversed``), matching the LIFO
    chains of the tuple engine's Chained Bucket Hash so both engines
    produce identical row order.  Charges one hash per probe row and
    one move per emitted row.
    """
    out: List[Tuple[Any, ...]] = []
    append = out.append
    for row, key in zip(rows, keys):
        matches = table.get(key)
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
