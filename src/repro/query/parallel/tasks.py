"""Worker-side morsel tasks.

Each task is a pure function over (a) the catalog snapshot the worker
inherited when the pool forked and (b) a picklable payload.  A task
runs inside its *own* isolated counter scope and returns
``(result, packed_counts)``; the parent replays the packed counts into
its active scope (under a per-morsel span when tracing), so the merged
Section 3.1 totals are exactly what the scalar engine would have
charged — see DESIGN.md section 3.9 for the decomposition argument per
operator.

Catalog snapshots are looked up by *token* in :data:`_CATALOGS`, a
module global the parent fills before any pool process forks.  Because
every relation mutation bumps ``Relation.version`` and the scheduler
re-forks its pool whenever the catalog fingerprint changes, a worker's
inherited snapshot is always logically identical to the parent state
the task was computed against — even for workers forked late.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from itertools import compress
from typing import Any, Dict, Optional, Tuple

from repro.instrument import (
    count_hash,
    count_move,
    count_traverse,
    counters_scope,
)
from repro.instrument.counters import OpCounters
from repro.query.executor import filter_column_resolver
from repro.query.parallel.transport import (
    TRACE_SPANS,
    decode_refs,
    decode_rows,
    encode_refs,
    encode_rows,
    rebuild,
)
from repro.query.plan import REF_COLUMN
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.deref import (
    RowFieldAccess,
    ScanFieldAccess,
    dedup_keys,
    raw_row_extractor,
)

#: token -> Catalog.  Filled by the parent (scheduler) *before* pool
#: processes fork, inherited copy-on-write by every worker.
_CATALOGS: Dict[int, Any] = {}

#: Decoded probe-table cache, worker-process-local: the same build-side
#: blob is shipped with every probe morsel of one join; decoding it once
#: per worker instead of once per morsel keeps the probe hot loop tight.
#: Bounded LRU: blob ids grow monotonically across statements, so
#: without eviction a long-lived worker would pin every probe table it
#: ever decoded.
_TABLE_CACHE: "OrderedDict[Tuple[int, int], dict]" = OrderedDict()
_TABLE_CACHE_LIMIT = 4
_TABLE_CACHE_EVICTIONS = 0


def _cache_table(cache_key: Tuple[int, int], groups: dict) -> None:
    """Insert one decoded probe table, LRU-evicting past the limit."""
    global _TABLE_CACHE_EVICTIONS
    _TABLE_CACHE[cache_key] = groups
    while len(_TABLE_CACHE) > _TABLE_CACHE_LIMIT:
        _TABLE_CACHE.popitem(last=False)
        _TABLE_CACHE_EVICTIONS += 1


def blob_cache_stats() -> Dict[str, int]:
    """This process's decode-cache occupancy and eviction tally."""
    return {
        "entries": len(_TABLE_CACHE),
        "limit": _TABLE_CACHE_LIMIT,
        "evictions": _TABLE_CACHE_EVICTIONS,
    }


def reset_blob_cache() -> None:
    """Drop cached probe tables and the eviction tally (tests)."""
    global _TABLE_CACHE_EVICTIONS
    _TABLE_CACHE.clear()
    _TABLE_CACHE_EVICTIONS = 0


def register_catalog(token: int, catalog: Any) -> None:
    _CATALOGS[token] = catalog


def release_catalog(token: int) -> None:
    _CATALOGS.pop(token, None)


def pack_counts(counters: OpCounters) -> Tuple[int, ...]:
    """An :class:`OpCounters` snapshot as a plain picklable tuple."""
    return (
        counters.comparisons,
        counters.traversals,
        counters.moves,
        counters.hashes,
        counters.allocations,
        dict(counters.extra),
    )


def merge_packed(counters: OpCounters, packed: Tuple[int, ...]) -> None:
    """Replay one worker's packed counts into ``counters``."""
    comparisons, traversals, moves, hashes, allocations, extra = packed
    counters.comparisons += comparisons
    counters.traversals += traversals
    counters.moves += moves
    counters.hashes += hashes
    counters.allocations += allocations
    for name, value in extra.items():
        counters.bump(name, value)


def _batch_key(descriptor, column: str, rows: list):
    """(join keys of the pointer ``rows``, traversal charges per row)."""
    if column == REF_COLUMN:
        return [row[0] for row in rows], 0
    return raw_row_extractor(descriptor, column).column(rows), 1


def build_groups(items: list, keys: list) -> dict:
    """Group ``items`` by parallel ``keys``, insertion order preserved.

    The per-morsel slice of the scalar hash build: charges one hash and
    one move per row, exactly the build kernel's per-row charges; the
    partition-header allocation is charged once by the coordinator.
    """
    groups: dict = {}
    for item, key in zip(items, keys):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [item]
        else:
            bucket.append(item)
    count_hash(len(items))
    count_move(len(items))
    return groups


def probe_groups(groups: dict, rows: list, keys: list) -> list:
    """Probe pointer rows against merged build groups.

    Emits ``outer + inner`` concatenations with equal-key matches
    newest-first (``reversed``), matching the scalar kernel's LIFO
    order; charges one hash per probe row and one move per emitted row.
    """
    out: list = []
    append = out.append
    for row, key in zip(rows, keys):
        matches = groups.get(key)
        if matches is not None:
            for inner in reversed(matches):
                append(row + inner)
    count_hash(len(rows))
    count_move(len(out))
    return out


def local_dedup(rows: list, keys: list) -> list:
    """First-occurrence-wins survivors of one morsel, with their keys.

    Charges one hash per row (the scalar dedup kernel's per-row hash);
    the single set allocation and the per-survivor moves are charged by
    the coordinator over the *merged* survivor list.
    """
    seen = set()
    add = seen.add
    out: list = []
    append = out.append
    for row, key in zip(rows, keys):
        if key not in seen:
            add(key)
            append((key, row))
    count_hash(len(rows))
    return out


# --------------------------------------------------------------------- #
# task handlers
# --------------------------------------------------------------------- #


def _scan_filter(payload) -> tuple:
    """Filter one morsel of scan-order refs; returns the kept refs packed.

    The refs are the coordinator's own (organically charged) index
    walk, shipped packed — the worker never touches the index.
    """
    token, relation_name, predicate, packed = payload
    relation = _CATALOGS[token].relation(relation_name)
    chunk = decode_refs(packed)
    mask = compile_predicate(predicate, ScanFieldAccess(relation))
    flags = mask(chunk)
    return encode_refs(list(compress(chunk, flags)))


def _filter_rows(payload) -> tuple:
    """Filter one morsel of pointer rows; returns the kept rows packed."""
    token, spec, predicate, packed = payload
    descriptor = rebuild(_CATALOGS[token], spec)
    rows = decode_rows(packed)
    access = RowFieldAccess(descriptor, filter_column_resolver(descriptor))
    mask = compile_predicate(predicate, access)
    flags = mask(rows)
    return encode_rows(list(compress(rows, flags)))


def _hash_build(payload) -> dict:
    """Group one build-side morsel's pointer rows by join key."""
    token, spec, column, packed = payload
    descriptor = rebuild(_CATALOGS[token], spec)
    rows = decode_rows(packed)
    keys, cost = _batch_key(descriptor, column, rows)
    count_traverse(len(rows) * cost)
    return build_groups(rows, keys)


def _hash_probe(payload) -> tuple:
    """Probe one outer morsel against the broadcast build table.

    ``blob`` is the pickled build table; the *decoded* table is cached
    by ``(token, table_id)``, so a cache hit never unpickles it again.
    Returns the joined rows packed.
    """
    token, spec, column, table_id, blob, packed = payload
    descriptor = rebuild(_CATALOGS[token], spec)
    cache_key = (token, table_id)
    groups = _TABLE_CACHE.get(cache_key)
    if groups is None:
        groups = pickle.loads(blob)
        _cache_table(cache_key, groups)
    else:
        _TABLE_CACHE.move_to_end(cache_key)
    rows = decode_rows(packed)
    keys, cost = _batch_key(descriptor, column, rows)
    count_traverse(len(rows) * cost)
    return encode_rows(probe_groups(groups, rows, keys))


def _hash_dedup(payload) -> list:
    """Locally deduplicate one morsel; returns (key, pointer row) pairs."""
    token, spec, columns, packed = payload
    descriptor = rebuild(_CATALOGS[token], spec)
    rows = decode_rows(packed)
    keys = dedup_keys(descriptor, columns, rows)
    count_traverse(len(rows) * len(columns))
    return local_dedup(rows, keys)


# --------------------------------------------------------------------- #
# injected worker failures (scheduler-side fault decisions)
# --------------------------------------------------------------------- #


def injected_failure(request: Tuple[str, tuple]) -> None:
    """A worker task that fails: the ``pool.worker`` "error" action.

    The parent decides the fault at dispatch time (keeping the seeded
    RNG in one process) and submits this instead of the real task, so
    the failure takes the full worker round-trip — pickling, the pool's
    result plumbing, the parent-side gather — like an organic one.
    """
    from repro.errors import InjectedFaultError

    raise InjectedFaultError("pool.worker", "error")


def worker_exit(request: Tuple[str, tuple]) -> None:
    """A worker task that dies hard: the ``pool.worker`` "kill" action.

    ``os._exit`` skips all cleanup, exactly like a segfault or an OOM
    kill; the pool notices the lost process and breaks every outstanding
    future, which is the scheduler's cue to re-fork.
    """
    os._exit(1)


_HANDLERS = {
    "scan_filter": _scan_filter,
    "filter_rows": _filter_rows,
    "hash_build": _hash_build,
    "hash_probe": _hash_probe,
    "hash_dedup": _hash_dedup,
}

def run_task(request: Tuple[str, tuple]) -> Tuple[Any, Tuple[int, ...]]:
    """Run one morsel task in an isolated counter scope.

    The entry point both pool workers and the inline executor call; the
    isolated scope is what makes per-worker counting race-free and the
    packed result mergeable by the parent.

    A request is ``(kind, payload)`` — the untraced fast path, returning
    ``(result, packed_counts)`` exactly as before — or
    ``(kind, payload, trace_ctx)`` when the parent has observability
    active (see :func:`~repro.query.parallel.transport.trace_request`),
    returning ``(result, packed_counts, telemetry)`` where the telemetry
    tuple carries pid, wall-clock, queue wait and (in span mode) the
    serialized worker span tree for the coordinator to graft.  Either way the packed counts are
    bit-identical: the worker span's scope rolls up into the isolated
    scope, so tracing attributes the same counts, never new ones.
    """
    if len(request) == 2:
        kind, payload = request
        with counters_scope() as scope:
            result = _HANDLERS[kind](payload)
        return result, pack_counts(scope)
    kind, payload, ctx = request
    return _run_traced(kind, payload, ctx)


def _run_traced(
    kind: str, payload: tuple, ctx: Tuple[int, int, float]
) -> Tuple[Any, Tuple[int, ...], tuple]:
    """One traced task under a worker-local observability instance.

    The worker activates its own lightweight
    :class:`~repro.obs.Observability` (metrics always, tracing in span
    mode) for the duration of the handler and restores the previous
    instance after — essential in inline mode, where "worker" and
    coordinator share a process and the coordinator's tracer must not
    see worker-internal spans directly (they arrive grafted instead,
    identically to the process-pool path).
    """
    from repro.obs import Observability, ObservabilityConfig
    from repro.obs import runtime as obs_runtime

    mode, index, dispatched_at = ctx
    queue_wait = max(0.0, time.monotonic() - dispatched_at)
    local = Observability(
        ObservabilityConfig(
            tracing=mode >= TRACE_SPANS,
            metrics=True,
            slow_query_ops=None,
            flight_recorder=False,
        )
    )
    previous = obs_runtime.activate(local)
    started = time.perf_counter()
    try:
        with counters_scope() as scope:
            if local.tracer is not None:
                with local.tracer.span(
                    f"worker.{kind}",
                    kind="worker",
                    pid=os.getpid(),
                    morsel=index,
                ):
                    result = _HANDLERS[kind](payload)
            else:
                result = _HANDLERS[kind](payload)
    finally:
        if previous is None:
            obs_runtime.deactivate()
        else:
            obs_runtime.activate(previous)
    elapsed = time.perf_counter() - started
    span_dict: Optional[dict] = None
    if local.tracer is not None:
        root = local.tracer.last()
        if root is not None:
            root.attrs["queue_wait"] = queue_wait
            span_dict = root.to_dict()
    telemetry = (os.getpid(), elapsed, queue_wait, span_dict)
    return result, pack_counts(scope), telemetry

