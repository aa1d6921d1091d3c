"""Per-operator dereference caching over the one physical dereference.

The paper's cost model charges one pointer traversal per (tuple, field)
extraction.  Physically, every extraction here is
:meth:`Relation.reader <repro.storage.relation.Relation.reader>`: one
fused slot read out of the partition, with the checked walk through
``_locate`` only for forwarded, deleted or missing tuples.  Operators
that touch the same field of the same tuple repeatedly (quicksort keys,
hash-chain re-extractions, duplicate elimination) would pay that read
again each time.  The memoizing extractors here keep the extracted
value per tuple pointer, so a memo hit saves one fused read, while the
*logical* traversal is still counted exactly as the tuple engine counts
it — the paper's graphs stay reproducible — and every avoided physical
dereference is tallied separately under
``OpCounters.extra["deref_saved_traversals"]``.

The raw (unmemoized) readers are for fields an operator reads once per
item; they carry ``column(items)``, the same read a batch at a time.

Caveat: forwarding-chain hops (left behind by heap-overflow
relocations, footnote 1) are only re-counted on a physical miss; a
memo hit charges the single logical traversal but not the chain walk.
Relations that have experienced relocations are therefore outside the
strict counter-equivalence contract (and outside the paper's steady-
state measurements, which never relocate).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.instrument import count_event, count_traverse
from repro.obs import runtime as obs_runtime
from repro.storage.relation import Relation
from repro.storage.temporary import ResultDescriptor
from repro.storage.tuples import TupleRef

#: The extra-counter name under which avoided physical dereferences are
#: reported (see ``OpCounters.extra``).
DEREF_SAVED_COUNTER = "deref_saved_traversals"

_MISS = object()


def _attach_flush(extract: Callable, pending: list) -> Callable:
    """Give ``extract`` a ``flush()`` draining its hit/miss tallies.

    Per-call bookkeeping is a bare list-cell increment (``pending`` is
    ``[hits, misses]``) — the hot path of every cached extractor — and
    ``flush`` publishes the accumulated savings with one
    :func:`count_event` call.  When observability metrics are active,
    the tallies also land in the
    :class:`~repro.obs.metrics.MetricsRegistry` (and from there the
    Prometheus-text exporter) as ``deref_saved_traversals_total`` and
    per-outcome ``deref_cache_requests_total`` counters.  Callers flush
    at operator (or batch) boundaries; flushing is idempotent.
    """

    def flush() -> None:
        hits, misses = pending
        if hits:
            count_event(DEREF_SAVED_COUNTER, hits)
        if hits or misses:
            act = obs_runtime.active()
            if act is not None and act.metrics is not None:
                if hits:
                    act.metric_inc(
                        "deref_saved_traversals_total", hits
                    )
                    act.metric_inc(
                        "deref_cache_requests_total", hits, outcome="hit"
                    )
                if misses:
                    act.metric_inc(
                        "deref_cache_requests_total",
                        misses,
                        outcome="miss",
                    )
            pending[0] = pending[1] = 0

    extract.flush = flush
    return extract


def ref_extractor(
    relation: Relation, field_name: str, counted: bool = False
) -> Callable[[TupleRef], Any]:
    """A memoizing ``ref -> field value`` extractor over one relation.

    With ``counted=False`` no traversal is charged per call — the shape
    scan predicates need (``Relation.read_field`` charges none either);
    callers that batch-count traversals use this variant.  With
    ``counted=True`` every call charges one traversal, mirroring
    ``Relation.key_extractor``.  Either way a memo hit skips the
    physical read; hits accumulate locally and land under
    :data:`DEREF_SAVED_COUNTER` when the caller invokes the
    extractor's ``flush()``.
    """
    read = relation.reader(field_name)
    memo: dict = {}
    miss = _MISS
    pending = [0, 0]

    if counted:

        def extract(ref: TupleRef) -> Any:
            count_traverse()
            value = memo.get(ref, miss)
            if value is miss:
                value = memo[ref] = read(ref)
                pending[1] += 1
            else:
                pending[0] += 1
            return value

    else:

        def extract(ref: TupleRef) -> Any:
            value = memo.get(ref, miss)
            if value is miss:
                value = memo[ref] = read(ref)
                pending[1] += 1
            else:
                pending[0] += 1
            return value

    return _attach_flush(extract, pending)


def row_extractor(
    descriptor: ResultDescriptor, column_name: str, counted: bool = False
) -> Callable[[Tuple[TupleRef, ...]], Any]:
    """A memoizing ``pointer row -> column value`` extractor.

    The drop-in counterpart of ``TemporaryList.value_extractor``: with
    ``counted=True`` it charges the same one-traversal-per-call, but a
    memo hit (keyed by the row's source pointer, so rows sharing a base
    tuple share the memo) skips the physical work.  ``counted=False``
    is for compiled batch passes that charge traversals in bulk.  Hits
    accumulate locally; callers publish them via ``extract.flush()``.
    """
    col = descriptor.column(column_name)
    read = descriptor.sources[col.source].reader(col.field)
    source = col.source
    memo: dict = {}
    miss = _MISS
    pending = [0, 0]

    if counted:

        def extract(row: Tuple[TupleRef, ...]) -> Any:
            count_traverse()
            ref = row[source]
            value = memo.get(ref, miss)
            if value is miss:
                value = memo[ref] = read(ref)
                pending[1] += 1
            else:
                pending[0] += 1
            return value

    else:

        def extract(row: Tuple[TupleRef, ...]) -> Any:
            ref = row[source]
            value = memo.get(ref, miss)
            if value is miss:
                value = memo[ref] = read(ref)
                pending[1] += 1
            else:
                pending[0] += 1
            return value

    return _attach_flush(extract, pending)


def raw_row_extractor(
    descriptor: ResultDescriptor, column_name: str
) -> Callable[[Tuple[TupleRef, ...]], Any]:
    """An unmemoized, uncounted ``pointer row -> column value`` reader.

    For kernels that touch each row's key exactly once and charge the
    traversals in bulk themselves (e.g. hash duplicate elimination):
    there a memo can never hit, so the plain dereference is cheapest.
    Its ``column(rows)`` reads a whole batch through the source
    relation's ``reader.column``.
    """
    col = descriptor.column(column_name)
    read = descriptor.sources[col.source].reader(col.field)
    read_column = read.column
    source = col.source

    def extract(row: Tuple[TupleRef, ...]) -> Any:
        return read(row[source])

    def column(rows: Sequence[Tuple[TupleRef, ...]]) -> List[Any]:
        return read_column([row[source] for row in rows])

    extract.column = column
    return extract


def dedup_keys(
    descriptor: ResultDescriptor,
    column_names: Sequence[str],
    rows: Sequence[Tuple[TupleRef, ...]],
) -> List[Any]:
    """The duplicate-elimination keys of ``rows``, one column read per
    key column: a row's value for one column, a tuple of its values for
    several."""
    columns = [
        raw_row_extractor(descriptor, name).column(rows)
        for name in column_names
    ]
    if len(columns) == 1:
        return columns[0]
    if not columns:
        return [()] * len(rows)
    return list(zip(*columns))


class ScanFieldAccess:
    """Field access for scan predicates: items are raw tuple refs.

    Mirrors the tuple engine's scan counting — ``Relation.read_field``
    charges *no* traversal — so compiled scan passes charge none
    either (``counts_traversals`` is False).
    """

    counts_traversals = False

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._extractors: dict = {}

    def extractor(
        self, field_name: str, memoize: bool = True
    ) -> Callable[[TupleRef], Any]:
        """Field extractor; ``memoize=False`` returns the relation's own
        unmemoized :meth:`~repro.storage.relation.Relation.reader`.

        The compiler passes ``memoize=False`` for fields its predicate
        reads at most once per item — there a memo can never hit, so
        skipping it removes the dict/hash overhead without losing any
        reportable savings.
        """
        key = (field_name, memoize)
        ext = self._extractors.get(key)
        if ext is None:
            if memoize:
                ext = ref_extractor(
                    self.relation, field_name, counted=False
                )
            else:
                ext = self.relation.reader(field_name)
            self._extractors[key] = ext
        return ext

    def reader(self, ref: TupleRef) -> Callable[[str], Any]:
        """A per-item field reader for uncompilable predicate leaves."""
        extractor = self.extractor

        def read(field_name: str) -> Any:
            return extractor(field_name)(ref)

        return read

    def flush(self) -> None:
        """Publish every extractor's accumulated dereference savings."""
        for ext in self._extractors.values():
            flush = getattr(ext, "flush", None)
            if flush is not None:
                flush()


class RowFieldAccess:
    """Field access for filter predicates: items are pointer rows.

    Resolves predicate field names with the executor's filter semantics
    (exact label, unique qualified suffix, ``Relation.field``) and
    mirrors the tuple engine's one-traversal-per-read charge: compiled
    passes charge it in bulk (``counts_traversals`` is True), fallback
    readers charge it per read.
    """

    counts_traversals = True

    def __init__(self, descriptor: ResultDescriptor, resolve_name) -> None:
        self.descriptor = descriptor
        self._resolve_name = resolve_name
        self._extractors: dict = {}

    def extractor(
        self, field_name: str, memoize: bool = True
    ) -> Callable[[Tuple[TupleRef, ...]], Any]:
        """Column extractor; ``memoize=False`` returns a raw reader
        (see :meth:`ScanFieldAccess.extractor`)."""
        column_name = self._resolve_name(field_name)
        key = (column_name, memoize)
        ext = self._extractors.get(key)
        if ext is None:
            if memoize:
                ext = row_extractor(
                    self.descriptor, column_name, counted=False
                )
            else:
                ext = raw_row_extractor(self.descriptor, column_name)
            self._extractors[key] = ext
        return ext

    def reader(self, row: Tuple[TupleRef, ...]) -> Callable[[str], Any]:
        """A per-item field reader for uncompilable predicate leaves."""
        extractor = self.extractor

        def read(field_name: str) -> Any:
            count_traverse()
            return extractor(field_name)(row)

        return read

    def flush(self) -> None:
        """Publish every extractor's accumulated dereference savings."""
        for ext in self._extractors.values():
            flush = getattr(ext, "flush", None)
            if flush is not None:
                flush()
