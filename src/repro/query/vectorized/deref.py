"""Field readers for the batch operators.

The paper's cost model charges one pointer traversal per (tuple, field)
extraction.  Physically, every extraction here is
:meth:`Relation.reader <repro.storage.relation.Relation.reader>`: one
fused slot read (``_locate`` only for forwarded, deleted or missing
tuples), cheap enough not to cache, so nothing here memoizes.  A
compiled predicate reads each field once per item per batch; a hash
kernel, a sort or a non-hash join reads its key column once per
operator input (:func:`batch_key`) and charges the logical traversals
as the reference algorithm makes them.

Caveat: forwarding-chain hops (left behind by heap-overflow
relocations, footnote 1) are charged once per physical read, not once
per logical traversal, so relations that have relocated tuples are
outside the strict counter-equivalence contract (and outside the
paper's steady-state measurements, which never relocate).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.errors import PlanError
from repro.instrument import count_traverse
from repro.query.plan import REF_COLUMN
from repro.storage.relation import Relation
from repro.storage.temporary import ResultDescriptor
from repro.storage.tuples import TupleRef

Row = Tuple[TupleRef, ...]


def column_reader(
    descriptor: ResultDescriptor, column_name: str
) -> Callable[[Row], Any]:
    """An uncounted ``pointer row -> column value`` reader; its
    ``column(rows)`` reads a batch through ``reader.column``."""
    col = descriptor.column(column_name)
    read = descriptor.sources[col.source].reader(col.field)
    read_column = read.column
    source = col.source

    def extract(row: Row) -> Any:
        return read(row[source])

    def column(rows: Sequence[Row]) -> List[Any]:
        return read_column([row[source] for row in rows])

    extract.column = column
    return extract


def batch_key(
    descriptor: ResultDescriptor, column: str, rows: Sequence[Row]
) -> Tuple[List[Any], int]:
    """The join or sort keys of ``rows``: ``(keys, traversals per key)``.

    One uncounted column read; the caller charges the traversals.
    ``REF_COLUMN`` keys on the row's own pointer (no traversal, as in
    the tuple engine) and is ambiguous over more than one source.
    """
    if column == REF_COLUMN:
        if len(descriptor.sources) != 1:
            raise PlanError(
                f"{REF_COLUMN} is ambiguous over "
                f"{len(descriptor.sources)} sources"
            )
        return [row[0] for row in rows], 0
    return column_reader(descriptor, column).column(rows), 1


def dedup_keys(
    descriptor: ResultDescriptor, names: Sequence[str], rows: Sequence[Row]
) -> List[Any]:
    """The duplicate-elimination keys of ``rows``, one column read per
    key column: a value for one column, a tuple of values for several."""
    columns = [column_reader(descriptor, n).column(rows) for n in names]
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns)) if columns else [()] * len(rows)


class ScanFieldAccess:
    """Field access for scan predicates: items are raw tuple refs.
    Like ``Relation.read_field``, a scan read charges no traversal."""

    counts_traversals = False

    def __init__(self, relation: Relation) -> None:
        self.relation = relation

    def extractor(self, field_name: str) -> Callable[[TupleRef], Any]:
        """The relation's own uncounted ``reader``."""
        return self.relation.reader(field_name)

    def reader(self, ref: TupleRef) -> Callable[[str], Any]:
        """A per-item field reader for uncompilable predicate leaves."""
        relation = self.relation

        def read(field_name: str) -> Any:
            return relation.reader(field_name)(ref)

        return read


class RowFieldAccess:
    """Field access for filter predicates: items are pointer rows.

    Names resolve with the executor's filter semantics.  Each read
    charges one traversal, as in the tuple engine: compiled passes in
    bulk, fallback readers per read.
    """

    counts_traversals = True

    def __init__(self, descriptor: ResultDescriptor, resolve_name) -> None:
        self.descriptor = descriptor
        self._resolve_name = resolve_name
        self._extractors: dict = {}

    def extractor(self, field_name: str) -> Callable[[Row], Any]:
        """An uncounted :func:`column_reader` for the column the
        filter semantics bind ``field_name`` to."""
        ext = self._extractors.get(field_name)
        if ext is None:
            ext = self._extractors[field_name] = column_reader(
                self.descriptor, self._resolve_name(field_name)
            )
        return ext

    def reader(self, row: Row) -> Callable[[str], Any]:
        """A per-item field reader for uncompilable predicate leaves."""
        extractor = self.extractor

        def read(field_name: str) -> Any:
            count_traverse()
            return extractor(field_name)(row)

        return read
