"""Temporary lists: intermediate query results (paper Section 2.3).

"A temporary list is a list of tuple pointers plus an associated result
descriptor.  The pointers point to the source relation(s) from which the
temporary relation was formed, and the result descriptor identifies the
fields that are contained in the relation that the temporary list
represents.  The descriptor takes the place of projection — no width
reduction is ever done ...  Unlike regular relations, a temporary list can
be traversed directly; however, it is also possible to have an index on a
temporary list."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import QueryError, SchemaError
from repro.indexes import INDEX_KINDS
from repro.indexes.base import Index
from repro.instrument import count_traverse
from repro.storage.relation import Relation
from repro.storage.tuples import TupleRef


@dataclass(frozen=True)
class ResultColumn:
    """One output column: which source slot it comes from, and the field.

    ``source`` is the position within each result row's pointer tuple (a
    join of two relations produces rows of two pointers; Figure 1's result
    list holds (Employee ptr, Department ptr) pairs).
    """

    source: int
    field: str
    label: Optional[str] = None

    @property
    def name(self) -> str:
        """The column's output name."""
        return self.label if self.label is not None else self.field


class ResultDescriptor:
    """Describes the visible fields of a temporary list.

    Holds the source relations (in pointer-tuple order) and the projected
    columns.  Projection by descriptor costs nothing at query time: "no
    width reduction is ever done, so there is little motivation for
    computing projections before the last step of query processing unless
    a significant number of duplicates can be eliminated".
    """

    def __init__(
        self,
        sources: Sequence[Relation],
        columns: Sequence[ResultColumn],
    ) -> None:
        if not sources:
            raise QueryError("a result descriptor needs at least one source")
        self.sources: Tuple[Relation, ...] = tuple(sources)
        for col in columns:
            if not 0 <= col.source < len(self.sources):
                raise QueryError(
                    f"column {col.name!r} references source {col.source}, "
                    f"but there are only {len(self.sources)} sources"
                )
            # Validate the field exists now rather than at materialisation.
            self.sources[col.source].physical_schema.position(col.field)
        self.columns: Tuple[ResultColumn, ...] = tuple(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate output column names: {names}")

    @property
    def column_names(self) -> List[str]:
        """Output column names in order."""
        return [c.name for c in self.columns]

    def column(self, name: str) -> ResultColumn:
        """Find a column by output name.

        Resolution is forgiving about qualification: an exact label match
        wins; otherwise a bare name matches a uniquely determined
        ``Relation.name`` label, and a qualified ``Relation.field`` name
        matches the column with that source relation and field even when
        its label is unqualified.  Ambiguity raises.
        """
        for col in self.columns:
            if col.name == name:
                return col
        # Bare name against qualified labels ("Age" -> "Employee.Age").
        suffix_matches = [
            col for col in self.columns
            if "." in col.name and col.name.rsplit(".", 1)[1] == name
        ]
        if len(suffix_matches) == 1:
            return suffix_matches[0]
        if len(suffix_matches) > 1:
            raise QueryError(
                f"column {name!r} is ambiguous: "
                f"{[c.name for c in suffix_matches]}"
            )
        # Qualified name against source relation + field.
        if "." in name:
            rel_name, field_name = name.rsplit(".", 1)
            qualified_matches = [
                col for col in self.columns
                if self.sources[col.source].name == rel_name
                and col.field == field_name
            ]
            if len(qualified_matches) == 1:
                return qualified_matches[0]
            if len(qualified_matches) > 1:
                raise QueryError(
                    f"column {name!r} is ambiguous (self-join); use the "
                    f"output labels {self.column_names}"
                )
        raise QueryError(
            f"no result column {name!r}; have {self.column_names}"
        )

    def project(self, names: Sequence[str]) -> "ResultDescriptor":
        """A narrower descriptor over the same sources — zero-copy
        projection (Section 2.3)."""
        return ResultDescriptor(self.sources, [self.column(n) for n in names])

    @classmethod
    def whole_relation(cls, relation: Relation) -> "ResultDescriptor":
        """Descriptor exposing every field of a single relation."""
        columns = [
            ResultColumn(0, f.name) for f in relation.physical_schema.fields
        ]
        return cls([relation], columns)


class TemporaryList:
    """A directly traversable list of tuple-pointer rows.

    Each row is a tuple of :class:`TupleRef` — one pointer per source
    relation.  Materialising values follows the pointers; nothing is ever
    copied out of the base relations (the paper: "tuples are never copied,
    only pointed to").
    """

    def __init__(
        self,
        descriptor: ResultDescriptor,
        rows: Optional[List[Tuple[TupleRef, ...]]] = None,
    ) -> None:
        self.descriptor = descriptor
        self._rows: List[Tuple[TupleRef, ...]] = rows if rows is not None else []
        self._indexes: Dict[str, Index] = {}

    # ------------------------------------------------------------------ #
    # list behaviour (temporary lists ARE directly traversable)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple[TupleRef, ...]]:
        return iter(self._rows)

    def __getitem__(self, i: int) -> Tuple[TupleRef, ...]:
        return self._rows[i]

    def append(self, row: Tuple[TupleRef, ...]) -> None:
        """Add one pointer row (arity-checked against the descriptor)."""
        if len(row) != len(self.descriptor.sources):
            raise QueryError(
                f"row arity {len(row)} != source count "
                f"{len(self.descriptor.sources)}"
            )
        self._rows.append(row)
        for index in self._indexes.values():
            index.insert(row)

    def rows(self) -> List[Tuple[TupleRef, ...]]:
        """The underlying pointer rows (shared, not copied)."""
        return self._rows

    # ------------------------------------------------------------------ #
    # value access
    # ------------------------------------------------------------------ #

    def value_extractor(
        self, column_name: str
    ) -> Callable[[Tuple[TupleRef, ...]], Any]:
        """A function mapping a pointer row to one output column's value."""
        col = self.descriptor.column(column_name)
        relation = self.descriptor.sources[col.source]
        position = relation.physical_schema.position(col.field)
        source = col.source

        def extract(row: Tuple[TupleRef, ...]) -> Any:
            count_traverse()
            part, slot = relation._locate(row[source])
            return part.read_field(slot, position)

        return extract

    def materialize_row(
        self, row: Tuple[TupleRef, ...], resolve_refs: bool = False
    ) -> Tuple[Any, ...]:
        """Follow the pointers of one row and return its visible values.

        With ``resolve_refs=True``, a foreign-key pointer field is
        presented as the referenced key value — one extra pointer follow,
        the paper's "simply follow the pointer to the foreign relation
        tuple to obtain the desired value".
        """
        values = []
        for col in self.descriptor.columns:
            relation = self.descriptor.sources[col.source]
            count_traverse()
            value = relation.read_field(row[col.source], col.field)
            if resolve_refs and isinstance(value, TupleRef):
                logical = relation.schema.field(col.field)
                if logical.references is not None:
                    count_traverse()
                    value = self._follow_fk(relation, logical, value)
            values.append(value)
        return tuple(values)

    @staticmethod
    def _follow_fk(relation: Relation, logical_field, pointer: TupleRef) -> Any:
        """Resolve a foreign-key pointer to the referenced key value.

        Relations know only their own storage, so the engine facade wires
        a catalog-aware ``fk_resolver`` attribute onto each relation; when
        absent (bare storage-layer use) the raw pointer is returned.
        """
        resolver = getattr(relation, "fk_resolver", None)
        if resolver is None:
            return pointer
        return resolver(logical_field.references, pointer)

    def materialize(self, resolve_refs: bool = False) -> List[Tuple[Any, ...]]:
        """Materialise every row — the final step of query processing."""
        return [self.materialize_row(row, resolve_refs) for row in self._rows]

    def to_dicts(self, resolve_refs: bool = False) -> List[Dict[str, Any]]:
        """Materialise as dictionaries keyed by output column name."""
        names = self.descriptor.column_names
        return [
            dict(zip(names, vals)) for vals in self.materialize(resolve_refs)
        ]

    # ------------------------------------------------------------------ #
    # indexing a temporary list (paper: "it is also possible to have an
    # index on a temporary list")
    # ------------------------------------------------------------------ #

    def create_index(
        self,
        index_name: str,
        column_name: str,
        kind: str = "chained_hash",
        unique: bool = False,
        **index_options: Any,
    ) -> Index:
        """Build an index over one output column of this temporary list."""
        if index_name in self._indexes:
            raise SchemaError(f"index {index_name!r} already exists")
        try:
            index_cls = INDEX_KINDS[kind]
        except KeyError:
            raise SchemaError(f"unknown index kind {kind!r}") from None
        index = index_cls(
            key_of=self.value_extractor(column_name),
            unique=unique,
            **index_options,
        )
        index.field_name = column_name
        for row in self._rows:
            index.insert(row)
        self._indexes[index_name] = index
        return index

    def index(self, index_name: str) -> Index:
        """Look up an index by name."""
        try:
            return self._indexes[index_name]
        except KeyError:
            raise SchemaError(f"no index {index_name!r} on temporary list") from None

    # ------------------------------------------------------------------ #
    # derivation helpers used by the executor
    # ------------------------------------------------------------------ #

    def project(self, names: Sequence[str]) -> "TemporaryList":
        """Descriptor-only projection: same rows, narrower descriptor."""
        return TemporaryList(self.descriptor.project(names), self._rows)

    @classmethod
    def from_refs(
        cls, relation: Relation, refs: Sequence[TupleRef]
    ) -> "TemporaryList":
        """Wrap single-relation pointers as a temporary list."""
        descriptor = ResultDescriptor.whole_relation(relation)
        return cls(descriptor, [(ref,) for ref in refs])
