"""The catalog: name → relation mapping plus foreign-key wiring.

The catalog is where the engine resolves :class:`repro.storage.schema.ForeignKey`
declarations against referenced relations, and where recovery finds every
partition in the database.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import CatalogError
from repro.storage.partition import Partition, PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class Catalog:
    """All relations of one database instance."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}
        #: Advanced by DDL only — creating or dropping a relation or an
        #: index, and rebuilding indexes after a reload — never by DML
        #: (which moves ``Relation.version`` on every statement).  What
        #: is compiled against the schema and holds index objects (the
        #: SQL layer's statement templates) is valid for one epoch.
        self.schema_epoch = 0

    def bump_schema_epoch(self) -> None:
        self.schema_epoch += 1

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def names(self) -> List[str]:
        """Relation names in creation order."""
        return list(self._relations)

    def create_relation(
        self,
        name: str,
        schema: Schema,
        partition_config: PartitionConfig = None,
    ) -> Relation:
        """Register a new relation; validates FK targets exist."""
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already exists")
        for field in schema.foreign_keys():
            fk = field.references
            if fk.relation not in self._relations and fk.relation != name:
                raise CatalogError(
                    f"{name}.{field.name} references unknown relation "
                    f"{fk.relation!r}"
                )
        relation = Relation(name, schema, partition_config)
        relation.on_schema_change = self.bump_schema_epoch
        self._relations[name] = relation
        self.bump_schema_epoch()
        return relation

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(
                f"no relation {name!r}; have {self.names}"
            ) from None

    def drop_relation(self, name: str) -> None:
        """Remove a relation, refusing while other relations reference it."""
        self.relation(name)  # raises if absent
        for other in self._relations.values():
            if other.name == name:
                continue
            for field in other.schema.foreign_keys():
                if field.references.relation == name:
                    raise CatalogError(
                        f"cannot drop {name!r}: referenced by "
                        f"{other.name}.{field.name}"
                    )
        del self._relations[name]
        self.bump_schema_epoch()

    def all_partitions(self) -> List[Tuple[str, Partition]]:
        """Every (relation name, partition) pair — the recovery unit list."""
        result = []
        for relation in self._relations.values():
            for part in relation.partitions:
                result.append((relation.name, part))
        return result
