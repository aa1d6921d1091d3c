"""Relations: partitioned tuple storage accessed only through indexes.

Section 2.1 rules implemented here:

* a relation is a set of partitions;
* "the relations will not be allowed to be traversed directly, so all
  access to a relation is through an index (Note that this requires all
  relations to have at least one index)";
* tuples never move; a heap overflow relocates the tuple and leaves a
  forwarding address (footnote 1), which :meth:`Relation.resolve` follows
  transparently;
* indexes hold tuple pointers and extract attribute values through them
  (Section 2.2), implemented by :meth:`Relation.key_extractor` over
  :meth:`Relation.reader`, the one physical dereference every
  pointer-to-field read in the repository takes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import (
    HeapOverflowError,
    SchemaError,
    ShardUnavailableError,
    StorageError,
)
from repro.indexes import INDEX_KINDS
from repro.indexes.base import Index
from repro.instrument import count_traverse
from repro.storage.partition import Partition, PartitionConfig
from repro.storage.schema import FieldType, Schema
from repro.storage.tuples import HeapPtr, TupleRef


# Global monotonic clock for relation versions.  Every mutation of any
# relation takes a fresh tick, so a (name, version) pair is never reused —
# even across DROP TABLE / CREATE TABLE of the same name — which is what
# lets the reuse caches validate staleness with one integer comparison.
_version_clock = 0


def _next_version() -> int:
    global _version_clock
    _version_clock += 1
    return _version_clock


def _index_covers(index: Index, field_name: str) -> bool:
    """Whether an index's key involves ``field_name`` (handles
    multi-attribute indexes, whose field_name is a tuple)."""
    label = getattr(index, "field_name", None)
    if isinstance(label, tuple):
        return field_name in label
    return label == field_name


class Relation:
    """A named relation stored across partitions, with mandatory indexes.

    The constructor does *not* create an index; callers must call
    :meth:`create_index` before :meth:`insert` — mirroring the paper's
    requirement that every relation have at least one index.  The engine
    facade (:class:`repro.engine.database.MainMemoryDatabase`) does this
    automatically.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        partition_config: PartitionConfig = None,
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.schema = schema  # logical schema (FK declarations intact)
        self.physical_schema = schema.physical()
        self.partition_config = (
            partition_config if partition_config is not None else PartitionConfig()
        )
        self._partitions: Dict[int, Partition] = {}
        self._next_partition_id = 0
        self._indexes: Dict[str, Index] = {}
        self._count = 0
        #: Partitions a partial restart condemned: id -> reason.  A
        #: statement routed here gets a typed ShardUnavailableError
        #: instead of a bare missing-partition StorageError, and healing
        #: (adopting a good image) clears the mark.
        self._quarantined: Dict[int, str] = {}
        #: field name -> the one physical dereference (:meth:`reader`).
        self._readers: Dict[str, Callable[[TupleRef], Any]] = {}
        # Monotonic version: bumped by every insert/update/delete and by
        # index DDL (plans depend on available access paths).  Cached
        # plans/results record the versions they observed; a mismatch
        # means potential staleness (Section 2.3's temporary lists are
        # cheap to retain but must never outlive their inputs).
        self.version = _next_version()
        # Optional hook receiving physical-change events (dicts); the
        # engine installs one to produce write-ahead log records.
        self.change_listener: Optional[Callable[[Dict[str, Any]], None]] = None
        # Optional hook called when the set of index objects changes
        # (index DDL, rebuild after a reload); the catalog installs its
        # schema-epoch bump.
        self.on_schema_change: Optional[Callable[[], None]] = None

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.change_listener is not None:
            self.change_listener(event)

    def bump_version(self) -> int:
        """Advance this relation's version (any mutation or index DDL).

        Called *before* the mutation so that a partially applied failure
        still invalidates dependent cache entries (false invalidation is
        safe; a stale hit is not).
        """
        self.version = _next_version()
        return self.version

    def _indexes_changed(self) -> None:
        """The index objects were replaced, added to or removed from:
        cached plans are stale, and so is whatever holds an index."""
        self.bump_version()
        if self.on_schema_change is not None:
            self.on_schema_change()

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    @property
    def cardinality(self) -> int:
        """|R| — the number of live tuples."""
        return self._count

    @property
    def indexes(self) -> Dict[str, Index]:
        """Mapping of index name to index object (read-only view)."""
        return dict(self._indexes)

    @property
    def partitions(self) -> List[Partition]:
        """The partitions, for the recovery and locking subsystems."""
        return list(self._partitions.values())

    def partition(self, partition_id: int) -> Partition:
        """Look up a partition by id.

        A partition quarantined by a partial restart raises the typed
        :class:`~repro.errors.ShardUnavailableError` so routing layers
        (and operators) can distinguish "degraded, heal me" from a
        plain bad partition id.
        """
        try:
            return self._partitions[partition_id]
        except KeyError:
            reason = self._quarantined.get(partition_id)
            if reason is not None:
                raise ShardUnavailableError(
                    self.name, partition_id, reason
                ) from None
            raise StorageError(
                f"{self.name}: no partition {partition_id}"
            ) from None

    # ------------------------------------------------------------------ #
    # quarantine marks (partial-restart degraded state)
    # ------------------------------------------------------------------ #

    def mark_quarantined(self, partition_id: int, reason: str) -> None:
        """Record that ``partition_id`` failed to reload and is absent."""
        self._quarantined[partition_id] = reason

    def clear_quarantined(self, partition_id: int = None) -> None:
        """Drop a quarantine mark (all marks when ``partition_id`` is
        None) — the partition was healed or the memory image reset."""
        if partition_id is None:
            self._quarantined.clear()
        else:
            self._quarantined.pop(partition_id, None)

    # ------------------------------------------------------------------ #
    # index management
    # ------------------------------------------------------------------ #

    def reader(self, field_name: str) -> Callable[[TupleRef], Any]:
        """The one physical dereference: ``ref -> field value``, uncounted.

        This is the paper's "a single tuple pointer provides ... access
        to both the attribute value of a tuple and the tuple itself"
        (Section 2.2) as one pointer follow.  The common case — a live
        tuple where the pointer says — is read straight out of the
        partition's slot array, a value in the heap loaded from the same
        partition.  Everything else takes :meth:`_locate` and
        ``Partition.read_field``, which count the forwarding hops and
        raise the storage errors: a missing or quarantined partition
        (``KeyError``), a slot past the end (``IndexError``), a
        forwarding address or a deleted slot (neither can be
        subscripted: ``TypeError``).  Slots are never negative: tuple
        pointers are only minted by :meth:`insert`.

        The reader carries ``column(refs) -> list``, the same read over
        a batch in one list comprehension.  A heap field, or a batch in
        which any ref misses the common case, is re-read ref by ref, so
        a column charges and raises exactly what its refs would one at
        a time.  Readers are made once per field and shared.
        """
        read = self._readers.get(field_name)
        if read is not None:
            return read
        position = self.physical_schema.position(field_name)
        in_heap = self.physical_schema.fields[position].type is FieldType.STR
        parts = self._partitions  # cleared and refilled, never rebound
        locate = self._locate

        def read(ref: TupleRef) -> Any:
            try:
                value = parts[ref >> 32]._slots[ref & 0xFFFFFFFF][position]
            except (KeyError, IndexError, TypeError):
                pass
            else:
                if not in_heap or value is None:
                    return value
                if isinstance(value, HeapPtr):
                    return parts[ref >> 32]._heap_load(value)
            part, slot = locate(ref)
            return part.read_field(slot, position)

        if in_heap:

            def column(refs: Sequence[TupleRef]) -> List[Any]:
                return [read(ref) for ref in refs]

        else:

            def column(refs: Sequence[TupleRef]) -> List[Any]:
                try:
                    return [
                        parts[ref >> 32]._slots[ref & 0xFFFFFFFF][position]
                        for ref in refs
                    ]
                except (KeyError, IndexError, TypeError):
                    return [read(ref) for ref in refs]

        read.column = column
        self._readers[field_name] = read
        return read

    def key_extractor(self, field_name: str) -> Callable[[TupleRef], Any]:
        """A function extracting ``field_name`` through a tuple pointer.

        :meth:`reader` with one counted pointer traversal per
        extraction.  The returned function carries the reader itself as
        its ``uncounted`` attribute, for an index that accumulates its
        counts in locals and charges them once per operation (see
        :meth:`repro.indexes.base.Index.uncounted_key`).
        """
        read = self.reader(field_name)

        def extract(ref: TupleRef) -> Any:
            count_traverse()
            return read(ref)

        extract.uncounted = read
        return extract

    def multi_key_extractor(
        self, field_names: Sequence[str]
    ) -> Callable[[TupleRef], tuple]:
        """Composite-key extractor for multi-attribute indexes.

        Section 2.2: "since a single tuple pointer provides access to any
        field in the tuple, multi-attribute indices will need less in the
        way of special mechanisms" — here it is simply a tuple of fields.
        One counted traversal per key; the pointer is resolved once, so a
        forwarding chain is charged once, not once per field.
        """
        readers = [self.reader(name) for name in field_names]
        resolve = self.resolve

        def extract(ref: TupleRef) -> tuple:
            count_traverse()
            ref = resolve(ref)
            return tuple([read(ref) for read in readers])

        return extract

    def create_index(
        self,
        index_name: str,
        field_name: Any,
        kind: str = "ttree",
        unique: bool = False,
        **index_options: Any,
    ) -> Index:
        """Create and register an index over one field or several.

        ``kind`` is a key of :data:`repro.indexes.INDEX_KINDS` ("ttree" and
        "modified_linear_hash" are the two dynamic structures the MM-DBMS
        design uses; the others exist for the paper's comparisons).
        ``field_name`` may be a list/tuple of field names for a
        multi-attribute index — "since a single tuple pointer provides
        access to any field in the tuple, multi-attribute indices will
        need less in the way of special mechanisms" (Section 2.2); the
        key is simply the tuple of field values.  Existing tuples are
        bulk-loaded into the new index.
        """
        if index_name in self._indexes:
            raise SchemaError(
                f"{self.name}: index {index_name!r} already exists"
            )
        try:
            index_cls = INDEX_KINDS[kind]
        except KeyError:
            raise SchemaError(
                f"unknown index kind {kind!r}; choose from "
                f"{sorted(INDEX_KINDS)}"
            ) from None
        if isinstance(field_name, (list, tuple)):
            extractor = self.multi_key_extractor(list(field_name))
            label: Any = tuple(field_name)
        else:
            extractor = self.key_extractor(field_name)
            label = field_name
        index = index_cls(
            key_of=extractor,
            unique=unique,
            **index_options,
        )
        index.field_name = label
        for ref in self._all_refs():
            index.insert(ref)
        self._indexes[index_name] = index
        self._indexes_changed()  # new access path
        return index

    def index(self, index_name: str) -> Index:
        """Look up an index by name."""
        try:
            return self._indexes[index_name]
        except KeyError:
            raise SchemaError(
                f"{self.name}: no index {index_name!r}; have "
                f"{sorted(self._indexes)}"
            ) from None

    def drop_index(self, index_name: str) -> None:
        """Remove an index; at least one must remain."""
        if index_name not in self._indexes:
            raise SchemaError(f"{self.name}: no index {index_name!r}")
        if len(self._indexes) == 1:
            raise SchemaError(
                f"{self.name}: cannot drop the last index; all relation "
                "access is through an index (paper Section 2.1)"
            )
        del self._indexes[index_name]
        self._indexes_changed()  # cached plans may rely on the dropped path

    def index_on(self, field_name: str, ordered: bool = None) -> Optional[Index]:
        """Find an index keyed on ``field_name``, or None.

        ``ordered`` filters by structure family: True → order-preserving
        only, False → hash only, None → either (ordered preferred).
        """
        matches = [
            idx
            for idx in self._indexes.values()
            if getattr(idx, "field_name", None) == field_name
        ]
        if ordered is True:
            matches = [idx for idx in matches if idx.ordered]
        elif ordered is False:
            matches = [idx for idx in matches if not idx.ordered]
        if not matches:
            return None
        # Prefer ordered structures: they serve both exact and range access.
        matches.sort(key=lambda idx: not idx.ordered)
        return matches[0]

    def any_index(self) -> Index:
        """Any index (used for full sequential scans through an index)."""
        if not self._indexes:
            raise SchemaError(
                f"{self.name}: relation has no index; create one first"
            )
        return next(iter(self._indexes.values()))

    # ------------------------------------------------------------------ #
    # tuple operations
    # ------------------------------------------------------------------ #

    def _partition_with_room(self, heap_bytes: int) -> Partition:
        for part in self._partitions.values():
            if part.has_room(heap_bytes):
                return part
        part = Partition(self._next_partition_id, self.partition_config)
        self._partitions[part.id] = part
        self._next_partition_id += 1
        return part

    def insert(self, values: Sequence[object]) -> TupleRef:
        """Insert a physical row; returns its (stable) tuple pointer.

        ``values`` follow the physical schema: foreign-key fields must
        already be :class:`TupleRef`\\ s (the engine resolves them).  On
        index-maintenance failure (e.g. a unique violation) the insert is
        rolled back completely.
        """
        if not self._indexes:
            raise SchemaError(
                f"{self.name}: create at least one index before inserting "
                "(all relation access is through an index)"
            )
        if len(values) != len(self.physical_schema):
            raise SchemaError(
                f"{self.name}: row has {len(values)} values, schema has "
                f"{len(self.physical_schema)} fields"
            )
        self.bump_version()
        heap_bytes = Partition.heap_bytes_for(values)
        part = self._partition_with_room(heap_bytes)
        slot = part.insert(values)
        ref = TupleRef(part.id, slot)
        maintained: List[Index] = []
        try:
            for index in self._indexes.values():
                index.insert(ref)
                maintained.append(index)
        except Exception:
            for index in maintained:
                index.delete(ref)
            part.delete(slot)
            raise
        self._count += 1
        self._emit(
            {
                "kind": "insert",
                "relation": self.name,
                "partition": part.id,
                "slot": slot,
                "values": list(values),
            }
        )
        return ref

    def _locate(self, ref: TupleRef):
        """Resolve a ref to (partition, slot), following forwarding."""
        part = self.partition(ref >> 32)
        slot = ref & 0xFFFFFFFF
        target = part.forwarding(slot)
        hops = 0
        while target is not None:
            count_traverse()
            part = self.partition(target >> 32)
            slot = target & 0xFFFFFFFF
            target = part.forwarding(slot)
            hops += 1
            if hops > len(self._partitions) + 1:
                raise StorageError(
                    f"{self.name}: forwarding cycle at "
                    f"{TupleRef(part.id, slot)}"
                )
        return part, slot

    def resolve(self, ref: TupleRef) -> TupleRef:
        """Canonicalise a ref (follow forwarding addresses)."""
        part, slot = self._locate(ref)
        return TupleRef(part.id, slot)

    def fetch(self, ref: TupleRef) -> List[object]:
        """Materialise the full physical row behind ``ref``: the pointer
        resolved once, then every field through its :meth:`reader`."""
        ref = self.resolve(ref)
        return [
            self.reader(field.name)(ref)
            for field in self.physical_schema.fields
        ]

    def read_field(self, ref: TupleRef, field_name: str) -> object:
        """Materialise one field behind ``ref`` (physical value)."""
        return self.reader(field_name)(ref)

    def update(self, ref: TupleRef, field_name: str, value: object) -> None:
        """Update one field in place, maintaining affected indexes.

        If the partition's heap overflows, the tuple is relocated to a
        partition with room and a forwarding address is left behind; the
        original ``ref`` stays valid (footnote 1 of the paper).  Indexes
        are keyed by extraction through the pointer, so only indexes on
        the changed field need maintenance — unless the tuple moved:
        the relation's indexes hold canonical pointers (what a rebuild
        from ``_all_refs`` gives, and what :meth:`delete` and this
        method look entries up by), so a relocation re-points every one.
        """
        position = self.physical_schema.position(field_name)
        field_def = self.physical_schema.fields[position]
        if field_def.type is not FieldType.REF:
            field_def.type.validate(value)
        self.bump_version()
        affected = [
            idx
            for idx in self._indexes.values()
            if _index_covers(idx, field_name)
        ]
        canonical = moved_to = self.resolve(ref)
        for idx in affected:
            idx.delete(canonical)
        try:
            part, slot = self._locate(ref)
            try:
                part.update_field(slot, position, value)
                self._emit(
                    {
                        "kind": "update",
                        "relation": self.name,
                        "partition": part.id,
                        "slot": slot,
                        "position": position,
                        "value": value,
                    }
                )
            except HeapOverflowError:
                self._relocate(part, slot, position, value)
                moved_to = self.resolve(canonical)
        finally:
            for idx in affected:
                idx.insert(moved_to)
        if moved_to != canonical:
            for idx in self._indexes.values():
                if idx not in affected:
                    idx.delete(canonical)
                    idx.insert(moved_to)

    def _relocate(
        self, part: Partition, slot: int, position: int, value: object
    ) -> None:
        """Move a tuple whose update overflowed its partition's heap."""
        row = part.read(slot)
        row[position] = value
        heap_bytes = Partition.heap_bytes_for(row)
        # Find a different partition with room (never the full one).
        target: Optional[Partition] = None
        for candidate in self._partitions.values():
            if candidate is not part and candidate.has_room(heap_bytes):
                target = candidate
                break
        if target is None:
            target = Partition(self._next_partition_id, self.partition_config)
            self._partitions[target.id] = target
            self._next_partition_id += 1
        new_slot = target.insert(row)
        part.set_forwarding(slot, TupleRef(target.id, new_slot))
        self._emit(
            {
                "kind": "insert",
                "relation": self.name,
                "partition": target.id,
                "slot": new_slot,
                "values": list(row),
            }
        )
        self._emit(
            {
                "kind": "forward",
                "relation": self.name,
                "partition": part.id,
                "slot": slot,
                "target": TupleRef(target.id, new_slot),
            }
        )

    def delete(self, ref: TupleRef) -> None:
        """Delete the tuple behind ``ref`` from storage and all indexes."""
        self.bump_version()
        canonical = self.resolve(ref)
        for index in self._indexes.values():
            index.delete(canonical)
        part, slot = self._locate(canonical)
        part.delete(slot)
        self._count -= 1
        self._emit(
            {
                "kind": "delete",
                "relation": self.name,
                "partition": part.id,
                "slot": slot,
            }
        )

    def _all_refs(self) -> Iterator[TupleRef]:
        """Internal scan of every live tuple pointer.

        Private on purpose: user-level access must go through an index.
        Used for index builds and recovery only.
        """
        for part in self._partitions.values():
            for slot, __ in part.scan():
                yield TupleRef(part.id, slot)

    # ------------------------------------------------------------------ #
    # recovery integration
    # ------------------------------------------------------------------ #

    def adopt_partition(self, partition: Partition) -> None:
        """Install a partition object (used by recovery when reloading)."""
        self.bump_version()
        self._partitions[partition.id] = partition
        self._next_partition_id = max(self._next_partition_id, partition.id + 1)
        # A good image arriving is exactly what heals a quarantine.
        self._quarantined.pop(partition.id, None)

    def rebuild_indexes(self) -> None:
        """Rebuild every index from storage (after a recovery reload).

        Main-memory indexes are *not* persisted — like the paper's design,
        they are reconstructed from the reloaded partitions.
        """
        self._indexes_changed()
        rebuilt: Dict[str, Index] = {}
        for name, old in self._indexes.items():
            options = {}
            if hasattr(old, "node_size"):
                options["node_size"] = old.node_size
            if hasattr(old, "chain_target"):
                options["chain_target"] = old.chain_target
            if isinstance(old.field_name, tuple):
                extractor = self.multi_key_extractor(list(old.field_name))
            else:
                extractor = self.key_extractor(old.field_name)
            index = type(old)(
                key_of=extractor,
                unique=old.unique,
                **options,
            )
            index.field_name = old.field_name
            for ref in self._all_refs():
                index.insert(ref)
            rebuilt[name] = index
        self._indexes = rebuilt
        self._count = sum(p.live_tuples for p in self._partitions.values())
