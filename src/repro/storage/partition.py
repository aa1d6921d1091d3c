"""Partitions: the unit of storage and recovery.

Section 2.1: "Every relation in the MM-DBMS will be broken up into
partitions; a partition is a unit of recovery that is larger than a typical
disk page, probably on the order of one or two disk tracks."

A :class:`Partition` holds a slot array of fixed-size tuple rows plus a heap
for variable-length fields.  Tuples never move once inserted; in the rare
case that an update overflows the heap, the tuple is relocated by the
relation and a *forwarding address* is left in the old slot (paper
footnote 1).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptImageError,
    DanglingPointerError,
    HeapOverflowError,
    PartitionFullError,
    StorageError,
)
from repro.instrument import count_move
from repro.storage.tuples import (
    MAX_PARTITIONS,
    MAX_SLOTS,
    HeapPtr,
    TupleRef,
)


@dataclass(frozen=True)
class PartitionConfig:
    """Sizing of a partition.

    The defaults model "one or two disk tracks": mid-1980s disk tracks held
    roughly 25-50 KB, so the default heap is 32 KB and the slot count is
    sized for a few hundred modest tuples.
    """

    slot_capacity: int = 256
    heap_capacity: int = 32768


class _Tombstone:
    """Marker for a deleted slot."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<deleted>"


_TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class Forward:
    """A forwarding address left behind when a tuple had to be moved."""

    target: TupleRef


class Partition:
    """A slot array plus heap space, with dirty tracking for recovery.

    Rows are stored as Python lists in which variable-length (``str``)
    values have been replaced by :class:`HeapPtr` into :attr:`_heap`.  The
    heap is a bump allocator; space freed by deletes or updates is not
    reclaimed until the partition is rebuilt, which mirrors the paper's
    simple heap-space model.
    """

    def __init__(self, partition_id: int, config: PartitionConfig = None) -> None:
        self.id = partition_id
        self.config = config if config is not None else PartitionConfig()
        # A tuple pointer is the word ``partition_id << 32 | slot`` in a
        # signed int64; checked here, once per partition, so no pointer
        # is ever range-checked.
        if not 0 <= partition_id < MAX_PARTITIONS:
            raise StorageError(
                f"partition id {partition_id} outside [0, 2**31)"
            )
        if self.config.slot_capacity > MAX_SLOTS:
            raise StorageError(
                f"slot capacity {self.config.slot_capacity} exceeds 2**32"
            )
        self._slots: List[object] = []
        self._free_slots: List[int] = []
        self._heap_space: Optional[bytearray] = None
        self._heap_used = 0
        self._live = 0
        # Monotone version number, bumped on every mutation.  The recovery
        # subsystem compares it against the disk copy's version to decide
        # whether change-accumulation entries still need merging.
        self.version = 0

    # ------------------------------------------------------------------ #
    # capacity / bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def live_tuples(self) -> int:
        """Number of live (non-deleted, non-forwarded) tuples."""
        return self._live

    @property
    def heap_free(self) -> int:
        """Bytes remaining in the heap."""
        return self.config.heap_capacity - self._heap_used

    def has_free_slot(self) -> bool:
        """Whether a slot is free for a new tuple."""
        return (
            bool(self._free_slots)
            or len(self._slots) < self.config.slot_capacity
        )

    def has_room(self, heap_bytes_needed: int = 0) -> bool:
        """Whether a new tuple with ``heap_bytes_needed`` heap bytes fits."""
        return self.has_free_slot() and heap_bytes_needed <= self.heap_free

    def _touch(self) -> None:
        self.version += 1

    # ------------------------------------------------------------------ #
    # heap
    # ------------------------------------------------------------------ #

    @property
    def _heap(self) -> bytearray:
        """The heap space, allocated on first use: a partition of
        fixed-size fields never pays for it."""
        heap = self._heap_space
        if heap is None:
            heap = self._heap_space = bytearray(self.config.heap_capacity)
        return heap

    def _heap_store(self, value: str) -> HeapPtr:
        data = value.encode("utf-8")
        if len(data) > self.heap_free:
            raise HeapOverflowError(
                f"partition {self.id}: need {len(data)} heap bytes, "
                f"have {self.heap_free}"
            )
        offset = self._heap_used
        self._heap[offset : offset + len(data)] = data
        self._heap_used += len(data)
        count_move(1)
        return HeapPtr(offset, len(data))

    def _heap_load(self, ptr: HeapPtr) -> str:
        return self._heap[ptr.offset : ptr.offset + ptr.length].decode("utf-8")

    @staticmethod
    def heap_bytes_for(values: Sequence[object]) -> int:
        """Heap bytes a row of raw values will consume when stored."""
        return sum(
            len(v.encode("utf-8")) for v in values if isinstance(v, str)
        )

    # ------------------------------------------------------------------ #
    # row operations
    # ------------------------------------------------------------------ #

    def insert(self, values: Sequence[object]) -> int:
        """Store a row; returns the slot number.

        ``values`` are physical values: fixed-size Python objects or
        ``str`` (moved into the heap).  Raises :class:`PartitionFullError`
        if no slot is free, :class:`HeapOverflowError` if the heap cannot
        hold the row's variable-length data.
        """
        needed = self.heap_bytes_for(values)
        if needed > self.heap_free:
            raise HeapOverflowError(
                f"partition {self.id}: need {needed} heap bytes, "
                f"have {self.heap_free}"
            )
        if self._free_slots:
            slot = self._free_slots.pop()
        elif len(self._slots) < self.config.slot_capacity:
            slot = len(self._slots)
            self._slots.append(_TOMBSTONE)
        else:
            raise PartitionFullError(
                f"partition {self.id} has no free slots"
            )
        row = [
            self._heap_store(v) if isinstance(v, str) else v for v in values
        ]
        count_move(len(row))
        self._slots[slot] = row
        self._live += 1
        self._touch()
        return slot

    def insert_at(self, slot: int, values: Sequence[object]) -> None:
        """Place a row at a specific slot (log replay during recovery).

        Extends the slot array with tombstones as needed; raises
        :class:`StorageError` if the slot is already occupied.
        """
        needed = self.heap_bytes_for(values)
        if needed > self.heap_free:
            raise HeapOverflowError(
                f"partition {self.id}: need {needed} heap bytes, "
                f"have {self.heap_free}"
            )
        while len(self._slots) <= slot:
            self._free_slots.append(len(self._slots))
            self._slots.append(_TOMBSTONE)
        if self._slots[slot] is not _TOMBSTONE:
            raise StorageError(
                f"partition {self.id} slot {slot} already occupied"
            )
        row = [
            self._heap_store(v) if isinstance(v, str) else v for v in values
        ]
        self._slots[slot] = row
        self._free_slots = [s for s in self._free_slots if s != slot]
        self._live += 1
        self._touch()

    def compact(self) -> None:
        """Rewrite the heap, dropping abandoned variable-length values.

        Tuples do not move (slots are preserved); only their heap
        pointers are refreshed.  Used by log replay when accumulated
        updates exhaust a disk image's bump-allocated heap.
        """
        new_heap = bytearray(self.config.heap_capacity)
        used = 0
        for entry in self._slots:
            if entry is _TOMBSTONE or isinstance(entry, Forward):
                continue
            for position, value in enumerate(entry):
                if not isinstance(value, HeapPtr):
                    continue
                data = self._heap[value.offset : value.offset + value.length]
                new_heap[used : used + len(data)] = data
                entry[position] = HeapPtr(used, len(data))
                used += len(data)
        self._heap_space = new_heap
        self._heap_used = used
        self._touch()

    def _row(self, slot: int) -> List[object]:
        if slot < 0 or slot >= len(self._slots):
            raise DanglingPointerError(
                f"partition {self.id} has no slot {slot}"
            )
        entry = self._slots[slot]
        if entry is _TOMBSTONE:
            raise DanglingPointerError(
                f"partition {self.id} slot {slot} was deleted"
            )
        if isinstance(entry, Forward):
            raise StorageError(
                f"partition {self.id} slot {slot} is a forwarding address; "
                "resolve it through the relation"
            )
        return entry

    def forwarding(self, slot: int) -> Optional[TupleRef]:
        """The forwarding target for ``slot``, or None if it holds a row."""
        if slot < 0 or slot >= len(self._slots):
            raise DanglingPointerError(
                f"partition {self.id} has no slot {slot}"
            )
        entry = self._slots[slot]
        if isinstance(entry, Forward):
            return entry.target
        return None

    def read(self, slot: int) -> List[object]:
        """Materialise the row at ``slot`` (heap pointers resolved)."""
        row = self._row(slot)
        return [
            self._heap_load(v) if isinstance(v, HeapPtr) else v for v in row
        ]

    def read_field(self, slot: int, position: int) -> object:
        """Materialise a single field of the row at ``slot``."""
        row = self._row(slot)
        value = row[position]
        if isinstance(value, HeapPtr):
            return self._heap_load(value)
        return value

    def update_field(self, slot: int, position: int, value: object) -> None:
        """Overwrite one field in place.

        A growing ``str`` value is re-stored at the end of the heap (the
        old bytes are abandoned); if the heap is exhausted,
        :class:`HeapOverflowError` propagates and the relation relocates
        the tuple, leaving a forwarding address.
        """
        row = self._row(slot)
        if isinstance(value, str):
            old = row[position]
            if (
                isinstance(old, HeapPtr)
                and len(value.encode("utf-8")) <= old.length
            ):
                # Overwrite in place when the new value fits.
                data = value.encode("utf-8")
                start = old.offset
                self._heap[start : start + old.length] = b"\x00" * old.length
                self._heap[start : start + len(data)] = data
                row[position] = HeapPtr(start, len(data))
            else:
                row[position] = self._heap_store(value)
        else:
            row[position] = value
        count_move(1)
        self._touch()

    def delete(self, slot: int) -> None:
        """Remove the row at ``slot``, leaving a tombstone."""
        self._row(slot)  # validates liveness
        self._slots[slot] = _TOMBSTONE
        self._free_slots.append(slot)
        self._live -= 1
        self._touch()

    def set_forwarding(self, slot: int, target: TupleRef) -> None:
        """Replace the row at ``slot`` with a forwarding address."""
        self._row(slot)  # validates liveness
        self._slots[slot] = Forward(target)
        self._live -= 1
        self._touch()

    def scan(self) -> Iterator[Tuple[int, List[object]]]:
        """Yield ``(slot, materialised_row)`` for every live tuple.

        Used only by the storage layer itself (recovery, index rebuild);
        user-level access must go through an index per Section 2.1.
        """
        for slot, entry in enumerate(self._slots):
            if entry is _TOMBSTONE or isinstance(entry, Forward):
                continue
            yield slot, self.read(slot)

    # ------------------------------------------------------------------ #
    # recovery support
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialise the partition for the simulated disk copy."""
        state = {
            "id": self.id,
            "config": (self.config.slot_capacity, self.config.heap_capacity),
            "slots": [
                ("T",)
                if entry is _TOMBSTONE
                else ("F", entry.target)
                if isinstance(entry, Forward)
                else ("R", list(entry))
                for entry in self._slots
            ],
            "free": list(self._free_slots),
            "heap": bytes(
                self._heap_space
                if self._heap_space is not None
                else self.config.heap_capacity
            ),
            "heap_used": self._heap_used,
            "live": self._live,
            "version": self.version,
        }
        return pickle.dumps(state)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Partition":
        """Reconstruct a partition from :meth:`to_bytes` output.

        Bytes that do not decode as a partition image raise
        :class:`~repro.errors.CorruptImageError` — the disk frame's
        CRC32 catches damage to a valid image, and this catches images
        that were never valid.
        """
        try:
            state = pickle.loads(data)
            if not isinstance(state, dict) or "slots" not in state:
                raise ValueError("not a partition image")
        except CorruptImageError:
            raise
        except Exception as exc:
            raise CorruptImageError(
                f"partition image does not decode: {exc!r}"
            ) from exc
        slot_capacity, heap_capacity = state["config"]
        part = cls(state["id"], PartitionConfig(slot_capacity, heap_capacity))
        part._slots = [
            _TOMBSTONE
            if tag[0] == "T"
            else Forward(tag[1])
            if tag[0] == "F"
            else tag[1]
            for tag in state["slots"]
        ]
        part._free_slots = list(state["free"])
        if state["heap_used"]:
            part._heap_space = bytearray(state["heap"])
        part._heap_used = state["heap_used"]
        part._live = state["live"]
        part.version = state["version"]
        return part
