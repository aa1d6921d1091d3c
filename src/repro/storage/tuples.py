"""Tuple pointers and heap pointers.

In the paper's MM-DBMS, "tuples in a partition will be referred to directly
by memory addresses, so tuples must not change locations once they have been
entered into the database" (Section 2.1).  Python has no raw addresses, so
the reproduction uses one machine word in their place: a tuple pointer is
the integer ``partition_id << 32 | slot``, which dereferences in O(1)
through the owning relation's partition table.  :class:`TupleRef` is the
``int`` subclass the storage layer mints; every site that follows a
pointer splits the word with a shift and a mask, so *any* ``int``
carrying the word — the morsel wire ships pointer rows as packed int64
and never rebuilds the subclass (DESIGN.md section 3.16) — is a valid
pointer.  All the properties the paper relies on hold:

* a pointer is one machine word;
* it is stable for the lifetime of the tuple (tuples never move; a rare
  heap overflow leaves a forwarding address, see
  :mod:`repro.storage.partition`);
* indexes store pointers instead of key values and extract the key
  through the pointer on demand (Section 2.2);
* equality, ordering and hashing are ``int``'s own, which is what makes
  pointer-based joins (Query 2 in the paper) faster than value joins.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Word layout: the low 32 bits are the slot, the bits above them the
#: partition id.  Partition ids stay below ``2**31`` so the word fits a
#: signed int64 (``array('q')``, the morsel wire).  Both ranges are
#: checked once, where partitions are created
#: (:class:`repro.storage.partition.Partition`), not per pointer; sites
#: that split the word write ``>> 32`` and ``& 0xFFFFFFFF`` inline.
MAX_PARTITIONS = 1 << 31
MAX_SLOTS = 1 << 32


class TupleRef(int):
    """A stable pointer to a tuple slot: ``partition_id << 32 | slot``.

    The subclass adds no state (``__slots__ = ()``); it exists so that
    ``isinstance(value, TupleRef)`` tells a *stored* foreign-key pointer
    from an INT value read out of the same tuple.  Equality, hashing and
    ordering are ``int``'s, so ``TupleRef(p, s) == p << 32 | s`` and the
    order is lexicographic on ``(partition_id, slot)``.  Hot paths never
    use the two properties — they shift and mask inline.
    """

    __slots__ = ()

    def __new__(cls, partition_id: int, slot: int) -> "TupleRef":
        return int.__new__(cls, partition_id << 32 | slot)

    @property
    def partition_id(self) -> int:
        return self >> 32

    @property
    def slot(self) -> int:
        return self & 0xFFFFFFFF

    def __reduce__(self):
        return (TupleRef, (self >> 32, self & 0xFFFFFFFF))

    def __repr__(self) -> str:
        return f"TupleRef({self >> 32}:{self & 0xFFFFFFFF})"


@dataclass(frozen=True)
class HeapPtr:
    """A pointer into a partition's heap space for a variable-length field.

    The tuple slot stores this pointer; the bytes live in the heap
    (Section 2.1: "the tuple itself will contain a pointer to the field in
    the partition's heap space, so tuple growth will not cause tuples to
    move").
    """

    offset: int
    length: int
