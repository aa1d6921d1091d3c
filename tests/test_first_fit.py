"""First-fit tuple placement, with the relation's free-slot cursor.

``Relation._partition_with_room`` starts its search past the leading
partitions that have no free slot.  Placement — and so every tuple
pointer — must stay what a scan of every partition in creation order
gives: an insert lands in the first partition with a free slot and heap
room for the row, a relocated tuple in the first such partition other
than the one it overflowed, and otherwise in a new partition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.partition import Partition, PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema

#: Four slots and a small heap per partition: rows spread over many
#: partitions, and a grown string relocates its tuple.
TINY = PartitionConfig(slot_capacity=4, heap_capacity=48)


def reference_fit(relation: Relation, heap_bytes: int, exclude=None) -> int:
    """The partition id a full first-fit scan picks."""
    for part in relation.partitions:
        if part is not exclude and part.has_room(heap_bytes):
            return part.id
    return relation._next_partition_id


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "update"]),
        st.integers(0, 10_000),
        st.integers(0, 30),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_placement_matches_the_reference_scan(ops):
    relation = Relation(
        "R",
        Schema([Field("id", FieldType.INT), Field("s", FieldType.STR)]),
        TINY,
    )
    relation.create_index("pk", "id", unique=True)
    live = []
    next_id = 0
    for op, pick, length in ops:
        text = "x" * min(length, 20)
        if op == "insert" or not live:
            row = [next_id, text]
            expected = reference_fit(relation, Partition.heap_bytes_for(row))
            ref = relation.insert(row)
            assert ref >> 32 == expected
            live.append(ref)
            next_id += 1
        elif op == "delete":
            relation.delete(live.pop(pick % len(live)))
        else:
            ref = live[pick % len(live)]
            part, slot = relation._locate(ref)
            row = part.read(slot)
            row[1] = "y" * length
            expected = reference_fit(
                relation, Partition.heap_bytes_for(row), exclude=part
            )
            before = relation.resolve(ref)
            relation.update(ref, "s", row[1])
            after = relation.resolve(ref)
            if after != before:
                assert after >> 32 == expected
            assert relation.read_field(ref, "s") == row[1]
    assert sorted(relation.read_field(ref, "id") for ref in live) == sorted(
        relation.read_field(ref, "id") for ref in relation.any_index().scan()
    )


def test_cursor_skips_full_partitions():
    relation = Relation("R", Schema([Field("id", FieldType.INT)]), TINY)
    relation.create_index("pk", "id", unique=True)
    refs = [relation.insert([i]) for i in range(40)]
    assert relation._room_cursor == 9  # ten partitions, nine of them full
    relation.delete(refs[5])  # a slot frees in partition 1
    assert relation._room_cursor == 1
    assert relation.insert([40]) >> 32 == 1
