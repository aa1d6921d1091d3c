"""``Relation.reader``, the one physical dereference, against the walk it
replaced everywhere but the indexes: ``_locate`` then
``Partition.read_field``.

``reference_read`` is that walk, kept here as the oracle.  For every
slot state — live, relocated behind a forwarding address, deleted, in a
quarantined partition, heap-valued, NULL — ``reader(ref)`` and
``reader.column(refs)`` must return the same value or raise the same
error, and charge the same five counters.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DanglingPointerError,
    ReproError,
    ShardUnavailableError,
)
from repro.instrument import count_traverse, counters_scope
from repro.storage.partition import PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema

COUNTERS = ("comparisons", "traversals", "moves", "allocations", "hashes")
FIELDS = ("id", "k", "s", "f")

#: Four slots and a heap of a few dozen bytes per partition: rows spread
#: over many partitions, and a string grown to 46 bytes relocates its
#: tuple out of a partition that holds other rows' strings.
TINY = PartitionConfig(slot_capacity=4, heap_capacity=48)


def reference_read(relation: Relation, field_name: str):
    position = relation.physical_schema.position(field_name)

    def read(ref):
        part, slot = relation._locate(ref)
        return part.read_field(slot, position)

    return read


def build_relation(n: int):
    relation = Relation(
        "R",
        Schema([
            Field("id", FieldType.INT),
            Field("k", FieldType.INT),
            Field("s", FieldType.STR),
            Field("f", FieldType.FLOAT),
        ]),
        TINY,
    )
    relation.create_index("pk", "id", unique=True)
    refs = [relation.insert([i, i * 7 % 5, f"s{i}", i / 2]) for i in range(n)]
    return relation, refs


def observe(run):
    with counters_scope() as counters:
        try:
            result = ("ok", run())
        except ReproError as exc:
            result = ("raised", type(exc), str(exc))
    return result, tuple(getattr(counters, name) for name in COUNTERS)


def check(relation, refs, fields=FIELDS):
    """Per ref and as one column, every field: the reader agrees with
    the reference.  Returns the column observations by field."""
    columns = {}
    for field in fields:
        new = relation.reader(field)
        old = reference_read(relation, field)
        for ref in refs:
            assert observe(lambda: new(ref)) == observe(lambda: old(ref)), (
                field, ref,
            )
        column = observe(lambda: new.column(refs))
        assert column == observe(lambda: [old(ref) for ref in refs]), field
        columns[field] = column
    return columns


def test_plain_rows():
    relation, refs = build_relation(10)
    columns = check(relation, refs)
    assert columns["k"] == (("ok", [i * 7 % 5 for i in range(10)]),
                            (0, 0, 0, 0, 0))
    assert columns["s"][0] == ("ok", [f"s{i}" for i in range(10)])


def test_relocated_tuple_charges_its_forwarding_hop():
    relation, refs = build_relation(8)
    relation.update(refs[1], "s", "y" * 46)
    assert relation.resolve(refs[1]) != refs[1]
    check(relation, refs)
    assert observe(lambda: relation.reader("k")(refs[1])) == (
        ("ok", 7 % 5), (0, 1, 0, 0, 0),
    )


def test_deleted_slot_raises_dangling_pointer():
    relation, refs = build_relation(6)
    relation.delete(refs[2])
    check(relation, [refs[2]])
    check(relation, refs)  # the column raises where the walk does
    outcome, __ = observe(lambda: relation.reader("k").column(refs))
    assert outcome[:2] == ("raised", DanglingPointerError)


def test_quarantined_partition_raises_shard_unavailable():
    relation, refs = build_relation(12)
    lost = refs[5] >> 32
    relation._partitions.pop(lost)
    relation.mark_quarantined(lost, "checksum mismatch")
    check(relation, refs)
    outcome, __ = observe(lambda: relation.reader("s")(refs[5]))
    assert outcome[:2] == ("raised", ShardUnavailableError)


def test_heap_string_is_loaded():
    relation, refs = build_relation(5)
    relation.update(refs[3], "s", "grown")
    check(relation, refs, fields=("s",))
    assert relation.reader("s")(refs[3]) == "grown"


def test_null_values():
    relation, refs = build_relation(4)
    null = relation.insert([99, None, None, None])
    check(relation, refs + [null])
    assert [relation.reader(f)(null) for f in FIELDS] == [99, None, None, None]


def test_mixed_batch_with_one_forwarded_ref():
    """One forwarded ref among plain ones sends the whole column down
    the ref-by-ref path: every value is still right, and only that ref's
    hop is charged."""
    relation, refs = build_relation(10)
    relation.update(refs[6], "s", "z" * 46)
    outcome, counts = observe(lambda: relation.reader("k").column(refs))
    assert outcome == ("ok", [i * 7 % 5 for i in range(10)])
    assert counts == (0, 1, 0, 0, 0)
    check(relation, refs)


def test_readers_are_shared_per_field():
    relation, __ = build_relation(1)
    assert relation.reader("k") is relation.reader("k")
    assert relation.key_extractor("k").uncounted is relation.reader("k")


def test_fetch_and_composite_keys_charge_a_chain_once():
    relation, refs = build_relation(8)
    relation.update(refs[1], "s", "y" * 46)
    relation.delete(refs[4])
    composite = relation.multi_key_extractor(["k", "s"])

    def old_fetch(ref):
        part, slot = relation._locate(ref)
        return part.read(slot)

    def old_composite(ref):
        count_traverse()
        part, slot = relation._locate(ref)
        return tuple(
            part.read_field(slot, relation.physical_schema.position(name))
            for name in ("k", "s")
        )

    for ref in refs:
        assert observe(lambda: relation.fetch(ref)) == observe(
            lambda: old_fetch(ref)
        )
        assert observe(lambda: composite(ref)) == observe(
            lambda: old_composite(ref)
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 30),
    relocate=st.lists(st.integers(0, 29), max_size=6),
    deletions=st.lists(st.integers(0, 29), max_size=6),
    nulls=st.lists(st.integers(0, 29), max_size=4),
)
def test_reader_matches_reference(n, relocate, deletions, nulls):
    relation, refs = build_relation(n)
    for position in nulls:
        if position < n:
            relation.update(refs[position], "k", None)
    for position in relocate:
        if position < n:
            relation.update(refs[position], "s", "x" * 46)
    dead = set()
    for position in deletions:
        if position < n and position not in dead:
            relation.delete(refs[position])
            dead.add(position)
    live = [ref for i, ref in enumerate(refs) if i not in dead]
    check(relation, live)
    check(relation, refs)
