"""The tuple pointer is one machine word (DESIGN.md section 3.16).

``TupleRef`` is an ``int`` subclass whose value is
``partition_id << 32 | slot``: ordering, equality and hashing are
``int``'s, any ``int`` carrying the word dereferences, and the subclass
survives only as the mark that tells a *stored* foreign-key pointer
from an INT value.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Field, FieldType, ForeignKey, MainMemoryDatabase
from repro.errors import StorageError
from repro.query.predicates import value_fingerprint
from repro.storage.partition import Partition, PartitionConfig
from repro.storage.tuples import MAX_PARTITIONS, MAX_SLOTS, TupleRef

partition_ids = st.integers(0, MAX_PARTITIONS - 1)
slots = st.integers(0, MAX_SLOTS - 1)
pairs = st.tuples(partition_ids, slots)


@given(pairs)
def test_word_layout_and_properties(pair):
    part, slot = pair
    ref = TupleRef(part, slot)
    assert ref == part << 32 | slot
    assert hash(ref) == hash(part << 32 | slot)
    assert (ref.partition_id, ref.slot) == pair
    assert (ref >> 32, ref & 0xFFFFFFFF) == pair
    # The word fits the wire's signed int64.
    assert 0 <= ref < 2**63


@given(pairs, pairs)
def test_order_is_pair_order(a, b):
    ra, rb = TupleRef(*a), TupleRef(*b)
    assert (ra < rb) == (a < b)
    assert (ra == rb) == (a == b)
    assert (ra <= rb) == (a <= b)


@given(st.lists(pairs, max_size=20))
def test_sorting_refs_sorts_pairs(items):
    ordered = sorted(TupleRef(*pair) for pair in items)
    assert [(r.partition_id, r.slot) for r in ordered] == sorted(items)


@given(pairs)
def test_pickle_and_copy_round_trip_keep_the_type(pair):
    ref = TupleRef(*pair)
    for clone in (
        pickle.loads(pickle.dumps(ref, pickle.HIGHEST_PROTOCOL)),
        copy.copy(ref),
        copy.deepcopy(ref),
    ):
        assert clone == ref
        assert type(clone) is TupleRef


def test_reduce_and_repr_keep_their_forms():
    ref = TupleRef(3, 17)
    assert ref.__reduce__() == (TupleRef, (3, 17))
    assert repr(ref) == "TupleRef(3:17)"
    assert f"{ref}" == "TupleRef(3:17)"
    assert repr(TupleRef(2**31 - 1, 2**32 - 1)) == (
        "TupleRef(2147483647:4294967295)"
    )


def test_no_instance_dict():
    assert TupleRef.__slots__ == ()
    with pytest.raises(AttributeError):
        TupleRef(0, 1).extra = 1


def test_the_one_semantic_edge():
    # Partition 0's pointers equal small ints; only isinstance (and the
    # fingerprinter, which asks it first) tells them apart.
    assert TupleRef(0, 5) == 5
    assert hash(TupleRef(0, 5)) == hash(5)
    assert {TupleRef(0, 5): "x"}[5] == "x"
    assert value_fingerprint(TupleRef(0, 5)) == ("ref", 0, 5)
    assert value_fingerprint(5) == 5
    assert value_fingerprint(TupleRef(0, 5)) != value_fingerprint(5)


@pytest.fixture()
def fk_db():
    db = MainMemoryDatabase()
    db.create_relation(
        "Dept",
        [Field("Id", FieldType.INT), Field("Floor", FieldType.INT)],
        primary_key="Id",
    )
    db.create_relation(
        "Emp",
        [
            Field("Id", FieldType.INT),
            Field("Age", FieldType.INT),
            Field("Dept", FieldType.INT, references=ForeignKey("Dept", "Id")),
        ],
        primary_key="Id",
    )
    for i in range(8):
        db.insert("Dept", [i, i % 3])
    for i in range(20):
        db.insert("Emp", [i, 5, i % 8])
    return db


def test_isinstance_separates_stored_fk_pointer_from_int(fk_db):
    emp = fk_db.catalog.relation("Emp")
    dept = fk_db.catalog.relation("Dept")
    ref = emp.index_on("Id").search(5)
    row = emp.fetch(ref)
    # Age is the INT 5; Dept is a pointer to partition 0 slot 5, which
    # *equals* 5 — the subclass is the only thing telling them apart.
    assert row[1] == 5 and not isinstance(row[1], TupleRef)
    assert row[2] == 5 and isinstance(row[2], TupleRef)
    assert dept.read_field(row[2], "Id") == 5
    assert fk_db.fetch("Emp", ref) == {"Id": 5, "Age": 5, "Dept": 5}


def test_any_int_carrying_the_word_is_a_valid_pointer(fk_db):
    emp = fk_db.catalog.relation("Emp")
    ref = emp.index_on("Id").search(7)
    word = int(ref)
    assert type(word) is int
    assert emp.fetch(word) == emp.fetch(ref)
    assert emp.read_field(word, "Id") == 7
    assert emp.key_extractor("Id")(word) == 7
    assert emp.resolve(word) == ref and type(emp.resolve(word)) is TupleRef
    fk_db.delete("Emp", word)
    assert emp.index_on("Id").search(7) is None


def test_word_range_is_guarded_where_partitions_are_minted():
    Partition(MAX_PARTITIONS - 1)
    Partition(0, PartitionConfig(slot_capacity=MAX_SLOTS))
    with pytest.raises(StorageError):
        Partition(MAX_PARTITIONS)
    with pytest.raises(StorageError):
        Partition(-1)
    with pytest.raises(StorageError):
        Partition(0, PartitionConfig(slot_capacity=MAX_SLOTS + 1))
