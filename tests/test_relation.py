"""Unit tests for relations: index-only access, updates, relocation."""

import pytest

from repro.errors import DuplicateKeyError, SchemaError, StorageError
from repro.storage.partition import PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.tuples import TupleRef


def make_relation(slots=4, heap=64, name="R") -> Relation:
    schema = Schema([Field("k", FieldType.INT), Field("s", FieldType.STR)])
    relation = Relation(name, schema, PartitionConfig(slots, heap))
    relation.create_index(f"{name}_pk", "k", kind="ttree", unique=True)
    return relation


class TestBasics:
    def test_insert_requires_an_index(self):
        schema = Schema([Field("k", FieldType.INT)])
        bare = Relation("Bare", schema)
        with pytest.raises(SchemaError):
            bare.insert([1])

    def test_insert_and_fetch(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        assert rel.fetch(ref) == [1, "one"]
        assert len(rel) == 1

    def test_read_single_field(self):
        rel = make_relation()
        ref = rel.insert([5, "five"])
        assert rel.read_field(ref, "k") == 5
        assert rel.read_field(ref, "s") == "five"

    def test_row_arity_checked(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.insert([1])

    def test_new_partitions_allocated_when_full(self):
        rel = make_relation(slots=2)
        for i in range(5):
            rel.insert([i, f"v{i}"])
        assert len(rel.partitions) >= 3
        assert len(rel) == 5

    def test_delete_removes_everywhere(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        rel.delete(ref)
        assert len(rel) == 0
        assert rel.index("R_pk").search(1) is None

    def test_unique_violation_rolls_back_storage(self):
        rel = make_relation()
        rel.insert([1, "one"])
        with pytest.raises(DuplicateKeyError):
            rel.insert([1, "dup"])
        # The failed insert left no trace.
        assert len(rel) == 1
        assert sum(p.live_tuples for p in rel.partitions) == 1


class TestIndexManagement:
    def test_secondary_index_backfills_existing_tuples(self):
        rel = make_relation()
        refs = [rel.insert([i, f"v{i}"]) for i in range(4)]
        idx = rel.create_index("by_s", "s", kind="chained_hash")
        assert idx.search("v2") == refs[2]

    def test_duplicate_index_name_rejected(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.create_index("R_pk", "s")

    def test_unknown_index_kind_rejected(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.create_index("x", "s", kind="btree3000")

    def test_cannot_drop_last_index(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.drop_index("R_pk")

    def test_drop_secondary_index(self):
        rel = make_relation()
        rel.create_index("by_s", "s")
        rel.drop_index("by_s")
        with pytest.raises(SchemaError):
            rel.index("by_s")

    def test_index_on_prefers_ordered(self):
        rel = make_relation()
        rel.create_index("hash_k", "k", kind="modified_linear_hash")
        found = rel.index_on("k")
        assert found.ordered

    def test_index_on_filters_by_family(self):
        rel = make_relation()
        rel.create_index("hash_k", "k", kind="modified_linear_hash")
        assert rel.index_on("k", ordered=False).kind == "modified_linear_hash"
        assert rel.index_on("k", ordered=True).kind == "ttree"
        assert rel.index_on("s", ordered=True) is None

    def test_key_extractor_reads_through_pointer(self):
        rel = make_relation()
        ref = rel.insert([9, "nine"])
        extract = rel.key_extractor("s")
        assert extract(ref) == "nine"

    def test_multi_key_extractor(self):
        rel = make_relation()
        ref = rel.insert([9, "nine"])
        extract = rel.multi_key_extractor(["k", "s"])
        assert extract(ref) == (9, "nine")


class TestUpdate:
    def test_update_plain_field(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        rel.update(ref, "s", "uno")
        assert rel.read_field(ref, "s") == "uno"

    def test_update_indexed_field_maintains_index(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        rel.insert([2, "two"])
        rel.update(ref, "k", 10)
        idx = rel.index("R_pk")
        assert idx.search(1) is None
        assert idx.search(10) == ref

    def test_update_heap_overflow_relocates_with_forwarding(self):
        rel = make_relation(slots=8, heap=32)
        ref = rel.insert([1, "0123456789"])
        rel.insert([2, "0123456789"])
        # Growing the string overflows partition 0's heap: the tuple moves
        # and the original pointer keeps working through forwarding.
        rel.update(ref, "s", "X" * 30)
        assert rel.read_field(ref, "s") == "X" * 30
        assert rel.resolve(ref) != ref
        # The index still finds the tuple; its stored pointer reaches the
        # same canonical location through the forwarding address.
        found = rel.index("R_pk").search(1)
        assert rel.resolve(found) == rel.resolve(ref)

    def test_update_after_relocation_follows_forwarding(self):
        rel = make_relation(slots=8, heap=32)
        ref = rel.insert([1, "0123456789"])
        rel.insert([2, "0123456789"])
        rel.update(ref, "s", "X" * 30)
        rel.update(ref, "k", 42)
        assert rel.read_field(ref, "k") == 42

    @pytest.mark.parametrize("kind", ["array", "ttree", "linear_hash"])
    def test_relocated_tuple_stays_maintainable_in_duplicate_index(
        self, kind
    ):
        # A non-unique index deletes the exact pointer it holds, and the
        # relation looks entries up by the canonical pointer: after a
        # move every index must hold that one, or delete and re-key of a
        # relocated tuple raise KeyNotFoundError (found by
        # tests/indexes/test_index_state_machine.py).
        rel = make_relation(slots=8, heap=32)
        rel.create_index("by_k", "k", kind=kind, unique=False)
        rel.create_index("by_s", "s", kind=kind, unique=False)
        first = rel.insert([1, "0123456789"])
        second = rel.insert([2, "0123456789"])
        rel.update(first, "s", "X" * 30)  # relocates
        assert rel.resolve(first) != first
        rel.update(first, "k", 7)
        assert rel.index("by_k").search_all(7) == [rel.resolve(first)]
        assert rel.index("by_s").search_all("X" * 30) == [rel.resolve(first)]
        rel.delete(first)
        assert rel.index("by_k").search_all(7) == []
        assert list(rel.index("by_k").scan()) == [second]

    def test_update_type_checked(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        with pytest.raises(SchemaError):
            rel.update(ref, "k", "not an int")


class TestRecoveryHooks:
    def test_change_listener_sees_insert(self):
        rel = make_relation()
        events = []
        rel.change_listener = events.append
        rel.insert([1, "one"])
        assert events[-1]["kind"] == "insert"
        assert events[-1]["values"] == [1, "one"]

    def test_change_listener_sees_update_and_delete(self):
        rel = make_relation()
        ref = rel.insert([1, "one"])
        events = []
        rel.change_listener = events.append
        rel.update(ref, "s", "x")
        rel.delete(ref)
        assert [e["kind"] for e in events] == ["update", "delete"]

    def test_relocation_emits_insert_then_forward(self):
        rel = make_relation(slots=8, heap=32)
        ref = rel.insert([1, "0123456789"])
        rel.insert([2, "0123456789"])
        events = []
        rel.change_listener = events.append
        rel.update(ref, "s", "X" * 30)
        kinds = [e["kind"] for e in events]
        assert kinds == ["insert", "forward"]

    def test_rebuild_indexes_restores_lookup(self):
        rel = make_relation()
        refs = [rel.insert([i, f"v{i}"]) for i in range(6)]
        rel.create_index("by_s", "s", kind="chained_hash")
        rel.rebuild_indexes()
        assert rel.index("R_pk").search(3) == refs[3]
        assert rel.index("by_s").search("v4") == refs[4]
        assert len(rel) == 6

    def test_adopt_partition_advances_id_counter(self):
        rel = make_relation()
        from repro.storage.partition import Partition

        rel.adopt_partition(Partition(5, rel.partition_config))
        rel.insert([1, "x"])  # must not collide with partition 5
        assert 5 in {p.id for p in rel.partitions}
