"""One state machine over all eight index structures (ROADMAP D(i)).

Every structure holds the same *tuple pointers* — machine words, see
DESIGN.md section 3.16 — and is driven through the same random
insert / delete / search / search_all / scan sequence against a
sorted-list model, with duplicate keys.  The pointers come from two
places:

* a real relation with tiny partitions, so that growing a tuple's
  string field overflows the heap and the tuple moves behind a
  *forwarding address* while every index keeps the old pointer;
* the corners of the word no real partition can back (partition id
  ``2**31 - 1``, slot ``2**32 - 1``), whose keys live in a side table.

After every step the structural invariants are checked: T-Tree (and
AVL / B-Tree) balance and node occupancy, and the linear-hash split
pointer with every item in the bucket its address names.
"""

from bisect import insort

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import KeyNotFoundError
from repro.indexes import HASH_KINDS, INDEX_KINDS, ORDERED_KINDS
from repro.storage.partition import PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.tuples import TupleRef

KINDS = ORDERED_KINDS + HASH_KINDS

#: Small nodes and tables, so a few dozen items already split, merge,
#: rotate and chain.
KIND_OPTIONS = {
    "btree": {"node_size": 4},
    "ttree": {"node_size": 4, "min_slack": 1},
    "chained_hash": {"table_size": 4},
    "extendible_hash": {"node_size": 2},
    "linear_hash": {"node_size": 2},
    "modified_linear_hash": {"chain_target": 1.5},
}

#: Pointer words at the corners of the layout.
FAR_POINTERS = (
    TupleRef(2**31 - 1, 2**32 - 1),
    TupleRef(2**31 - 1, 0),
    TupleRef(0, 2**32 - 1),
    TupleRef(2**31 - 1, 2**31),
    TupleRef(2**30, 2**32 - 2),
)

#: Four 16-byte pads fill a partition's 64-byte heap, so growing any of
#: them to ``LONG_PAD`` overflows it and relocates the tuple.
PARTITIONS = PartitionConfig(slot_capacity=4, heap_capacity=64)
SHORT_PAD = "s" * 16
LONG_PAD = "L" * 40

KEYS = st.integers(-4, 4)  # few keys: duplicates are the normal case


class PointerStore:
    """Where the machine's pointers lead: a relation plus the far corner."""

    def __init__(self) -> None:
        self.relation = Relation(
            "T",
            Schema([Field("K", FieldType.INT), Field("Pad", FieldType.STR)]),
            PARTITIONS,
        )
        # The relation's own access path (every relation needs one).
        self.relation.create_index("own", "K", kind="array", unique=False)
        self._extract = self.relation.key_extractor("K")
        self.far = {}

    def key_of(self, ref):
        key = self.far.get(ref)
        return key if key is not None else self._extract(ref)

    def insert(self, key):
        return self.relation.insert([key, SHORT_PAD])

    def forwarded(self, ref) -> bool:
        return ref not in self.far and self.relation.resolve(ref) != ref


def build_indexes(store):
    return {
        kind: INDEX_KINDS[kind](
            key_of=store.key_of, unique=False, **KIND_OPTIONS.get(kind, {})
        )
        for kind in KINDS
    }


def check_linear_hash(index) -> None:
    """Litwin's addressing: split pointer in range, table size to match,
    and every item in the bucket its key's address names."""
    base = 4 << index._level
    assert 0 <= index._split_ptr < base
    if index.kind == "linear_hash":
        buckets = index._buckets
    else:
        buckets = []
        for head in index._heads:
            chain, cell = [], head
            while cell is not None:
                chain.extend(cell.items)
                cell = cell.next
            buckets.append(chain)
    assert len(buckets) == base + index._split_ptr
    for address, bucket in enumerate(buckets):
        for item in bucket:
            assert index._address(index._hash(index.key_of(item))) == address


class IndexMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.store = PointerStore()
        self.indexes = build_indexes(self.store)
        #: The model: ``(key, pointer)`` pairs, kept sorted.
        self.model = []

    def _add(self, key, ref):
        for index in self.indexes.values():
            index.insert(ref)
        insort(self.model, (key, ref))

    # -- updates -------------------------------------------------------

    @rule(key=KEYS)
    def insert(self, key):
        self._add(key, self.store.insert(key))

    @precondition(lambda self: len(self.store.far) < len(FAR_POINTERS))
    @rule(key=KEYS, data=st.data())
    def insert_far(self, key, data):
        free = [p for p in FAR_POINTERS if p not in self.store.far]
        ref = data.draw(st.sampled_from(free))
        self.store.far[ref] = key
        self._add(key, ref)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key, ref = data.draw(st.sampled_from(self.model))
        for index in self.indexes.values():
            index.delete(ref)
        self.model.remove((key, ref))
        if self.store.far.pop(ref, None) is None:
            self.store.relation.delete(ref)

    @precondition(lambda self: len(self.model) > len(self.store.far))
    @rule(data=st.data())
    def grow_tuple(self, data):
        """Grow a tuple's heap field: in a full partition this moves the
        tuple and leaves a forwarding address under the indexed pointer."""
        real = [item for item in self.model if item[1] not in self.store.far]
        key, ref = data.draw(st.sampled_from(real))
        self.store.relation.update(ref, "Pad", LONG_PAD)
        assert self.store.key_of(ref) == key

    @rule(key=KEYS)
    def delete_absent_pointer(self, key):
        ghost = TupleRef(2**31 - 2, 7)  # never minted by either source
        self.store.far[ghost] = key
        try:
            for index in self.indexes.values():
                with pytest.raises(KeyNotFoundError):
                    index.delete(ghost)
        finally:
            del self.store.far[ghost]

    # -- reads ---------------------------------------------------------

    @rule(key=KEYS)
    def search(self, key):
        expected = {ref for k, ref in self.model if k == key}
        for kind, index in self.indexes.items():
            found = index.search(key)
            if expected:
                assert found in expected, kind
            else:
                assert found is None, kind

    @rule(key=KEYS)
    def search_all(self, key):
        expected = [ref for k, ref in self.model if k == key]
        for kind, index in self.indexes.items():
            assert sorted(index.search_all(key)) == expected, kind

    @rule()
    def scan(self):
        pointers = sorted(ref for __, ref in self.model)
        keys = [key for key, __ in self.model]
        for kind, index in self.indexes.items():
            scanned = list(index.scan())
            assert sorted(scanned) == pointers, kind
            if kind in ORDERED_KINDS:
                assert [self.store.key_of(r) for r in scanned] == keys, kind

    # -- invariants ----------------------------------------------------

    @invariant()
    def sizes_agree(self):
        for kind, index in self.indexes.items():
            assert len(index) == len(self.model), kind

    @invariant()
    def structures_hold(self):
        for kind in ("ttree", "avl", "btree"):
            self.indexes[kind].check_invariants()
        check_linear_hash(self.indexes["linear_hash"])
        check_linear_hash(self.indexes["modified_linear_hash"])


IndexMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestIndexMachine = IndexMachine.TestCase


def test_the_store_really_forwards_and_indexes_follow():
    """The machine's ``grow_tuple`` rule is not vacuous: with these
    partition sizes a full partition relocates, and every structure
    still finds the tuple through the old pointer."""
    store = PointerStore()
    indexes = build_indexes(store)
    refs = [store.insert(key) for key in (1, 2, 2, 3)]  # fills partition 0
    for ref in refs:
        for index in indexes.values():
            index.insert(ref)
    moved = refs[1]
    store.relation.update(moved, "Pad", LONG_PAD)
    assert store.forwarded(moved)
    assert store.relation.resolve(moved) >> 32 != moved >> 32
    for kind, index in indexes.items():
        assert sorted(index.search_all(2)) == sorted(refs[1:3]), kind
        index.delete(moved)
        assert index.search_all(2) == [refs[2]], kind
