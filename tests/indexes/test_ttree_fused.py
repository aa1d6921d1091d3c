"""The T-Tree's bulk-counted search routines and the relation's inlined
key extractor against the per-step code they replaced.

``ReferenceTTree`` and ``reference_extractor`` are that code, kept here
as the oracle: every search, insert and delete must return the same
result, leave the same tree, and charge the same comparisons and pointer
traversals (moves and allocations ride along).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.indexes.ttree import TTreeIndex, _TNode
from repro.instrument import (
    count_compare,
    count_move,
    count_traverse,
    counters_scope,
)
from repro.storage.partition import PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema

COUNTERS = ("comparisons", "traversals", "moves", "allocations", "hashes")


def reference_extractor(relation: Relation, field_name: str):
    """``Relation.key_extractor`` as it was: one counted traversal, then
    ``_locate`` and ``Partition.read_field``."""
    position = relation.physical_schema.position(field_name)

    def extract(ref):
        count_traverse()
        part, slot = relation._locate(ref)
        return part.read_field(slot, position)

    return extract


class ReferenceTTree(TTreeIndex):
    """The search side of ``TTreeIndex`` with a ``count_*`` call per step
    and ``self._key`` per extraction (the structural half — spill,
    borrow, rotations — is inherited unchanged)."""

    def _lower_bound(self, node: _TNode, key: Any) -> int:
        lo, hi = 0, len(node.items)
        while lo < hi:
            mid = (lo + hi) // 2
            count_compare()
            count_traverse()
            if self._key(node.items[mid]) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _upper_bound(self, node: _TNode, key: Any) -> int:
        lo, hi = 0, len(node.items)
        while lo < hi:
            mid = (lo + hi) // 2
            count_compare()
            count_traverse()
            if key < self._key(node.items[mid]):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _find_bounding(self, key: Any):
        node = self._root
        last, direction = None, 0
        while node is not None:
            count_compare()
            if key < self._key(node.items[0]):
                last, direction = node, -1
                count_traverse()
                node = node.left
                continue
            count_compare()
            if key > self._key(node.items[-1]):
                last, direction = node, 1
                count_traverse()
                node = node.right
                continue
            return node, node, 0
        return None, last, direction

    def search(self, key: Any) -> Optional[Any]:
        bounding, __, __ = self._find_bounding(key)
        if bounding is None:
            return None
        pos = self._lower_bound(bounding, key)
        if pos < len(bounding.items):
            count_compare()
            if self._key(bounding.items[pos]) == key:
                return bounding.items[pos]
        return None

    def search_all(self, key: Any) -> List[Any]:
        located = self._locate_first(key)
        if located is None:
            return []
        node, pos = located
        result = []
        while True:
            while pos < len(node.items):
                count_compare()
                if self._key(node.items[pos]) != key:
                    return result
                result.append(node.items[pos])
                pos += 1
            nxt = self._successor_node(node)
            if nxt is None:
                return result
            node, pos = nxt, 0

    def _locate_first(self, key: Any) -> Optional[Tuple[_TNode, int]]:
        bounding, __, __ = self._find_bounding(key)
        if bounding is None:
            return None
        pos = self._lower_bound(bounding, key)
        node = bounding
        if pos == len(node.items) or self._key(node.items[pos]) != key:
            count_compare()
            return None
        count_compare()
        while pos == 0:
            prev = self._predecessor_node(node)
            if prev is None or not prev.items:
                break
            count_compare()
            if self._key(prev.items[-1]) != key:
                break
            node, pos = prev, len(prev.items) - 1
            while pos > 0:
                count_compare()
                if self._key(node.items[pos - 1]) != key:
                    break
                pos -= 1
        return node, pos

    def insert(self, item: Any) -> None:
        key = self._key(item)
        if self._root is None:
            self._root = self._new_node([item])
            self._count += 1
            return
        bounding, last, direction = self._find_bounding(key)
        if bounding is not None:
            self._insert_bounding(bounding, item, key)
        elif direction < 0:
            self._insert_edge(last, item, at_front=True)
        else:
            self._insert_edge(last, item, at_front=False)
        self._count += 1

    def _insert_bounding(self, node: _TNode, item: Any, key: Any) -> None:
        if self.unique:
            pos = self._lower_bound(node, key)
            if pos < len(node.items):
                count_compare()
                if self._key(node.items[pos]) == key:
                    raise DuplicateKeyError(f"ttree: duplicate key {key!r}")
        else:
            pos = self._upper_bound(node, key)
        if len(node.items) < self.max_count:
            count_move(len(node.items) - pos + 1)
            node.items.insert(pos, item)
            return
        minimum = node.items.pop(0)
        count_move(pos)
        node.items.insert(pos - 1, item)
        self._push_down_glb(node, minimum)

    def _locate_item(self, key: Any, item: Any):
        located = self._locate_first(key)
        if located is None:
            return None
        node, pos = located
        if self.unique:
            return node, pos
        while True:
            while pos < len(node.items):
                count_compare()
                if self._key(node.items[pos]) != key:
                    return None
                if node.items[pos] == item:
                    return node, pos
                pos += 1
            nxt = self._successor_node(node)
            if nxt is None:
                return None
            node, pos = nxt, 0


# --------------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------------- #

#: Four slots and a heap of a few dozen bytes per partition: rows spread
#: over many partitions, and a string grown to 46 bytes relocates its
#: tuple out of a partition that holds other rows' strings.
TINY = PartitionConfig(slot_capacity=4, heap_capacity=48)


def build_relation(rows):
    relation = Relation(
        "R",
        Schema([
            Field("id", FieldType.INT),
            Field("k", FieldType.INT),
            Field("s", FieldType.STR),
        ]),
        TINY,
    )
    relation.create_index("pk", "id", unique=True)
    refs = [relation.insert([i, key, "s"]) for i, key in enumerate(rows)]
    return relation, refs


def observe(run):
    with counters_scope() as counters:
        try:
            result = ("ok", run())
        except (DuplicateKeyError, KeyNotFoundError, TypeError) as exc:
            result = ("raised", type(exc), str(exc))
    return result, tuple(getattr(counters, name) for name in COUNTERS)


def shape(index: TTreeIndex):
    """The tree as nested (items, left, right) tuples."""

    def walk(node):
        if node is None:
            return None
        return (tuple(node.items), walk(node.left), walk(node.right))

    return walk(index._root)


def pair(relation, unique: bool, node_size: int):
    fused = TTreeIndex(
        key_of=relation.key_extractor("k"), unique=unique,
        node_size=node_size,
    )
    reference = ReferenceTTree(
        key_of=reference_extractor(relation, "k"), unique=unique,
        node_size=node_size,
    )
    return fused, reference


def both(fused, reference, call):
    observed = observe(lambda: call(fused))
    expected = observe(lambda: call(reference))
    assert observed == expected
    return observed[0]


keys = st.integers(min_value=0, max_value=12)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(keys, min_size=0, max_size=60),
    relocate=st.lists(st.integers(0, 59), max_size=8),
    probes=st.lists(st.integers(-2, 15), min_size=1, max_size=12),
    deletions=st.lists(st.integers(0, 59), max_size=20),
    node_size=st.sampled_from([2, 3, 4, 8]),
)
def test_duplicates_forwarding_and_edges(
    rows, relocate, probes, deletions, node_size
):
    """A non-unique tree with small nodes (runs of equal keys spill over
    node boundaries), probed below the minimum, above the maximum and
    when empty, with some tuples relocated behind forwarding addresses."""
    relation, refs = build_relation(rows)
    fused, reference = pair(relation, unique=False, node_size=node_size)
    for ref in refs:
        both(fused, reference, lambda index: index.insert(ref))
    assert shape(fused) == shape(reference)
    for position in relocate:
        if position < len(refs):
            # Outgrows the heap of a partition holding three rows or
            # more: the tuple moves, the old slot keeps a forwarding
            # address, the pointer stays valid.
            relation.update(refs[position], "s", "x" * 46)
    for key in probes:
        both(fused, reference, lambda index: index.search(key))
        found = both(fused, reference, lambda index: index.search_all(key))
        assert sorted(found[1]) == sorted(
            ref for ref, row_key in zip(refs, rows) if row_key == key
        )
    live = list(refs)
    for position in deletions:
        if position < len(refs):
            ref = refs[position]
            outcome = both(
                fused, reference, lambda index: index.delete(ref)
            )
            assert (outcome[0] == "ok") == (ref in live)
            if ref in live:
                live.remove(ref)
            assert shape(fused) == shape(reference)
    fused.check_invariants()
    for key in probes:
        both(fused, reference, lambda index: index.search_all(key))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.integers(0, 200), min_size=0, max_size=80, unique=True),
    again=st.lists(st.integers(0, 79), max_size=5),
    probes=st.lists(st.integers(-5, 205), min_size=1, max_size=15),
    node_size=st.sampled_from([2, 4, 32]),
)
def test_unique_tree(rows, again, probes, node_size):
    """The primary-index configuration: duplicate inserts raise the same
    error after the same work."""
    relation, refs = build_relation(rows)
    fused, reference = pair(relation, unique=True, node_size=node_size)
    for ref in refs:
        both(fused, reference, lambda index: index.insert(ref))
    for position in again:
        if position < len(refs):
            ref = refs[position]
            outcome = both(fused, reference, lambda index: index.insert(ref))
            assert outcome[0] == "raised"
    assert shape(fused) == shape(reference)
    for key in probes:
        found = both(fused, reference, lambda index: index.search(key))
        assert (found[1] is not None) == (key in rows)
        both(fused, reference, lambda index: index.search_all(key))
    for ref in refs[::2]:
        both(fused, reference, lambda index: index.delete(ref))
    assert shape(fused) == shape(reference)
    for key in probes:
        both(fused, reference, lambda index: index.search_all(key))


def test_counts_survive_a_raising_comparison():
    """A key of the wrong type raises inside the descent; the work done
    up to there is charged either way."""
    relation, refs = build_relation(list(range(40)))
    fused, reference = pair(relation, unique=True, node_size=4)
    for ref in refs:
        fused.insert(ref)
        reference.insert(ref)
    outcome = both(fused, reference, lambda index: index.search_all("x"))
    assert outcome[0] == "raised" and outcome[1] is TypeError


def test_identity_keys_owe_no_traversals():
    """The standalone-benchmark configuration (items are their own
    keys) goes through the same routines with nothing owed."""
    fused = TTreeIndex(node_size=4)
    reference = ReferenceTTree(node_size=4)
    for key in (5, 1, 9, 3, 7, 2, 8, 4, 6, 0):
        both(fused, reference, lambda index: index.insert(key))
    for key in (-1, 0, 4, 9, 10):
        both(fused, reference, lambda index: index.search(key))
        both(fused, reference, lambda index: index.search_all(key))
    for key in (4, 0, 9):
        both(fused, reference, lambda index: index.delete(key))
    assert shape(fused) == shape(reference)


def test_extractor_matches_reference_on_every_slot_state():
    """Live, relocated, deleted and out-of-range pointers, inline and
    heap-valued fields: same value or same error, same traversals."""
    from repro.errors import StorageError
    from repro.storage.tuples import TupleRef

    relation, refs = build_relation([3, 1, 4, 1, 5, 9, 2, 6])
    relation.update(refs[1], "s", "y" * 46)  # relocated
    assert relation.resolve(refs[1]) != refs[1]
    relation.delete(refs[2])                  # tombstone
    bogus = [TupleRef(99, 0), TupleRef(0, 99)]
    for field in ("k", "s"):
        new = relation.key_extractor(field)
        old = reference_extractor(relation, field)
        for ref in refs + bogus:
            results = []
            for extract in (new, old):
                with counters_scope() as counters:
                    try:
                        value = ("ok", extract(ref))
                    except StorageError as exc:
                        value = ("raised", type(exc), str(exc))
                results.append((value, counters.traversals))
            assert results[0] == results[1], (field, ref)
        assert new.uncounted(refs[0]) == old(refs[0])
