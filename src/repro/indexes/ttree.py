"""The T-Tree [LeC85] — the paper's new index structure.

"The T Tree is a binary tree with many elements per node ... it retains the
intrinsic binary search nature of the AVL Tree, and, because a T node
contains many elements, the T Tree has the good update and storage
characteristics of the B Tree" (Section 3.2.1).

Terminology (Figure 4): a node with two subtrees is an *internal node*; one
NIL child makes a *half-leaf*; two NIL children make a *leaf*.  A node
*bounds* value X when min(node) <= X <= max(node).  For each internal node
A, the predecessor of min(A) is its *greatest lower bound* (GLB) and the
successor of max(A) its *least upper bound* (LUB); both live in leaves or
half-leaves.

Occupancy rules: internal nodes keep between ``min_count`` and
``max_count`` items, where the two "usually differ by just a small amount,
on the order of one or two items"; leaf and half-leaf occupancy ranges from
zero to ``max_count``.

Algorithms implemented exactly as the paper describes:

* **Search** — binary-tree descent comparing against node min/max, then a
  binary search inside the bounding node.
* **Insert** — into the bounding node if one exists; on overflow the
  *minimum* element is transferred down to become the new GLB (footnote 5:
  moving the minimum requires less data movement than the maximum).  With
  no bounding node, the value goes into the node where the search ended,
  or a fresh leaf if that node is full, followed by AVL-style rebalancing.
* **Delete** — remove from the bounding node; an underflowing internal
  node borrows its GLB from a leaf; an emptied leaf is unlinked and the
  tree rebalanced; a leaf is otherwise allowed to underflow.
* **Rebalancing** — AVL rotations, performed "much less often than in an
  AVL tree due to the possibility of intra-node data movement"; the LR/RL
  special case where a one-item node rotates up into an internal position
  is repaired by sliding items up from the new left child.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import DuplicateKeyError
from repro.indexes.base import (
    CONTROL_BYTES,
    POINTER_BYTES,
    OrderedIndex,
)
from repro.instrument import count_alloc, count_compare, count_move, count_traverse

#: Default maximum node occupancy; the benchmark sweeps 2..100 like Graph 1.
DEFAULT_NODE_SIZE = 32


class _TNode:
    """A T-node: a sorted item array plus parent/left/right pointers."""

    __slots__ = ("items", "left", "right", "parent", "height")

    def __init__(self, items: List[Any] = None) -> None:
        self.items: List[Any] = items if items is not None else []
        self.left: Optional[_TNode] = None
        self.right: Optional[_TNode] = None
        self.parent: Optional[_TNode] = None
        self.height = 1

    @property
    def is_internal(self) -> bool:
        return self.left is not None and self.right is not None


def _height(node: Optional[_TNode]) -> int:
    return node.height if node is not None else 0


def _balance(node: _TNode) -> int:
    return _height(node.left) - _height(node.right)


class TTreeIndex(OrderedIndex):
    """The T-Tree: the MM-DBMS's general-purpose ordered index.

    Parameters
    ----------
    node_size:
        Maximum items per node (the x-axis of Graphs 1 and 2).
    min_slack:
        ``min_count = node_size - min_slack`` for internal nodes; the paper
        recommends a slack of one or two items, "enough to significantly
        reduce the need for tree rotations".
    spill:
        Which boundary element an overflowing node transfers down, and
        which bound an underflowing node borrows back.  ``"min"`` is the
        paper's choice (footnote 5: "moving the minimum element requires
        less total data movement than moving the maximum"); ``"max"`` is
        the symmetric variant, provided for the ablation benchmark that
        verifies the footnote.
    """

    kind = "ttree"

    def __init__(
        self,
        key_of: Callable[[Any], Any] = None,
        unique: bool = True,
        node_size: int = DEFAULT_NODE_SIZE,
        min_slack: int = 2,
        spill: str = "min",
    ) -> None:
        super().__init__(key_of, unique)
        if node_size < 2:
            raise ValueError("T-Tree node size must be at least 2")
        if min_slack < 0:
            raise ValueError("min_slack must be non-negative")
        if spill not in ("min", "max"):
            raise ValueError("spill must be 'min' or 'max'")
        self.max_count = node_size
        self.min_count = max(1, node_size - min_slack)
        self.spill = spill
        self._root: Optional[_TNode] = None
        self._node_count = 0
        #: Rotations performed over the index's lifetime; the min_slack
        #: ablation measures how intra-node slack "significantly reduces
        #: the need for tree rotations".
        self.rotation_count = 0

    # ------------------------------------------------------------------ #
    # small structural helpers
    # ------------------------------------------------------------------ #

    def _new_node(self, items: List[Any]) -> _TNode:
        count_alloc()
        self._node_count += 1
        return _TNode(items)

    def _key(self, item: Any) -> Any:
        return self.key_of(item)

    def _replace_child(
        self, parent: Optional[_TNode], old: _TNode, new: Optional[_TNode]
    ) -> None:
        if parent is None:
            self._root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new
        if new is not None:
            new.parent = parent

    def _update_height(self, node: _TNode) -> None:
        node.height = 1 + max(_height(node.left), _height(node.right))

    # ------------------------------------------------------------------ #
    # counting
    #
    # The search routines below sit on every statement's path, so they
    # do not call ``count_compare()`` / ``count_traverse()`` per step:
    # each takes the index's uncounted key extractor and the traversals
    # owed per extraction (``Index.uncounted_key``), keeps its
    # comparisons and traversals in local ints, and charges them once on
    # the way out — also when a comparison raises.  The totals are the
    # ones the per-step calls produced.
    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # in-node binary search
    # ------------------------------------------------------------------ #

    def _lower_bound(
        self, node: _TNode, key: Any, key_of: Callable, owed: int
    ) -> int:
        # One traversal-equivalent per probe models the binary search's
        # arithmetic — "some time is lost in binary searching the final
        # node", which is why T-Tree search costs slightly more than AVL.
        items = node.items
        lo, hi = 0, len(items)
        probes = 0
        try:
            while lo < hi:
                mid = (lo + hi) // 2
                probes += 1
                if key_of(items[mid]) < key:
                    lo = mid + 1
                else:
                    hi = mid
        finally:
            count_compare(probes)
            count_traverse(probes * (1 + owed))
        return lo

    def _upper_bound(
        self, node: _TNode, key: Any, key_of: Callable, owed: int
    ) -> int:
        items = node.items
        lo, hi = 0, len(items)
        probes = 0
        try:
            while lo < hi:
                mid = (lo + hi) // 2
                probes += 1
                if key < key_of(items[mid]):
                    hi = mid
                else:
                    lo = mid + 1
        finally:
            count_compare(probes)
            count_traverse(probes * (1 + owed))
        return lo

    # ------------------------------------------------------------------ #
    # descent
    # ------------------------------------------------------------------ #

    def _find_bounding(
        self, key: Any, key_of: Callable, owed: int
    ) -> Tuple[Optional[_TNode], Optional[_TNode], int]:
        """Binary-tree search for the node bounding ``key``.

        Returns ``(bounding_node, last_node, direction)``: when no node
        bounds the key, ``last_node`` is "the leaf node where the search
        ended" and ``direction`` is -1 (key below its minimum) or +1 (key
        above its maximum).
        """
        node = self._root
        last, direction = None, 0
        # Every comparison extracts one key; every descent follows one
        # child pointer.
        comparisons = descents = 0
        try:
            while node is not None:
                items = node.items
                comparisons += 1
                if key < key_of(items[0]):
                    last, direction = node, -1
                    descents += 1
                    node = node.left
                    continue
                comparisons += 1
                if key > key_of(items[-1]):
                    last, direction = node, 1
                    descents += 1
                    node = node.right
                    continue
                return node, node, 0
        finally:
            count_compare(comparisons)
            count_traverse(descents + comparisons * owed)
        return None, last, direction

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def search(self, key: Any) -> Optional[Any]:
        key_of, owed = self.uncounted_key()
        bounding, __, __ = self._find_bounding(key, key_of, owed)
        if bounding is None:
            return None
        pos = self._lower_bound(bounding, key, key_of, owed)
        if pos < len(bounding.items):
            count_compare(1)
            count_traverse(owed)
            if key_of(bounding.items[pos]) == key:
                return bounding.items[pos]
        return None

    def search_all(self, key: Any) -> List[Any]:
        """All items with ``key``.

        As in the paper's Test 6 narrative: the search stops at any tuple
        with the value, then "the tree is scanned in both directions from
        that position (since the list of tuples for a given value is
        logically contiguous in the tree)".
        """
        key_of, owed = self.uncounted_key()
        located = self._locate_first(key, key_of, owed)
        if located is None:
            return []
        node, pos = located
        result = []
        comparisons = 0
        try:
            while True:
                items = node.items
                while pos < len(items):
                    comparisons += 1
                    if key_of(items[pos]) != key:
                        return result
                    result.append(items[pos])
                    pos += 1
                nxt = self._successor_node(node)
                if nxt is None:
                    return result
                node, pos = nxt, 0
        finally:
            count_compare(comparisons)
            count_traverse(comparisons * owed)

    def _locate_first(
        self, key: Any, key_of: Callable, owed: int
    ) -> Optional[Tuple[_TNode, int]]:
        """The in-order first occurrence of ``key`` as ``(node, pos)``.

        With duplicates, equal keys may spill into in-order predecessor
        nodes, so after finding a bounding match we walk backwards while
        the preceding item still carries the key.
        """
        bounding, __, __ = self._find_bounding(key, key_of, owed)
        if bounding is None:
            return None
        pos = self._lower_bound(bounding, key, key_of, owed)
        node = bounding
        comparisons = extractions = 0
        try:
            # The match test costs one comparison either way, and one
            # extraction unless the position is past the node's end.
            if pos == len(node.items):
                comparisons = 1
                return None
            extractions = 1
            differs = key_of(node.items[pos]) != key
            comparisons = 1
            if differs:
                return None
            # Walk backwards across node boundaries while predecessors
            # match.
            while pos == 0:
                prev = self._predecessor_node(node)
                if prev is None or not prev.items:
                    break
                comparisons += 1
                extractions += 1
                if key_of(prev.items[-1]) != key:
                    break
                node, pos = prev, len(prev.items) - 1
                items = node.items
                while pos > 0:
                    comparisons += 1
                    extractions += 1
                    if key_of(items[pos - 1]) != key:
                        break
                    pos -= 1
            return node, pos
        finally:
            count_compare(comparisons)
            count_traverse(extractions * owed)

    # ------------------------------------------------------------------ #
    # in-order neighbours (via parent pointers, as in Figure 4)
    # ------------------------------------------------------------------ #

    def _successor_node(self, node: _TNode) -> Optional[_TNode]:
        if node.right is not None:
            count_traverse()
            node = node.right
            while node.left is not None:
                count_traverse()
                node = node.left
            return node
        while node.parent is not None and node.parent.right is node:
            count_traverse()
            node = node.parent
        count_traverse()
        return node.parent

    def _predecessor_node(self, node: _TNode) -> Optional[_TNode]:
        if node.left is not None:
            count_traverse()
            node = node.left
            while node.right is not None:
                count_traverse()
                node = node.right
            return node
        while node.parent is not None and node.parent.left is node:
            count_traverse()
            node = node.parent
        count_traverse()
        return node.parent

    # ------------------------------------------------------------------ #
    # insert
    # ------------------------------------------------------------------ #

    def insert(self, item: Any) -> None:
        key = self._key(item)
        if self._root is None:
            self._root = self._new_node([item])
            self._count += 1
            return
        key_of, owed = self.uncounted_key()
        bounding, last, direction = self._find_bounding(key, key_of, owed)
        if bounding is not None:
            self._insert_bounding(bounding, item, key, key_of, owed)
        elif direction < 0:
            self._insert_edge(last, item, at_front=True)
        else:
            self._insert_edge(last, item, at_front=False)
        self._count += 1

    def _insert_bounding(
        self, node: _TNode, item: Any, key: Any, key_of: Callable, owed: int
    ) -> None:
        if self.unique:
            pos = self._lower_bound(node, key, key_of, owed)
            if pos < len(node.items):
                count_compare(1)
                count_traverse(owed)
                if key_of(node.items[pos]) == key:
                    raise DuplicateKeyError(f"ttree: duplicate key {key!r}")
        else:
            pos = self._upper_bound(node, key, key_of, owed)
        if len(node.items) < self.max_count:
            count_move(len(node.items) - pos + 1)
            node.items.insert(pos, item)
            return
        if self.spill == "min":
            # Overflow: transfer the minimum element to a leaf, where it
            # becomes the new greatest lower bound (footnote 5).  Items
            # below the insert position slide left one slot.
            minimum = node.items.pop(0)
            count_move(pos)
            node.items.insert(pos - 1, item)
            self._push_down_glb(node, minimum)
        else:
            # Ablation variant: transfer the maximum to the successor
            # leaf instead.  Items at/after the insert position slide
            # right one slot.
            maximum = node.items.pop()
            count_move(len(node.items) - pos + 1)
            node.items.insert(pos, item)
            self._push_down_lub(node, maximum)

    def _push_down_glb(self, node: _TNode, value: Any) -> None:
        """Store ``value`` as the new GLB of ``node`` (predecessor leaf).

        Appending at the predecessor's tail is free of slides — the
        footnote-5 advantage of spilling the minimum.
        """
        if node.left is None:
            leaf = self._new_node([value])
            count_move(1)
            node.left = leaf
            leaf.parent = node
            self._rebalance_from(node)
            return
        glb = node.left
        count_traverse()
        while glb.right is not None:
            count_traverse()
            glb = glb.right
        if len(glb.items) < self.max_count:
            count_move(1)
            glb.items.append(value)
            return
        leaf = self._new_node([value])
        count_move(1)
        glb.right = leaf
        leaf.parent = glb
        self._rebalance_from(glb)

    def _push_down_lub(self, node: _TNode, value: Any) -> None:
        """Store ``value`` as the new LUB of ``node`` (successor leaf).

        Prepending at the successor's head slides its whole occupancy —
        the extra data movement footnote 5 warns about.
        """
        if node.right is None:
            leaf = self._new_node([value])
            count_move(1)
            node.right = leaf
            leaf.parent = node
            self._rebalance_from(node)
            return
        lub = node.right
        count_traverse()
        while lub.left is not None:
            count_traverse()
            lub = lub.left
        if len(lub.items) < self.max_count:
            count_move(len(lub.items) + 1)
            lub.items.insert(0, value)
            return
        leaf = self._new_node([value])
        count_move(1)
        lub.left = leaf
        leaf.parent = lub
        self._rebalance_from(lub)

    def _insert_edge(self, node: _TNode, item: Any, at_front: bool) -> None:
        """Insert below/above all keys of the node where the search ended."""
        if len(node.items) < self.max_count:
            if at_front:
                count_move(len(node.items) + 1)
                node.items.insert(0, item)
            else:
                count_move(1)
                node.items.append(item)
            return
        leaf = self._new_node([item])
        count_move(1)
        if at_front:
            node.left = leaf
        else:
            node.right = leaf
        leaf.parent = node
        self._rebalance_from(node)

    # ------------------------------------------------------------------ #
    # delete
    # ------------------------------------------------------------------ #

    def delete(self, item: Any) -> None:
        key = self._key(item)
        located = self._locate_item(key, item)
        if located is None:
            raise self._missing(key)
        node, pos = located
        count_move(len(node.items) - pos)
        del node.items[pos]
        self._count -= 1
        self._fix_after_delete(node)

    def _locate_item(self, key: Any, item: Any) -> Optional[Tuple[_TNode, int]]:
        located = self._locate_first(key, *self.uncounted_key())
        if located is None:
            return None
        node, pos = located
        if self.unique:
            return node, pos
        # Scan the logically contiguous run of equal keys for the pointer.
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

    def _fix_after_delete(self, node: _TNode) -> None:
        if node.is_internal:
            if len(node.items) < self.min_count:
                self._borrow_glb(node)
            return
        if node.items:
            return  # leaves and half-leaves may underflow, down to zero
        # An empty leaf is deleted; an empty half-leaf splices its child up.
        child = node.left if node.left is not None else node.right
        parent = node.parent
        self._replace_child(parent, node, child)
        self._node_count -= 1
        start = child if child is not None else parent
        if start is not None:
            self._rebalance_from(start)
        elif parent is not None:
            self._rebalance_from(parent)

    def _borrow_glb(self, node: _TNode) -> None:
        """Refill an underflowing internal node from its GLB leaf.

        "The greatest lower bound for this node is borrowed from a leaf.
        If this causes a leaf node to become empty, the leaf node is
        deleted and the tree is rebalanced."
        """
        self._repair_occupancy(node)

    # ------------------------------------------------------------------ #
    # rebalancing (AVL rotations + T-Tree occupancy repair)
    # ------------------------------------------------------------------ #

    def _rebalance_from(self, node: Optional[_TNode]) -> None:
        while node is not None:
            self._update_height(node)
            balance = _balance(node)
            if balance > 1:
                if _balance(node.left) < 0:
                    self._rotate_left(node.left)
                node = self._rotate_right(node)
            elif balance < -1:
                if _balance(node.right) > 0:
                    self._rotate_right(node.right)
                node = self._rotate_left(node)
            node = node.parent

    def _rotate_right(self, a: _TNode) -> _TNode:
        self.rotation_count += 1
        b = a.left
        count_move(2)
        a.left = b.right
        if b.right is not None:
            b.right.parent = a
        self._replace_child(a.parent, a, b)
        b.right = a
        a.parent = b
        self._update_height(a)
        self._update_height(b)
        self._repair_occupancy(a)
        self._repair_occupancy(b)
        return b

    def _rotate_left(self, a: _TNode) -> _TNode:
        self.rotation_count += 1
        b = a.right
        count_move(2)
        a.right = b.left
        if b.left is not None:
            b.left.parent = a
        self._replace_child(a.parent, a, b)
        b.left = a
        a.parent = b
        self._update_height(a)
        self._update_height(b)
        self._repair_occupancy(a)
        self._repair_occupancy(b)
        return b

    def _repair_occupancy(self, node: _TNode) -> None:
        """Refill an underfull internal node from its bounding neighbour.

        Under the paper's policy the donor is the greatest-lower-bound
        node (rightmost of the left subtree): its maximum pops off the
        tail for free and becomes the node's new minimum.  The "max"
        ablation borrows the least upper bound instead, paying a slide of
        the donor's head.  A donor drained empty is unlinked, exactly
        like an emptied leaf after a delete.  This routine also repairs
        the LR/RL rotation special case (a sparse node rotated into an
        internal position).
        """
        while node.is_internal and len(node.items) < self.min_count:
            if self.spill == "min":
                donor = node.left
                count_traverse()
                while donor.right is not None:
                    count_traverse()
                    donor = donor.right
            else:
                donor = node.right
                count_traverse()
                while donor.left is not None:
                    count_traverse()
                    donor = donor.left
            if not donor.items:
                self._fix_after_delete(donor)
                continue
            if self.spill == "min":
                count_move(len(node.items) + 1)
                node.items.insert(0, donor.items.pop())
            else:
                count_move(len(donor.items) + 1)
                node.items.append(donor.items.pop(0))
            if not donor.items:
                self._fix_after_delete(donor)

    # ------------------------------------------------------------------ #
    # scans
    # ------------------------------------------------------------------ #

    def scan(self) -> Iterator[Any]:
        node = self._min_node()
        while node is not None:
            for item in node.items:
                yield item
            node = self._successor_node(node)

    def scan_reverse(self) -> Iterator[Any]:
        """Descending scan — "be scanned in either direction" (§2.2)."""
        node = self._max_node()
        while node is not None:
            for item in reversed(node.items):
                yield item
            node = self._predecessor_node(node)

    def scan_from(self, key: Any) -> Iterator[Any]:
        node = self._root
        start: Optional[Tuple[_TNode, int]] = None
        while node is not None:
            count_compare()
            if key < self._key(node.items[0]):
                start = (node, 0)
                count_traverse()
                node = node.left
                continue
            count_compare()
            if key > self._key(node.items[-1]):
                count_traverse()
                node = node.right
                continue
            start = (
                node, self._lower_bound(node, key, *self.uncounted_key())
            )
            break
        if start is None:
            return
        node, pos = start
        # Duplicates of ``key`` may extend into in-order predecessor
        # nodes (they are only *logically* contiguous); rewind to the
        # first occurrence so the scan misses none of them.
        if pos < len(node.items):
            count_compare()
            if self._key(node.items[pos]) == key:
                located = self._locate_first(key, *self.uncounted_key())
                if located is not None:
                    node, pos = located
        while node is not None:
            for item in node.items[pos:]:
                yield item
            pos = 0
            node = self._successor_node(node)

    def _min_node(self) -> Optional[_TNode]:
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            count_traverse()
            node = node.left
        return node

    def _max_node(self) -> Optional[_TNode]:
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            count_traverse()
            node = node.right
        return node

    def min_item(self) -> Optional[Any]:
        node = self._min_node()
        return node.items[0] if node is not None and node.items else None

    def max_item(self) -> Optional[Any]:
        node = self._max_node()
        return node.items[-1] if node is not None and node.items else None

    # ------------------------------------------------------------------ #
    # storage / invariants
    # ------------------------------------------------------------------ #

    def storage_bytes(self) -> int:
        # Per Figure 4: item slots (fixed array of max_count), parent +
        # left + right pointers, and control information.
        per_node = (
            self.max_count * POINTER_BYTES + 3 * POINTER_BYTES + CONTROL_BYTES
        )
        return self._node_count * per_node

    @property
    def node_count(self) -> int:
        """Number of T-nodes currently allocated."""
        return self._node_count

    def height(self) -> int:
        """Tree height in nodes (0 when empty)."""
        return _height(self._root)

    def check_invariants(self) -> None:
        """Assert T-Tree structural invariants; raises AssertionError.

        Checks: AVL balance, stored heights, parent pointers, in-order key
        ordering, internal-node occupancy in [min_count, max_count], and
        leaf/half-leaf occupancy in (0, max_count] (zero only transiently).
        """
        items_seen: List[Any] = []

        def visit(node: Optional[_TNode], parent: Optional[_TNode]) -> int:
            if node is None:
                return 0
            assert node.parent is parent, "broken parent pointer"
            assert node.items, "empty node left in tree"
            assert len(node.items) <= self.max_count, "overfull node"
            keys = [self._key(i) for i in node.items]
            assert keys == sorted(keys), "node items out of order"
            if node.is_internal:
                assert len(node.items) >= self.min_count, (
                    f"internal node underfull: {len(node.items)} < "
                    f"{self.min_count}"
                )
            left = visit(node.left, node)
            items_seen.extend(self._key(i) for i in node.items)
            right = visit(node.right, node)
            assert abs(left - right) <= 1, "tree out of balance"
            assert node.height == 1 + max(left, right), "stale height"
            return 1 + max(left, right)

        visit(self._root, None)
        assert items_seen == sorted(items_seen), "in-order keys unsorted"
        assert len(items_seen) == self._count, (
            f"count mismatch: {len(items_seen)} vs {self._count}"
        )
