"""Direct unit coverage for :mod:`repro.query.parallel.transport`.

The packed wire (one ``(row_width, int64 bytes)`` value per morsel,
DESIGN.md section 3.16) round-trips bit-exactly and never rebuilds a
``TupleRef``; plus the edge cases otherwise exercised only indirectly
through the parallel engine: degenerate morsel bounds, deep predicate
trees on the plain-predicate gate, and the catalog-identity check in
``describable()`` — which must reject a descriptor whose source merely
*shares a name* with a catalog relation without being the same object
(a forked worker would silently resolve the name to different data).
"""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Field, FieldType, MainMemoryDatabase
from repro.instrument import counters_scope
from repro.query.parallel import ParallelBatchExecutor, fork_available
from repro.query.parallel.transport import (
    decode_refs,
    decode_rows,
    describable,
    describe,
    encode_refs,
    encode_rows,
    morsel_bounds,
    packed_len,
    plain_predicate,
    rebuild,
    slice_packed,
)
from repro.query.plan import JoinNode, ScanNode
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Predicate,
    between,
    eq,
    gt,
    lt,
)
from repro.storage.temporary import ResultDescriptor
from repro.storage.tuples import TupleRef

# --------------------------------------------------------------------- #
# the packed wire
# --------------------------------------------------------------------- #

INT64 = st.integers(-(2**63), 2**63 - 1)


def rows_of_width(width):
    return st.lists(st.tuples(*[INT64] * width), max_size=40)


class TestPackedWire:
    @given(st.integers(1, 5).flatmap(rows_of_width))
    def test_rows_round_trip(self, rows):
        packed = encode_rows(rows)
        assert decode_rows(packed) == rows
        assert packed_len(packed) == len(rows)
        if rows:
            width, data = packed
            assert width == len(rows[0])
            assert len(data) == 8 * width * len(rows)

    @given(st.lists(INT64, max_size=60))
    def test_refs_round_trip(self, refs):
        packed = encode_refs(refs)
        assert decode_refs(packed) == refs
        # A ref morsel is a width-1 row morsel: one layout.
        assert packed == encode_rows([(ref,) for ref in refs]) or not refs
        assert decode_rows(packed) == [(ref,) for ref in refs]

    @given(
        st.integers(1, 5).flatmap(rows_of_width),
        st.integers(0, 40),
        st.integers(0, 40),
    )
    def test_slices_are_row_windows(self, rows, start, stop):
        window = slice_packed(encode_rows(rows), start, stop)
        assert decode_rows(window) == rows[start:stop]

    def test_empty_morsel(self):
        assert encode_rows([]) == (0, b"")
        assert decode_rows(encode_rows([])) == []
        assert packed_len(encode_rows([])) == 0
        assert decode_refs(encode_refs([])) == []

    def test_int64_extremes_and_pointer_corners(self):
        rows = [
            (2**63 - 1, -(2**63)),
            (TupleRef(2**31 - 1, 2**32 - 1), TupleRef(0, 0)),
        ]
        assert decode_rows(encode_rows(rows)) == rows
        with pytest.raises(OverflowError):
            encode_rows([(2**63,)])

    def test_layout_is_native_int64_row_major(self):
        rows = [(1, 2), (3, 4)]
        assert encode_rows(rows) == (2, array("q", [1, 2, 3, 4]).tobytes())

    def test_decoded_pointers_are_plain_ints(self):
        rows = [(TupleRef(1, 2), TupleRef(3, 4))]
        ((left, right),) = decode_rows(encode_rows(rows))
        assert type(left) is int and type(right) is int
        assert (left, right) == rows[0]
        assert type(decode_refs(encode_refs([TupleRef(5, 6)]))[0]) is int


# --------------------------------------------------------------------- #
# morsel_bounds
# --------------------------------------------------------------------- #


class TestMorselBounds:
    def test_zero_total_yields_no_morsels(self):
        assert morsel_bounds(0, 128) == []

    def test_morsel_size_larger_than_total_is_one_morsel(self):
        assert morsel_bounds(57, 4096) == [(0, 57)]

    def test_exact_multiple_splits_cleanly(self):
        assert morsel_bounds(256, 128) == [(0, 128), (128, 256)]

    def test_remainder_gets_a_short_tail_morsel(self):
        assert morsel_bounds(300, 128) == [(0, 128), (128, 256), (256, 300)]

    def test_bounds_cover_every_index_exactly_once(self):
        bounds = morsel_bounds(1000, 77)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(1000))


# --------------------------------------------------------------------- #
# plain_predicate
# --------------------------------------------------------------------- #


class _Opaque(Predicate):
    """A user-defined predicate: must never cross the fork boundary."""

    def matches(self, read_field) -> bool:  # pragma: no cover - unused
        return True


class TestPlainPredicate:
    def test_none_is_plain(self):
        assert plain_predicate(None)

    def test_simple_comparison_is_plain(self):
        assert plain_predicate(eq("A", 3))
        assert plain_predicate(between("A", 1, 9))

    def test_nested_conjunction_disjunction_tree_is_plain(self):
        tree = (gt("A", 1) & lt("A", 50)) | (
            eq("B", 7) & (between("A", 2, 4) | eq("B", 0))
        )
        assert type(tree) is Disjunction
        assert plain_predicate(tree)

    def test_deeply_nested_tree_with_opaque_leaf_is_rejected(self):
        # The poison leaf hides three levels down; the recursive walk
        # must still find it.
        tree = Conjunction(
            (
                gt("A", 1),
                Disjunction((lt("A", 9), Conjunction((_Opaque(),)))),
            )
        )
        assert not plain_predicate(tree)

    def test_opaque_root_is_rejected(self):
        assert not plain_predicate(_Opaque())

    def test_comparison_with_unpicklable_value_is_rejected(self):
        assert not plain_predicate(Comparison("A", eq("x", 1).op, object()))

    def test_subclass_of_comparison_is_rejected(self):
        # ``type() is`` on purpose: a Comparison subclass may override
        # ``matches`` with captured state the worker cannot rebuild.
        class Sneaky(Comparison):
            pass

        assert not plain_predicate(Sneaky("A", eq("x", 1).op, 3))


# --------------------------------------------------------------------- #
# describable / describe / rebuild
# --------------------------------------------------------------------- #


def _db_with_r():
    db = MainMemoryDatabase()
    db.create_relation(
        "R",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    db.insert("R", [1, 10])
    return db


class TestDescribable:
    def test_own_relation_round_trips(self):
        db = _db_with_r()
        relation = db.catalog.relation("R")
        descriptor = ResultDescriptor.whole_relation(relation)
        assert describable(db.catalog, descriptor)
        rebuilt = rebuild(db.catalog, describe(descriptor))
        assert rebuilt.sources[0] is relation
        assert [c.label for c in rebuilt.columns] == [
            c.label for c in descriptor.columns
        ]

    def test_same_name_different_object_is_rejected(self):
        # Two catalogs, each with a relation named "R": a descriptor
        # built against one must not be shippable through the other —
        # same name, different object, potentially different rows.
        db_a = _db_with_r()
        db_b = _db_with_r()
        foreign = ResultDescriptor.whole_relation(db_b.catalog.relation("R"))
        assert not describable(db_a.catalog, foreign)

    def test_unregistered_name_is_rejected(self):
        db = _db_with_r()
        other = MainMemoryDatabase()
        other.create_relation(
            "Elsewhere",
            [Field("Id", FieldType.INT)],
            primary_key="Id",
        )
        descriptor = ResultDescriptor.whole_relation(
            other.catalog.relation("Elsewhere")
        )
        assert not describable(db.catalog, descriptor)

    def test_any_foreign_source_taints_the_descriptor(self):
        # Mixed sources: one legitimate, one foreign — still rejected.
        db_a = _db_with_r()
        db_b = _db_with_r()
        from repro.storage.temporary import ResultColumn

        own = db_a.catalog.relation("R")
        foreign = db_b.catalog.relation("R")
        mixed = ResultDescriptor(
            [own, foreign],
            [
                ResultColumn(0, "Id", "left.Id"),
                ResultColumn(1, "Id", "right.Id"),
            ],
        )
        assert not describable(db_a.catalog, mixed)


# --------------------------------------------------------------------- #
# the coordinator rebuilds no pointers
# --------------------------------------------------------------------- #


def _db_with_r_and_s(n_r=600, n_s=200):
    db = MainMemoryDatabase()
    for name in ("R", "S"):
        db.create_relation(
            name,
            [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
            primary_key="Id",
        )
    for i in range(n_r):
        db.insert("R", [i, i % 37])
    for i in range(n_s):
        db.insert("S", [i, i % 37])
    return db


@pytest.fixture()
def pointer_births(monkeypatch):
    """Counts ``TupleRef.__new__`` calls in this process."""
    births = []
    original = TupleRef.__new__

    def counting(cls, partition_id, slot):
        births.append((partition_id, slot))
        return original(cls, partition_id, slot)

    monkeypatch.setattr(TupleRef, "__new__", counting)
    return births


@pytest.mark.parametrize(
    "pool",
    [
        "inline",
        pytest.param(
            "process",
            marks=pytest.mark.skipif(
                not fork_available(), reason="no fork on this platform"
            ),
        ),
    ],
)
@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_parallel_join_and_scan_construct_no_tuplerefs(
    pointer_births, pool, transport
):
    """Regression guard for the wire: a parallel scan and a parallel
    hash join move pointers as packed words and hand back plain-int
    rows — not one ``TupleRef`` is constructed on the coordinator (with
    the inline pool, nor in the "workers")."""
    db = _db_with_r_and_s()
    executor = ParallelBatchExecutor(
        db.catalog, workers=2, morsel_size=64, pool=pool,
        transport=transport, shm_threshold_rows=32,
    )
    try:
        del pointer_births[:]
        with counters_scope():
            scanned = executor.execute(ScanNode("R", gt("A", 5))).rows()
            joined = executor.execute(
                JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")
            ).rows()
        assert executor.scheduler.stats["morsels"] > 4
        assert scanned and joined
        assert pointer_births == []
        # The rows are still pointers: any int carrying the word is one.
        relation = db.catalog.relation("R")
        assert all(relation.read_field(row[0], "A") > 5 for row in scanned)
    finally:
        executor.close()
