"""Compiled predicates read each field once per item per batch.

``compile_predicate`` lowers AND/OR/BETWEEN trees to cascades over item
positions.  Against ``Predicate.matches`` over counted extractors (the
tuple engine's per-item path) the mask and all five counters must be
equal, in scan context (items are tuple pointers, no traversal charged)
and in filter context (items are pointer rows, one traversal per
evaluated comparison).  Physically, each (item, field) pair the
per-item path reads is read exactly once, and no other pair is read —
so a short-circuited part never reaches a pointer it would fail on.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import ShardUnavailableError
from repro.instrument import counters_scope
from repro.query.executor import Executor, filter_column_resolver
from repro.query.plan import JoinNode, ScanNode
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Op,
    between,
    eq,
    ge,
)
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.deref import RowFieldAccess, ScanFieldAccess

COUNTERS = ("comparisons", "traversals", "moves", "hashes", "allocations")
VALUES = 6


def _database() -> MainMemoryDatabase:
    rng = random.Random(8125)
    database = MainMemoryDatabase()
    database.create_relation(
        "R",
        [
            Field("Id", FieldType.INT),
            Field("A", FieldType.INT),
            Field("B", FieldType.INT),
        ],
        primary_key="Id",
    )
    database.create_relation(
        "S",
        [
            Field("Id", FieldType.INT),
            Field("A", FieldType.INT),
            Field("C", FieldType.INT),
        ],
        primary_key="Id",
    )
    for i in range(120):
        database.insert("R", [i, rng.randrange(VALUES), rng.randrange(VALUES)])
    for i in range(60):
        database.insert("S", [i, rng.randrange(VALUES), rng.randrange(VALUES)])
    return database


DB = _database()
RELATION = DB.catalog.relation("R")
REFS = list(RELATION.any_index().scan())
JOINED = Executor(DB.catalog).execute(
    JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")
)

_OPS = [Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]


def _predicates(fields):
    value = st.integers(-1, VALUES)
    leaf = st.one_of(
        st.builds(Comparison, st.sampled_from(fields), st.sampled_from(_OPS),
                  value),
        st.builds(
            lambda f, lo, width: between(f, lo, lo + width),
            st.sampled_from(fields), value, st.integers(0, 3),
        ),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                lambda parts: Conjunction(tuple(parts))
            ),
            st.lists(children, min_size=1, max_size=3).map(
                lambda parts: Disjunction(tuple(parts))
            ),
        ),
        max_leaves=8,
    )


def _counts(counters):
    snap = counters.snapshot()
    return tuple(getattr(snap, name) for name in COUNTERS)


class _LoggingAccess:
    """An access whose column reads are logged as (item, field) pairs."""

    def __init__(self, access, log):
        self._access = access
        self._log = log
        self.counts_traversals = access.counts_traversals
        self.reader = access.reader

    def extractor(self, field_name):
        read = self._access.extractor(field_name)
        log = self._log

        def column(items):
            log.extend((item, field_name) for item in items)
            return read.column(items)

        def extract(item):
            log.append((item, field_name))
            return read(item)

        extract.column = column
        return extract


def _check(predicate, access, items, reference_read):
    """Mask, counters and physical reads against the per-item path."""
    expected_log = []

    def reader_for(item):
        def read(field_name):
            expected_log.append((item, field_name))
            return reference_read(item, field_name)

        return read

    with counters_scope() as expected_counts:
        expected = [predicate.matches(reader_for(item)) for item in items]
    log = []
    mask = compile_predicate(predicate, _LoggingAccess(access, log))
    with counters_scope() as counts:
        flags = mask(items)
    assert flags == expected
    assert _counts(counts) == _counts(expected_counts)
    reads = Counter(log)
    assert max(reads.values(), default=1) == 1
    assert set(reads) == set(expected_log)


@settings(max_examples=120, deadline=None)
@given(_predicates(("A", "B")))
def test_scan_context_matches_per_item_path(predicate):
    _check(
        predicate,
        ScanFieldAccess(RELATION),
        REFS,
        lambda ref, field_name: RELATION.read_field(ref, field_name),
    )


@settings(max_examples=120, deadline=None)
@given(_predicates(("B", "C", "R.A", "S.Id")))
def test_filter_context_matches_per_item_path(predicate):
    descriptor = JOINED.descriptor
    resolve = filter_column_resolver(descriptor)
    extractors = {
        name: JOINED.value_extractor(name) for name in descriptor.column_names
    }
    _check(
        predicate,
        RowFieldAccess(descriptor, resolve),
        JOINED.rows(),
        lambda row, field_name: extractors[resolve(field_name)](row),
    )


def test_reader_column_reads_each_item_once(monkeypatch):
    """A field named by four comparisons is read once per item."""
    read = RELATION.reader("A")
    calls = []
    column = read.column

    def logged(refs):
        calls.append(list(refs))
        return column(refs)

    monkeypatch.setattr(read, "column", logged)
    predicate = (ge("A", 1) & between("A", 0, 4)) | eq("A", 0) | eq("A", 5)
    mask = compile_predicate(predicate, ScanFieldAccess(RELATION))
    flags = mask(REFS)
    assert flags == [
        predicate.matches(lambda f, r=ref: RELATION.read_field(r, f))
        for ref in REFS
    ]
    per_ref = Counter(ref for batch in calls for ref in batch)
    assert set(per_ref) == set(REFS)
    assert set(per_ref.values()) == {1}


def _quarantined_join():
    database = _database()
    joined = Executor(database.catalog).execute(
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")
    )
    s_rel = database.catalog.relation("S")
    lost = joined.rows()[0][1] >> 32
    s_rel._partitions.pop(lost)
    s_rel.mark_quarantined(lost, "checksum mismatch")
    descriptor = joined.descriptor
    access = RowFieldAccess(descriptor, filter_column_resolver(descriptor))
    return joined.rows(), access


def test_or_short_circuit_skips_quarantined_source():
    rows, access = _quarantined_join()
    # The first disjunct holds for every row: S.C is never read.
    mask = compile_predicate(ge("R.Id", 0) | eq("C", 1), access)
    assert mask(rows) == [True] * len(rows)
    # Control: when the first disjunct fails, S.C is read and raises.
    mask = compile_predicate(eq("R.Id", -1) | eq("C", 1), access)
    with pytest.raises(ShardUnavailableError):
        mask(rows)
