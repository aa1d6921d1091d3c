"""SQL ``DISTINCT`` runs the active engine's duplicate elimination.

``MainMemoryDatabase.project`` and plan projections both call the
engine's ``dedup_rows``: the tuple engine runs the paper's
``project_hash`` (its counts are pinned below), the batch engines run
the dict kernel, which keeps the same rows in the same first-occurrence
order at elementwise lower-or-equal counts.
"""

from __future__ import annotations

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.instrument import counters_scope

COUNTERS = ("comparisons", "traversals", "moves", "hashes", "allocations")

STATEMENTS = [
    "SELECT DISTINCT Qty FROM Orders WHERE Price >= 250",
    "SELECT DISTINCT Qty, Note FROM Orders",
    "SELECT DISTINCT * FROM Orders WHERE Qty = 3",
    "SELECT DISTINCT Price FROM Orders WHERE Qty < 5 ORDER BY Price",
    "SELECT DISTINCT Orders.Qty, Parts.Kind FROM Orders "
    "JOIN Parts ON Orders.Qty = Parts.Qty",
]

#: The tuple engine's counts (comparisons, traversals, moves, hashes,
#: allocations) for statements whose keys are integers (a string key's
#: hash, and so the bucket-chain walk, differs per process).
TUPLE_COUNTS = {
    STATEMENTS[0]: (4464, 4615, 36, 1500, 37),
    STATEMENTS[3]: (5724, 3039, 2964, 408, 191),
}

ENGINES = [
    {"engine": "batch"},
    {"engine": "batch", "workers": 2, "pool": "inline", "morsel_size": 256},
]


@pytest.fixture(scope="module")
def db():
    database = MainMemoryDatabase()
    database.create_relation(
        "Orders",
        [
            Field("Id", FieldType.INT),
            Field("Qty", FieldType.INT),
            Field("Price", FieldType.INT),
            Field("Note", FieldType.STR),
        ],
        primary_key="Id",
    )
    database.create_relation(
        "Parts",
        [Field("Id", FieldType.INT), Field("Qty", FieldType.INT),
         Field("Kind", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(3000):
        database.insert(
            "Orders", [i, i % 37, (i * 7919) % 500, f"n{i % 11}"]
        )
    for i in range(90):
        database.insert("Parts", [i, i % 45, i % 4])
    yield database
    database.configure_execution()


def _run(database, statement, **config):
    database.configure_execution(**config)
    with counters_scope() as counters:
        result = database.sql(statement)
    snap = counters.snapshot()
    return result.rows(), tuple(getattr(snap, name) for name in COUNTERS)


@pytest.mark.parametrize("statement", list(TUPLE_COUNTS))
def test_tuple_engine_counts_are_pinned(db, statement):
    __, counts = _run(db, statement, engine="tuple")
    assert counts == TUPLE_COUNTS[statement]


@pytest.mark.parametrize("config", ENGINES, ids=["batch", "parallel"])
@pytest.mark.parametrize("statement", STATEMENTS)
def test_batch_distinct_matches_tuple_rows_at_lower_counts(
    db, statement, config
):
    tuple_rows, tuple_counts = _run(db, statement, engine="tuple")
    rows, counts = _run(db, statement, **config)
    assert rows == tuple_rows
    assert len(set(rows)) == len(rows)
    assert all(mine <= theirs for mine, theirs in zip(counts, tuple_counts))


def test_batch_distinct_skips_the_bucket_chains(db):
    """The kernel charges one hash per row and one allocation, no chain
    walk: fewer comparisons, traversals and allocations."""
    statement = STATEMENTS[0]
    __, tuple_counts = _run(db, statement, engine="tuple")
    __, counts = _run(db, statement, engine="batch")
    comparisons, traversals, moves, hashes, allocations = counts
    assert comparisons < tuple_counts[0]
    assert traversals < tuple_counts[1]
    assert (moves, hashes) == tuple_counts[2:4]
    assert allocations == 1
