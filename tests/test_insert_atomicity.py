"""A multi-row ``INSERT ... VALUES`` is all or nothing.

When one row of the statement fails (a duplicate key, a missing
foreign-key target), the rows the statement already inserted are
deleted again, newest first, and the error re-raised.  Both SQL paths
share the one ``insert_rows`` helper: the lowered template operation
``db.sql()`` runs, and the interpreter's bound-statement path.  The
deletes are logged like the inserts, so a crash after the failed
statement recovers the pre-statement table too.
"""

import pytest

from repro import MainMemoryDatabase
from repro.errors import DuplicateKeyError
from repro.instrument import counters_scope
from repro.sql.parser import parse_statement

ROWS = [(i, 10 * i) for i in range(1, 6)]
FAILING = "INSERT INTO T VALUES (9, 1), (2, 2)"
#: The Section 3.1 operation counters.
FIVE = ("comparisons", "moves", "hashes", "traversals", "allocations")


def _build(durable=False, engine="tuple"):
    db = MainMemoryDatabase(durable=durable)
    db.configure_execution(engine=engine)
    db.sql("CREATE TABLE T (Id INT, V INT, PRIMARY KEY (Id))")
    db.sql("CREATE INDEX TV ON T (V) USING ttree")
    for key, value in ROWS:
        db.sql(f"INSERT INTO T VALUES ({key}, {value})")
    return db


def _table(db):
    return sorted(
        (row["Id"], row["V"])
        for row in db.sql("SELECT * FROM T WHERE Id > 0").to_dicts()
    )


def _assert_intact(db):
    assert _table(db) == ROWS
    for index in db.relation("T").indexes.values():
        assert len(index) == len(ROWS), index
    assert len(db.sql("SELECT * FROM T WHERE Id = 9")) == 0


@pytest.mark.parametrize("engine", ["tuple", "batch"])
def test_failed_row_takes_back_the_earlier_rows(engine):
    db = _build(engine=engine)
    with pytest.raises(DuplicateKeyError):
        db.sql(FAILING)
    _assert_intact(db)
    # The key the rolled-back row held is free again.
    assert len(db.sql("INSERT INTO T VALUES (9, 90), (6, 60)")) == 2
    assert _table(db) == ROWS + [(6, 60), (9, 90)]


@pytest.mark.parametrize("engine", ["tuple", "batch"])
def test_statement_path_is_all_or_nothing(engine):
    db = _build(engine=engine)
    with pytest.raises(DuplicateKeyError):
        db._sql_interpreter.run_statement(parse_statement(FAILING))
    _assert_intact(db)


def test_rows_are_taken_back_newest_first():
    db = _build()
    with pytest.raises(DuplicateKeyError):
        db.sql("INSERT INTO T VALUES (7, 70), (8, 80), (3, 3)")
    _assert_intact(db)


@pytest.mark.parametrize("engine", ["tuple", "batch"])
def test_failed_insert_survives_crash_and_recover(engine):
    db = _build(durable=True, engine=engine)
    db.checkpoint()
    with pytest.raises(DuplicateKeyError):
        db.sql(FAILING)
    db.crash()
    db.recover()
    _assert_intact(db)


def test_single_row_insert_charges_one_db_insert():
    by_sql = _build()
    by_call = _build()
    with counters_scope() as sql_counts:
        by_sql.sql("INSERT INTO T VALUES (6, 60)")
    with counters_scope() as call_counts:
        by_call.insert("T", [6, 60])
    for name in FIVE:
        assert getattr(sql_counts, name) == getattr(call_counts, name), name
    assert _table(by_sql) == _table(by_call)
