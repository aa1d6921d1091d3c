"""A failed ``UPDATE`` leaves the relation as it was.

``Relation.update`` takes the tuple out of every index on the changed
field, writes the new value, and re-inserts it.  When a unique index
refuses the new key, the old value goes back and every index entry with
it; the update log record is written only once the re-index has
succeeded, so a crash after the failed statement recovers the
pre-statement table too.
"""

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import DuplicateKeyError
from repro.storage.partition import PartitionConfig

ROWS = [(i, 10 * i) for i in range(1, 6)]


def _build(durable=False, engine=None):
    db = MainMemoryDatabase(durable=durable)
    if engine is not None:
        db.configure_execution(engine=engine)
    db.sql("CREATE TABLE T (Id INT, V INT, PRIMARY KEY (Id))")
    db.sql("CREATE INDEX TV ON T (V) USING ttree")
    for key, value in ROWS:
        db.sql(f"INSERT INTO T VALUES ({key}, {value})")
    return db


def _table(db):
    return sorted(
        (row["Id"], row["V"])
        for row in db.sql("SELECT * FROM T WHERE V > 0").to_dicts()
    )


def _assert_intact(db):
    relation = db.relation("T")
    assert _table(db) == ROWS
    assert len(db.sql("SELECT * FROM T WHERE Id > 0")) == len(ROWS)
    for index in relation.indexes.values():
        assert len(index) == len(ROWS), index
    for key, __ in ROWS:
        assert len(db.sql(f"SELECT * FROM T WHERE Id = {key}")) == 1


@pytest.mark.parametrize("engine", ["tuple", "batch"])
def test_failed_update_restores_key_and_indexes(engine):
    db = _build(engine=engine)
    with pytest.raises(DuplicateKeyError):
        db.sql("UPDATE T SET Id = 3 WHERE Id < 3")
    _assert_intact(db)
    # The relation stays writable: a legal update still lands.
    assert db.sql("UPDATE T SET Id = 9 WHERE Id = 1") == 1
    assert len(db.sql("SELECT * FROM T WHERE Id = 9")) == 1


def test_failed_update_inside_a_transaction_aborts_cleanly():
    db = _build()
    refs = [
        row[0] for row in db.select("T") if db.fetch("T", row[0])["Id"] < 3
    ]
    txn = db.begin()
    for ref in refs:
        db.update("T", ref, "Id", 3, txn=txn)
    with pytest.raises(DuplicateKeyError):
        txn.commit()
    _assert_intact(db)


def test_failed_update_is_not_logged():
    db = _build(durable=True)
    db.checkpoint()
    before = _table(db)
    with pytest.raises(DuplicateKeyError):
        db.sql("UPDATE T SET Id = 3 WHERE Id < 3")
    db.crash()
    db.recover()
    assert _table(db) == before
    _assert_intact(db)


def _tight_heap_db(durable):
    # A heap too small for the longer key: updating "aa" to it overflows
    # and relocates the tuple before the primary key refuses the value.
    db = MainMemoryDatabase(durable=durable)
    db.create_relation(
        "S",
        [Field("Name", FieldType.STR), Field("V", FieldType.INT)],
        primary_key="Name",
        partition_config=PartitionConfig(slot_capacity=4, heap_capacity=16),
    )
    db.create_index("S", "SV", "V")
    db.insert("S", ["aa", 1])
    db.insert("S", ["b" * 12, 2])
    return db


def _names(db):
    return sorted((row["Name"], row["V"]) for row in db.select("S").to_dicts())


@pytest.mark.parametrize("durable", [False, True])
def test_failed_update_after_relocation_restores_everything(durable):
    db = _tight_heap_db(durable)
    if durable:
        db.checkpoint()
    relation = db.relation("S")
    before = _names(db)
    (ref,) = [
        row[0]
        for row in db.select("S")
        if db.fetch("S", row[0])["Name"] == "aa"
    ]
    with pytest.raises(DuplicateKeyError):
        db.update("S", ref, "Name", "b" * 12)
    # The tuple moved partitions on the way; every index followed it.
    assert relation.resolve(ref) != ref
    assert _names(db) == before
    for index in relation.indexes.values():
        assert len(index) == 2, index
        assert relation.resolve(ref) in list(index.scan())
    assert db.fetch("S", ref)["Name"] == "aa"
    if durable:
        db.crash()
        db.recover()
        assert _names(db) == before
