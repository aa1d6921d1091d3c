"""Online partition repair: a quarantined partition heals from the replica.

A stored partition image is damaged on the simulated disk, the database
crashes, and ``recover(partial=True)`` quarantines the partition
instead of failing the restart.  With a warm replica attached the
quarantine is survivable *online*: ``heal_partitions()`` fetches the
replica's image — which already reflects the full shipped log — swaps
it into the catalog, repairs the disk copy, and drains
``quarantine_report()`` to empty with no full restart.
"""

import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import ReproError, ShardUnavailableError
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.storage.partition import PartitionConfig

ROWS = 300
EXTRA = 20


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


def _build_db() -> MainMemoryDatabase:
    rng = random.Random(41)
    db = MainMemoryDatabase(durable=True)
    db.create_relation(
        "R",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
        partition_config=PartitionConfig(slot_capacity=128),
    )
    for i in range(ROWS):
        db.insert("R", [i, rng.randrange(50)])
    db.checkpoint()
    db.configure_replication()
    # Post-checkpoint commits: the replica stays current via shipping
    # while the damaged *stored* image stays checkpoint-era.
    for i in range(EXTRA):
        db.insert("R", [ROWS + i, rng.randrange(50)])
    return db


def _damage(db, relation="R", partition_id=0):
    """Flip one stored payload byte: the image fails its CRC at read."""
    disk = db.recovery.disk
    framed = bytearray(disk._images[(relation, partition_id)])
    framed[-1] ^= 0xFF
    disk._images[(relation, partition_id)] = bytes(framed)


def _ids(db):
    return sorted(row[0] for row in db.select("R").materialize())


def _quarantined_db():
    db = _build_db()
    _damage(db)
    db.crash()
    stats = db.recover(partial=True)
    return db, stats


class TestQuarantineTyping:
    def test_partial_restart_quarantines_with_typed_access_error(self):
        db, stats = _quarantined_db()
        try:
            assert not stats.fully_recovered
            report = db.quarantine_report()
            assert list(report) == ["R"]
            [(partition_id, reason)] = report["R"]
            assert partition_id == 0
            # Routing a statement at the quarantined partition raises
            # the typed shard error, not a bare KeyError.
            relation = db.catalog.relation("R")
            with pytest.raises(ShardUnavailableError) as excinfo:
                relation.partition(0)
            assert excinfo.value.relation == "R"
            assert excinfo.value.partition_id == 0
            assert excinfo.value.reason == reason
            assert isinstance(excinfo.value, ReproError)
        finally:
            db.stop_replication()

    def test_healthy_partition_misses_stay_storage_errors(self):
        from repro.errors import StorageError

        db = _build_db()
        try:
            # A plain bad partition id is not a shard outage.
            with pytest.raises(StorageError) as excinfo:
                db.catalog.relation("R").partition(999)
            assert not isinstance(excinfo.value, ShardUnavailableError)
        finally:
            db.stop_replication()


class TestOnlineHeal:
    def test_heal_drains_quarantine_and_restores_rows(self):
        db, __ = _quarantined_db()
        try:
            heal = db.heal_partitions()
            assert heal.partitions_healed == 1
            assert heal.healed == [("R", 0)]
            assert db.quarantine_report() == {}
            # The partition is reachable again and every committed row
            # — including the post-checkpoint suffix — is back.
            db.catalog.relation("R").partition(0)
            assert _ids(db) == list(range(ROWS + EXTRA))
        finally:
            db.stop_replication()

    def test_heal_repairs_the_stored_image(self):
        db, __ = _quarantined_db()
        try:
            disk = db.recovery.disk
            from repro.errors import CorruptImageError

            with pytest.raises(CorruptImageError):
                disk.read_partition("R", 0)
            db.heal_partitions()
            # The damaged stored image was rewritten from the healed
            # partition: a later full restart reads it cleanly.
            assert disk.read_partition("R", 0)
            db.crash()
            stats = db.recover()
            assert stats.fully_recovered
            assert _ids(db) == list(range(ROWS + EXTRA))
        finally:
            db.stop_replication()

    def test_heal_with_nothing_quarantined_is_a_noop(self):
        db = _build_db()
        try:
            heal = db.heal_partitions()
            assert heal.partitions_healed == 0
            assert heal.healed == []
        finally:
            db.stop_replication()

    def test_replication_state_counts_heals(self):
        db, __ = _quarantined_db()
        try:
            db.heal_partitions()
            state = db.replication_state()
            assert state["state"] == "active"
            assert state["partition_heals"] == 1
            assert state["shipper"]["lag_records"] == 0
        finally:
            db.stop_replication()


class TestDegradedStateReport:
    def test_quarantine_and_replication_surface_in_the_report(self):
        db, __ = _quarantined_db()
        try:
            db.configure_observability()
            report = db.observability_report()
            assert "Degraded state:" in report
            assert "quarantined R[0]:" in report
            assert "replication: state=active" in report
            db.heal_partitions()
            report = db.observability_report()
            assert "quarantined R[0]:" not in report
            assert "heals=1" in report
        finally:
            db.stop_replication()
