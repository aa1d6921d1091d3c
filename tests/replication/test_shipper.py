"""Unit coverage for the shipping layer: batches, the shipper, and the
shared-memory carrier module.

Everything here drives :class:`ReplicaApplier` /
:class:`LogShipper` directly with hand-built log records — no full
database — except the zero-overhead contract, which compares two real
databases (replication on vs off) byte-for-byte on the recovery wire
and count-for-count on the Section 3.1 totals.
"""

import os
import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import (
    ConfigError,
    CorruptBatchError,
    InjectedFaultError,
    ReplicationEpochError,
    ReplicationError,
)
from repro.fault import FaultInjector, FaultPolicy
from repro.fault import runtime as fault_runtime
from repro.instrument import counters_scope
from repro.obs import runtime as obs_runtime
from repro.query.parallel import shm
from repro.query.plan import ScanNode
from repro.query.predicates import gt
from repro.recovery.log import LogRecord
from repro.replication import shipper as shipping
from repro.replication import (
    LogShipper,
    ReplicaApplier,
    ShippedBatch,
    corrupt_bytes,
    decode_batch,
    encode_batch,
)

#: Sizing for the hand-built replica relation.
CONFIGS = {"R": (64, 65536)}


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


def _records(first_lsn: int, count: int):
    """``count`` sealed insert records for R[0], LSNs from first_lsn."""
    return [
        LogRecord(
            lsn=first_lsn + i,
            txn_id=1,
            relation="R",
            partition_id=0,
            kind="insert",
            payload={
                "slot": first_lsn + i - 1,
                "values": [first_lsn + i, 7],
            },
        ).sealed()
        for i in range(count)
    ]


def _shipper():
    applier = ReplicaApplier(configs=CONFIGS)
    return applier, LogShipper(applier)


class TestBatchCodec:
    def test_round_trip(self):
        batch = ShippedBatch(epoch=3, seq=9, records=tuple(_records(1, 4)))
        decoded = decode_batch(encode_batch(batch))
        assert decoded.epoch == 3
        assert decoded.seq == 9
        assert decoded.records == batch.records
        assert decoded.last_lsn == 4

    def test_corrupt_wire_is_rejected_whole(self):
        data = encode_batch(
            ShippedBatch(epoch=1, seq=1, records=tuple(_records(1, 2)))
        )
        with pytest.raises(CorruptBatchError):
            decode_batch(corrupt_bytes(data))

    def test_corruption_never_half_applies(self):
        applier = ReplicaApplier(configs=CONFIGS)
        data = encode_batch(
            ShippedBatch(epoch=1, seq=1, records=tuple(_records(1, 5)))
        )
        with pytest.raises(CorruptBatchError):
            applier.apply_batch(corrupt_bytes(data))
        assert applier.records_applied == 0
        assert applier.batches_rejected == 1
        # The good bytes still apply afterwards.
        ack = applier.apply_batch(data)
        assert ack["applied"] == 5


class TestExactlyOnce:
    def test_watermark_deduplicates_reshipped_records(self):
        applier = ReplicaApplier(configs=CONFIGS)
        first = encode_batch(
            ShippedBatch(epoch=1, seq=1, records=tuple(_records(1, 5)))
        )
        applier.apply_batch(first)
        # A re-ship overlapping the acknowledged prefix: LSNs 3..8.
        overlap = encode_batch(
            ShippedBatch(epoch=1, seq=2, records=tuple(_records(3, 6)))
        )
        ack = applier.apply_batch(overlap)
        assert ack["applied"] == 3
        assert ack["skipped"] == 3
        assert ack["watermark"] == 8
        assert applier.partitions[("R", 0)].live_tuples == 8

    def test_identical_reship_is_a_pure_skip(self):
        applier = ReplicaApplier(configs=CONFIGS)
        data = encode_batch(
            ShippedBatch(epoch=1, seq=1, records=tuple(_records(1, 4)))
        )
        applier.apply_batch(data)
        ack = applier.apply_batch(data)
        assert ack["applied"] == 0
        assert ack["skipped"] == 4


class TestEpochFencing:
    def test_stale_epoch_batch_is_fenced(self):
        applier = ReplicaApplier(configs=CONFIGS)
        applier.epoch = 3
        stale = encode_batch(
            ShippedBatch(epoch=2, seq=1, records=tuple(_records(1, 2)))
        )
        with pytest.raises(ReplicationEpochError):
            applier.apply_batch(stale)
        assert applier.records_applied == 0

    def test_newer_epoch_is_adopted(self):
        applier = ReplicaApplier(configs=CONFIGS)
        ack = applier.apply_batch(
            encode_batch(
                ShippedBatch(epoch=5, seq=1, records=tuple(_records(1, 1)))
            )
        )
        assert ack["epoch"] == 5
        assert applier.epoch == 5

    def test_straggler_from_demoted_primary_cannot_ship(self):
        """After promotion bumps the epoch, the old shipper is fenced."""
        applier, shipper = _shipper()
        shipper.enqueue(_records(1, 3))
        assert shipper.flush() == 3
        # Promotion elsewhere fences the replica to a newer epoch.
        applier.epoch = shipper.epoch + 1
        shipper.enqueue(_records(4, 2))
        with pytest.raises(ReplicationEpochError):
            shipper.flush()
        assert applier.records_applied == 3


class TestLogShipper:
    def test_ship_drains_outbox_and_advances_ack(self, monkeypatch):
        monkeypatch.setattr(shipping, "BATCH_RECORDS", 4)
        applier, shipper = _shipper()
        shipper.enqueue(_records(1, 10))
        assert shipper.lag_records == 10
        assert shipper.flush() == 10
        assert shipper.lag_records == 0
        assert shipper.acked_lsn == 10
        assert shipper.batches_shipped == 3  # 4 + 4 + 2
        assert applier.records_applied == 10

    def test_lag_bound_auto_ships(self, monkeypatch):
        monkeypatch.setattr(shipping, "MAX_LAG_RECORDS", 4)
        applier, shipper = _shipper()
        shipper.enqueue(_records(1, 5))
        # The enqueue crossed the bound and shipped on the commit path.
        assert shipper.lag_records == 0
        assert applier.records_applied == 5

    def test_injected_ship_fault_is_retried(self):
        applier, shipper = _shipper()
        fault_runtime.activate(
            FaultInjector(
                seed=3,
                policies=[
                    FaultPolicy("repl.ship", action="error", one_shot=True)
                ],
            )
        )
        shipper.enqueue(_records(1, 4))
        assert shipper.flush() == 4
        assert shipper.ship_retries == 1
        assert shipper.ship_errors == 1
        assert applier.records_applied == 4

    def test_wire_corruption_is_rejected_then_reshipped(self):
        applier, shipper = _shipper()
        fault_runtime.activate(
            FaultInjector(
                seed=3,
                policies=[
                    FaultPolicy("repl.ship", action="corrupt", one_shot=True)
                ],
            )
        )
        shipper.enqueue(_records(1, 4))
        assert shipper.flush() == 4
        assert shipper.rejected_batches == 1
        assert applier.batches_rejected == 1
        assert applier.records_applied == 4

    def test_exhausted_retries_raise_on_flush_not_enqueue(
        self, monkeypatch
    ):
        monkeypatch.setattr(shipping, "MAX_LAG_RECORDS", 2)
        applier, shipper = _shipper()
        fault_runtime.activate(
            FaultInjector(
                seed=3,
                policies=[FaultPolicy("repl.ship", action="error")],
            )
        )
        # The commit-path auto-ship is best effort: the replica being
        # down must never surface on the primary's insert path.
        shipper.enqueue(_records(1, 5))
        assert shipper.lag_records == 5
        # The strict flush surfaces the last hop error instead.
        with pytest.raises((ReplicationError, InjectedFaultError)):
            shipper.flush()
        # Once the fault clears, the queued suffix ships.
        fault_runtime.deactivate()
        assert shipper.flush() == 5
        assert applier.records_applied == 5


class TestShmTransport:
    def test_config_validates_transport(self):
        # The shm shipping transport and the forked process channel
        # are retired: the replica is called in-process, and neither
        # setting is accepted any more.
        db = _workload_db(replicate=False)
        with pytest.raises(TypeError):
            db.configure_replication(transport="shm")
        with pytest.raises(TypeError):
            db.configure_replication(channel="process")


class TestReplicationConfig:
    @pytest.mark.parametrize(
        "field", ["max_lag_records", "batch_records", "retry_attempts"]
    )
    @pytest.mark.parametrize("value", [0, True, "3"])
    def test_config_rejects_non_positive_counts(self, field, value):
        # The three shipping counts are constants of the shipper module
        # now: configure_replication takes no keyword, so every value
        # of them is refused, a good one as well as a bad one.
        db = _workload_db(replicate=False)
        before = db.replication
        with pytest.raises(TypeError, match=field):
            db.configure_replication(**{field: value})
        with pytest.raises(TypeError, match=field):
            db.configure_replication(**{field: 3})
        assert db.replication is before


@pytest.mark.skipif(not shm.available(), reason="POSIX shared memory required")
class TestShmCarrier:
    def test_blob_round_trip(self):
        blob = os.urandom(10_000)
        descriptor = shm.write_blob(blob)
        assert shm.is_blob(descriptor)
        try:
            assert shm.read_blob(descriptor) == blob
        finally:
            shm.arena().unlink(descriptor[1])

    def test_read_blob_keeps_segment(self):
        # Readers never reclaim: the creator unlinks once every reader
        # is done, so a blob reads back as often as needed until then.
        descriptor = shm.write_blob(b"twice")
        try:
            assert shm.read_blob(descriptor) == b"twice"
            assert shm.read_blob(descriptor) == b"twice"
            assert shm.arena().active_segments() == 1
        finally:
            shm.arena().unlink(descriptor[1])

    def test_write_read_unlink_rows(self):
        from repro.query.parallel.transport import encode_rows

        packed = encode_rows([(i, 1 << 32 | i + 1) for i in range(50)])
        before = shm.arena().active_segments()
        descriptor = shm.write_rows(packed)
        assert shm.arena().active_segments() == before + 1
        # The segment reading reclaims holds the packed bytes themselves.
        assert shm.read_rows(descriptor) == packed
        assert shm.arena().active_segments() == before

    def test_drain_reaps_everything_owned(self):
        shm.write_blob(b"one")
        shm.write_blob(b"two")
        assert shm.arena().drain() >= 2
        assert shm.arena().active_segments() == 0

    def test_unlink_tolerates_missing_segment(self):
        shm.arena().unlink("repro-never-existed-12345")

    def test_forked_child_disowns_parent_segments(self):
        # A forked child inherits the arena registry copy-on-write but
        # must abandon it: the parent's segment has to survive any
        # child-side drain (e.g. the child's atexit).
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        descriptor = shm.write_blob(b"parent")
        try:
            ctx = multiprocessing.get_context("fork")
            queue = ctx.SimpleQueue()

            def child():
                queue.put(
                    (shm.arena().active_segments(), shm.arena().drain())
                )

            proc = ctx.Process(target=child)
            proc.start()
            proc.join(30)
            assert proc.exitcode == 0
            assert queue.get() == (0, 0)
            assert shm.read_blob(descriptor) == b"parent"
        finally:
            shm.arena().unlink(descriptor[1])


def _workload_db(replicate: bool):
    rng = random.Random(202)
    db = MainMemoryDatabase(durable=True)
    db.create_relation(
        "R",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(400):
        db.insert("R", [i, rng.randrange(40)])
    db.checkpoint()
    if replicate:
        db.configure_replication()
    for i in range(30):
        db.insert("R", [400 + i, rng.randrange(40)])
    db.propagate_log()
    return db


#: The env hook lane (REPRO_REPLICATION) forces replication on for
#: every durable database, so "off is free" cannot be asserted there.
ENV_REPLICATION = os.environ.get("REPRO_REPLICATION", "") not in (
    "", "0", "false", "off",
)


@pytest.mark.skipif(
    ENV_REPLICATION, reason="REPRO_REPLICATION forces replication on"
)
class TestZeroOverheadWhenOff:
    def test_recovery_wire_and_counters_unchanged(self):
        """Replication off is *free*: the disk copy stays byte-identical
        and query windows charge exactly the same operation totals."""
        plain = _workload_db(replicate=False)
        replicated = _workload_db(replicate=True)
        try:
            # Same workload, same propagation: the primary's recovery
            # wire must not know replication exists.
            plain_images = dict(plain.recovery.disk._images)
            repl_images = dict(replicated.recovery.disk._images)
            assert plain_images == repl_images
            plan = ScanNode("R", gt("A", 10))
            with counters_scope() as counters:
                plain_rows = plain.executor.execute(plan).rows()
            plain_counts = counters.snapshot().as_dict()
            with counters_scope() as counters:
                repl_rows = replicated.executor.execute(plan).rows()
            repl_counts = counters.snapshot().as_dict()
            assert repl_rows == plain_rows
            assert repl_counts == plain_counts
        finally:
            replicated.stop_replication()

    def test_no_sinks_without_replication(self):
        db = _workload_db(replicate=False)
        assert db.recovery.log_device._sinks == []

    def test_stop_replication_detaches_the_sink(self):
        db = _workload_db(replicate=True)
        assert len(db.recovery.log_device._sinks) == 1
        db.stop_replication()
        assert db.recovery.log_device._sinks == []
        assert db.replication is None


class TestEnvHook:
    @pytest.mark.parametrize(
        "value", ["inline", "process", "inline:shm", "process:shm", "yes"]
    )
    def test_retired_value_raises(self, monkeypatch, value):
        # A lane still naming a retired channel mode fails loudly,
        # durable or not, instead of silently running unreplicated.
        monkeypatch.setenv("REPRO_REPLICATION", value)
        with pytest.raises(ConfigError, match="REPRO_REPLICATION"):
            MainMemoryDatabase(durable=True)
        with pytest.raises(ConfigError, match="REPRO_REPLICATION"):
            MainMemoryDatabase()

    @pytest.mark.parametrize("value", ["", "0", "false", "off"])
    def test_off_values_attach_nothing(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_REPLICATION", value)
        assert MainMemoryDatabase(durable=True).replication is None

    def test_one_attaches_a_replica_to_durable_databases(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICATION", "1")
        assert MainMemoryDatabase().replication is None
        db = MainMemoryDatabase(durable=True)
        try:
            assert db.replication_state()["state"] == "active"
        finally:
            db.stop_replication()
