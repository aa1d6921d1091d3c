"""Crash-timing windows: checkpoint, append-to-flush, and propagation.

Each test injects a fault at a precise point in the durability pipeline,
crashes, and asserts restart reproduces exactly the committed state —
the Section 4 claim that a crash can hit any window without losing
committed work or resurrecting uncommitted work.
"""

import pytest

from repro import eq
from repro.errors import InjectedFaultError
from repro.fault import FaultPolicy
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from tests.conftest import EMPLOYEES, build_figure1_db


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


def _employee_names(db):
    return sorted(
        row[0] for row in db.select("Employee").materialize()
    )


class TestCrashDuringCheckpoint:
    def test_partial_checkpoint_recovers_committed_state(self, durable_db):
        durable_db.checkpoint()  # base images for every partition
        durable_db.insert("Employee", ["Window", 90, 31, 459])
        committed = _employee_names(durable_db)
        disk = durable_db.recovery.disk
        writes_before = disk.writes
        # Department partitions are checkpointed first (creation order),
        # so failing the first Employee partition models a crash with
        # the checkpoint half done.
        durable_db.configure_faults(
            seed=1,
            policies=[
                FaultPolicy(
                    "checkpoint.partition",
                    one_shot=True,
                    match={"relation": "Employee"},
                )
            ],
        )
        with pytest.raises(InjectedFaultError):
            durable_db.checkpoint()
        durable_db.configure_faults()
        # The crash hit mid-checkpoint: some partitions were imaged...
        assert disk.writes > writes_before
        # ...but not all of them.
        assert disk.writes < writes_before + len(
            durable_db.recovery.disk.partition_keys()
        )
        durable_db.crash()
        stats = durable_db.recover()
        assert stats.fully_recovered
        assert _employee_names(durable_db) == committed
        assert len(durable_db.select("Employee", eq("Id", 90))) == 1

    def test_interrupted_checkpoint_then_more_commits(self, durable_db):
        # Commits that land *after* the failed checkpoint still recover:
        # the half-imaged partitions merge their records onto the fresh
        # image, the rest onto the old one.
        durable_db.checkpoint()
        durable_db.configure_faults(
            seed=1,
            policies=[
                FaultPolicy(
                    "checkpoint.partition",
                    one_shot=True,
                    match={"relation": "Employee"},
                )
            ],
        )
        durable_db.insert("Employee", ["Before", 91, 33, 409])
        with pytest.raises(InjectedFaultError):
            durable_db.checkpoint()
        durable_db.configure_faults()
        durable_db.insert("Employee", ["After", 92, 34, 411])
        committed = _employee_names(durable_db)
        durable_db.crash()
        durable_db.recover()
        assert _employee_names(durable_db) == committed


class TestCrashBetweenAppendAndFlush:
    def test_committed_but_unpropagated_records_survive(self, durable_db):
        durable_db.checkpoint()
        durable_db.insert("Employee", ["Stable", 93, 28, 455])
        # The record sits committed in the battery-backed stable buffer;
        # nothing propagated it to the disk copy yet.
        assert durable_db.recovery.stable_log.committed_backlog > 0
        durable_db.crash()
        durable_db.recover()
        assert len(durable_db.select("Employee", eq("Id", 93))) == 1
        assert len(durable_db.select("Employee")) == len(EMPLOYEES) + 1

    def test_uncommitted_transaction_dies_with_the_crash(self, durable_db):
        durable_db.checkpoint()
        log = durable_db.recovery.stable_log
        # Model a transaction caught mid-append: records written to the
        # stable buffer, commit record never arrived.
        txn = durable_db.begin()
        durable_db.insert("Employee", ["Ghost", 94, 40, 455], txn=txn)
        log.append(txn.id, "Employee", 0, "insert", {"slot": 99,
                                                     "values": []})
        assert log.pending_transactions == 1
        durable_db.crash()
        durable_db.recover()
        # Deferred updates: the uncommitted work never existed.
        assert log.pending_transactions == 0
        assert len(durable_db.select("Employee", eq("Id", 94))) == 0
        assert _employee_names(durable_db) == sorted(
            name for name, *_ in EMPLOYEES
        )

    def test_mixed_commit_and_crash(self, durable_db):
        durable_db.checkpoint()
        committed_txn = durable_db.begin()
        durable_db.insert(
            "Employee", ["Kept", 95, 29, 459], txn=committed_txn
        )
        committed_txn.commit()
        doomed_txn = durable_db.begin()
        durable_db.insert("Employee", ["Lost", 96, 30, 459], txn=doomed_txn)
        durable_db.crash()
        durable_db.recover()
        assert len(durable_db.select("Employee", eq("Id", 95))) == 1
        assert len(durable_db.select("Employee", eq("Id", 96))) == 0


class TestCrashDuringPropagation:
    def test_flush_fault_requeues_and_recovers(self, durable_db):
        durable_db.checkpoint()
        durable_db.insert("Employee", ["Flush", 97, 26, 411])
        device = durable_db.recovery.log_device
        durable_db.configure_faults(
            seed=1,
            policies=[FaultPolicy("log.flush", one_shot=True)],
        )
        with pytest.raises(InjectedFaultError):
            durable_db.propagate_log()
        durable_db.configure_faults()
        # The interrupted flush lost nothing: the records went back to
        # the accumulation log...
        assert device.pending_count() > 0
        durable_db.crash()
        durable_db.recover()
        # ...and restart merges them on the fly.
        assert len(durable_db.select("Employee", eq("Id", 97))) == 1

    def test_retried_propagation_applies_once(self, durable_db):
        durable_db.checkpoint()
        durable_db.insert("Employee", ["Once", 98, 27, 409])
        durable_db.configure_faults(
            seed=1,
            policies=[FaultPolicy("log.flush", one_shot=True)],
        )
        with pytest.raises(InjectedFaultError):
            durable_db.propagate_log()
        durable_db.configure_faults()
        durable_db.propagate_log()  # retry succeeds
        assert durable_db.recovery.log_device.pending_count() == 0
        durable_db.crash()
        durable_db.recover()
        rows = durable_db.select("Employee", eq("Id", 98))
        assert len(rows) == 1  # applied exactly once, not twice


class TestCrashDuringReplication:
    """Faults on the shipping hops: every window replays exactly.

    The ``repl.ship`` / ``repl.apply`` fault points fire parent-side in
    the shipper, so a fixed seed replays the same fault sequence; the
    retry budget plus the replica's applied-LSN watermark must turn
    every injected mid-ship, mid-apply, and mid-promotion failure into
    an exact, exactly-once replay.
    """

    def test_mid_ship_corruption_replays_exactly(self, durable_db):
        durable_db.configure_replication(retry_attempts=3)
        durable_db.insert("Employee", ["Shipley", 90, 30, 459])
        committed = _employee_names(durable_db)
        durable_db.configure_faults(
            seed=31,
            policies=[
                FaultPolicy("repl.ship", action="corrupt", one_shot=True)
            ],
        )
        stats = durable_db.demote(reason="mid-ship window")
        durable_db.configure_faults()
        shipper = durable_db.replication.shipper
        # The corrupted batch was rejected whole and reshipped clean...
        assert shipper.rejected_batches == 1
        assert stats.records_replayed == 1
        # ...and the promoted catalog is exactly the committed state.
        assert _employee_names(durable_db) == committed
        assert len(durable_db.select("Employee", eq("Id", 90))) == 1

    def test_mid_apply_fault_replays_exactly(self, durable_db):
        durable_db.configure_replication(retry_attempts=3)
        durable_db.insert("Employee", ["Applegate", 91, 33, 409])
        committed = _employee_names(durable_db)
        durable_db.configure_faults(
            seed=32,
            policies=[
                FaultPolicy("repl.apply", action="error", one_shot=True)
            ],
        )
        durable_db.demote(reason="mid-apply window")
        durable_db.configure_faults()
        shipper = durable_db.replication.shipper
        assert shipper.ship_errors == 1
        assert shipper.ship_retries == 1
        assert _employee_names(durable_db) == committed

    def test_mid_promotion_multi_batch_replay_is_exactly_once(
        self, durable_db
    ):
        # One record per batch: the promotion's suffix replay crosses
        # several faulted hops, and every record must apply once.  The
        # checkpoint pins the replay suffix to exactly the new inserts.
        durable_db.checkpoint()
        durable_db.configure_replication(
            batch_records=1, retry_attempts=3
        )
        for i in range(4):
            durable_db.insert(
                "Employee", [f"Window{i}", 92 + i, 30 + i, 459]
            )
        committed = _employee_names(durable_db)
        durable_db.configure_faults(
            seed=33,
            policies=[
                FaultPolicy("repl.apply", action="error", every_nth=2)
            ],
        )
        durable_db.demote(reason="mid-promotion window")
        durable_db.configure_faults()
        replica = durable_db.replication.replica.state()
        assert replica["records_applied"] == 4
        assert replica["records_skipped"] == 0
        assert _employee_names(durable_db) == committed

    def test_faulted_promotion_replays_deterministically(self):
        def one_pass():
            db = build_figure1_db(durable=True)
            db.configure_replication(
                batch_records=1, retry_attempts=3
            )
            for i in range(3):
                db.insert("Employee", [f"Det{i}", 80 + i, 40 + i, 411])
            db.configure_faults(
                seed=34,
                policies=[
                    FaultPolicy("repl.ship", action="corrupt", every_nth=2),
                    FaultPolicy("repl.apply", action="error", one_shot=True),
                ],
            )
            db.demote(reason="deterministic window")
            db.configure_faults()
            shipper = db.replication.shipper
            return _employee_names(db), shipper.state()

        first_names, first_state = one_pass()
        second_names, second_state = one_pass()
        assert first_names == second_names
        # Same seed, same fault plan: retry/rejection totals replay.
        assert first_state == second_state
