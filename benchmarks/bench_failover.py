"""Replication cost benchmark: shipping overhead, failover, and heal.

Three questions about the warm-replica subsystem, swept over the size
of the post-checkpoint log suffix:

* **steady-state shipping** — how much slower is the commit+flush path
  with a replica attached (``ship_overhead_ratio``, replicated wall
  time over plain wall time for the identical insert workload);
* **failover** — how long ``demote()`` takes to replay the suffix,
  swap every partition image in, and rebuild indexes
  (``promote_seconds``);
* **online repair** — how long one quarantined partition takes to heal
  from the replica (``heal_seconds``).

``records_shipped`` is the deterministic gated column: it equals the
suffix size exactly, so the regression gate catches a shipper that
starts double-shipping (or silently dropping) records.  All ``*_
seconds`` / ``*_ratio`` columns are wall-clock and exempt from gating.
Every timed region runs with the cyclic garbage collector collected
first and held off, so a collection that a previous pass's garbage
triggers does not land in one side of the ratio.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager

try:
    from benchmarks.harness import SeriesCollector
except ImportError:  # pragma: no cover - direct execution
    from harness import SeriesCollector

from repro import Field, FieldType, MainMemoryDatabase
from repro.storage.partition import PartitionConfig

#: Base rows imaged by the bootstrap checkpoint.
N_BASE = 2_000
#: Post-checkpoint suffix sizes (records shipped / replayed).
SUFFIXES = [500, 1_000, 2_000]
DATA_SEED = 86_11_07
VALUE_SPACE = 64


def _build_db() -> MainMemoryDatabase:
    rng = random.Random(DATA_SEED)
    db = MainMemoryDatabase(durable=True)
    db.create_relation(
        "R",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
        partition_config=PartitionConfig(slot_capacity=256),
    )
    for i in range(N_BASE):
        db.insert("R", [i, rng.randrange(VALUE_SPACE)])
    db.checkpoint()
    return db


def _insert_suffix(db: MainMemoryDatabase, count: int) -> None:
    rng = random.Random(DATA_SEED + 1)
    for i in range(count):
        db.insert("R", [N_BASE + i, rng.randrange(VALUE_SPACE)])


@contextmanager
def _collector_held():
    """Collect, then keep the cyclic collector off for the ``with`` body."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _ship_overhead(count: int) -> float:
    """Replicated over plain wall time for the same insert+flush pass."""
    plain = _build_db()
    with _collector_held():
        started = time.perf_counter()
        _insert_suffix(plain, count)
        plain.propagate_log()
        plain_seconds = time.perf_counter() - started

    replicated = _build_db()
    replicated.configure_replication()
    with _collector_held():
        started = time.perf_counter()
        _insert_suffix(replicated, count)
        replicated.propagate_log()
        replicated.replication.shipper.flush()
        replicated_seconds = time.perf_counter() - started
    replicated.stop_replication()
    return replicated_seconds / max(plain_seconds, 1e-9)


def _failover(count: int):
    """Promote after a ``count``-record suffix; returns (stats, shipper)."""
    db = _build_db()
    db.configure_replication()
    _insert_suffix(db, count)
    db.crash()
    with _collector_held():
        promotion = db.demote(reason="benchmark")
    rows = len(db.select("R"))
    assert rows == N_BASE + count, (rows, count)
    state = db.replication.shipper.state()
    db.stop_replication()
    return promotion, state


def _heal(count: int):
    """Quarantine one partition, heal it from the replica; the stats."""
    db = _build_db()
    db.configure_replication()
    _insert_suffix(db, count)
    disk = db.recovery.disk
    framed = bytearray(disk._images[("R", 0)])
    framed[-1] ^= 0xFF
    disk._images[("R", 0)] = bytes(framed)
    db.crash()
    db.recover(partial=True)
    with _collector_held():
        heal = db.heal_partitions()
    assert heal.partitions_healed == 1, heal
    assert db.quarantine_report() == {}
    assert len(db.select("R")) == N_BASE + count
    db.stop_replication()
    return heal


def run_failover_benchmark() -> SeriesCollector:
    series = SeriesCollector(
        "Warm-replica cost: shipping, failover, online heal",
        "suffix_records",
        [
            "records_shipped",
            "promote_seconds",
            "partitions_restored",
            "heal_seconds",
            "ship_overhead_ratio",
        ],
    )
    for count in SUFFIXES:
        promotion, shipper = _failover(count)
        # Suffixes past the lag bound auto-ship mid-stream; the rest
        # replays at promotion.  Every record ships exactly once.
        assert shipper["records_shipped"] == count, shipper
        assert shipper["lag_records"] == 0, shipper
        heal = _heal(count)
        series.add(
            count,
            records_shipped=shipper["records_shipped"],
            promote_seconds=round(promotion.elapsed_seconds, 6),
            partitions_restored=promotion.partitions_restored,
            heal_seconds=round(heal.elapsed_seconds, 6),
            ship_overhead_ratio=round(_ship_overhead(count), 3),
        )
    return series


def test_failover_benchmark():
    series = run_failover_benchmark()
    series.publish("failover")
    # Shipping is one apply per record: the overhead cannot explode.
    for ratio in series.column("ship_overhead_ratio"):
        assert ratio < 10.0, series.rows()


if __name__ == "__main__":
    test_failover_benchmark()
