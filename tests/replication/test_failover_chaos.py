"""Kill-primary chaos: failover to the warm replica changes nothing.

The baseline pass runs a 60/20/20 query mix split across two windows,
with a crash-recover cycle between them and no replication.  The chaos
pass runs the identical workload on an identically-built database with
a warm replica attached and a fixed-seed fault plan that kills a
worker, injects transient worker errors, corrupts disk reads, corrupts
shipped batches on the wire, and errors an apply hop — and instead of
recovering from the second crash, it *fails over*: ``demote()``
promotes the replica, whose images replace the catalog.

The promotion must be invisible: both passes yield identical rows and
identical Section 3.1 counter totals in both windows, because the
replica's images are the same checkpoint-plus-replayed-log state a
restart merge would rebuild from disk.

``REPRO_CHAOS_SEED`` selects the fault seed (the CI chaos lane sweeps
several); the data and plan mix are pinned separately so every pass
runs the same workload.
"""

import os
import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.fault import FaultPolicy
from repro.fault import runtime as fault_runtime
from repro.instrument import counters_scope
from repro.obs import runtime as obs_runtime
from repro.query.parallel import fork_available
from repro.query.plan import FilterNode, JoinNode, ProjectNode, ScanNode
from repro.query.predicates import between, ge, gt, le, lt
from repro.storage.partition import PartitionConfig

#: Seed for the fault plan only — CI sweeps this via the chaos lane.
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1012"))
#: Seed for data and plans, pinned so every pass runs the same workload.
DATA_SEED = 990131

N_R = 1000
N_S = 200
VALUE_SPACE = 50
MORSEL = 128
POOL = "process" if fork_available() else "inline"


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


def _build_db() -> MainMemoryDatabase:
    rng = random.Random(DATA_SEED)
    db = MainMemoryDatabase(durable=True)
    db.create_relation(
        "R",
        [
            Field("Id", FieldType.INT),
            Field("A", FieldType.INT),
            Field("B", FieldType.INT),
        ],
        primary_key="Id",
    )
    db.create_relation(
        "S",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(N_R):
        db.insert(
            "R", [i, rng.randrange(VALUE_SPACE), rng.randrange(1_000)]
        )
    for i in range(N_S):
        db.insert("S", [i, rng.randrange(VALUE_SPACE)])
    return db


def _plan_mix():
    """60/20/20 selections/joins/projections, ten plans."""
    rng = random.Random(DATA_SEED + 1)
    plans = []
    for i in range(6):
        low = rng.randrange(VALUE_SPACE // 2)
        high = low + rng.randrange(5, VALUE_SPACE // 2)
        if i % 2:
            plans.append(ScanNode("R", gt("A", low) & lt("A", high)))
        else:
            plans.append(
                FilterNode(
                    ScanNode("R"),
                    between("A", low, high) | ge("B", 900) | le("B", 50),
                )
            )
    for __ in range(2):
        low = rng.randrange(VALUE_SPACE // 2)
        plans.append(
            JoinNode(
                ScanNode("R", gt("A", low)), ScanNode("S"), "A", "A", "hash"
            )
        )
    plans.extend(
        [
            ProjectNode(
                ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
            ),
            ProjectNode(
                ScanNode("R"),
                ("A", "B"),
                deduplicate=True,
                dedup_method="hash",
            ),
        ]
    )
    return plans


def _chaos_policies():
    return [
        FaultPolicy("pool.worker", action="kill", one_shot=True),
        FaultPolicy("pool.worker", action="error", probability=0.05),
        FaultPolicy("disk.read", action="corrupt", every_nth=3),
        FaultPolicy("repl.ship", action="corrupt", every_nth=2),
        FaultPolicy("repl.apply", action="error", one_shot=True),
    ]


def _run_pass(chaos: bool):
    """One workload pass; ``chaos=True`` replicates, faults, fails over."""
    db = _build_db()
    db.checkpoint()
    if chaos:
        # Replication comes up before the fault plan so the bootstrap
        # image reads stay fault-free; every later hop is fair game.
        db.configure_replication(retry_attempts=5)
    # Post-checkpoint commits exercise log merge (baseline) and log
    # shipping (chaos) — both passes must end with the same 20 rows.
    rng = random.Random(DATA_SEED + 2)
    for i in range(20):
        db.insert(
            "R",
            [N_R + i, rng.randrange(VALUE_SPACE), rng.randrange(1_000)],
        )
    db.crash()
    injector = None
    promotion = None
    try:
        if chaos:
            injector = db.configure_faults(
                seed=SEED, policies=_chaos_policies()
            )
        db.recover()
        db.configure_execution(
            engine="batch",
            workers=2,
            morsel_size=MORSEL,
            pool=POOL,
            retry_attempts=3,
        )
        plans = _plan_mix()
        results = []
        with counters_scope() as counters:
            for plan in plans[:5]:
                results.append(db.executor.execute(plan).rows())
        first = counters.snapshot().as_dict()
        # The primary dies mid-workload.  The baseline restarts from
        # the disk copy; the chaos pass fails over to the replica.
        db.crash()
        if chaos:
            promotion = db.demote(reason="chaos kill-primary")
        else:
            db.recover()
        with counters_scope() as counters:
            for plan in plans[5:]:
                results.append(db.executor.execute(plan).rows())
        second = counters.snapshot().as_dict()
        report = injector.report() if injector is not None else None
    finally:
        db.configure_execution()
        db.configure_faults()
        db.stop_replication()
    return results, (first, second), report, promotion


def test_failover_is_bit_identical_to_recovery():
    base_results, base_counts, __, __ = _run_pass(chaos=False)
    chaos_results, chaos_counts, report, promotion = _run_pass(chaos=True)
    # The failover really happened and really replayed the log suffix...
    assert promotion is not None
    assert promotion.records_replayed == 20
    assert promotion.partitions_restored > 0
    assert promotion.epoch == 2
    # ...the fault plan genuinely hit the replication hops...
    assert report is not None
    assert sum(report["fires"].values()) > 0
    assert (
        report["fires"].get("repl.ship", 0)
        + report["fires"].get("repl.apply", 0)
    ) > 0
    # ...and none of it is visible: same rows, same operation totals,
    # in both windows — before and after the promotion.
    assert chaos_results == base_results
    assert chaos_counts[0] == base_counts[0]
    assert chaos_counts[1] == base_counts[1]


def test_failover_chaos_replay_is_deterministic():
    first_results, first_counts, first_report, first_promo = _run_pass(
        chaos=True
    )
    second_results, second_counts, second_report, second_promo = _run_pass(
        chaos=True
    )
    assert first_results == second_results
    assert first_counts == second_counts
    # Same seed, same fault plan: the fire totals replay exactly.
    assert first_report["fires"] == second_report["fires"]
    assert first_promo.records_replayed == second_promo.records_replayed
    assert first_promo.partitions_restored == second_promo.partitions_restored



def _late_relation_pass(replicate: bool):
    """A relation created *after* the replica came up, then the primary
    dies: failover (``replicate``) or restart from the disk copy."""
    rng = random.Random(DATA_SEED + 3)
    db = _build_db()
    db.checkpoint()
    if replicate:
        db.configure_replication()
    # Small partitions: the replica must learn this sizing, or the
    # partitions it creates for L would not match the primary's.
    db.create_relation(
        "L",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
        partition_config=PartitionConfig(slot_capacity=8),
    )
    for i in range(30):
        db.insert("L", [i, rng.randrange(VALUE_SPACE)])
    try:
        db.crash()
        if replicate:
            promotion = db.demote(reason="late relation")
            assert promotion.records_replayed > 0
            assert db.replication.replica.configs["L"] == (8, 32768)
        else:
            db.recover()
        # The adopted partitions keep the primary's sizing: later
        # inserts land on the same pointers either way.
        refs = [
            db.insert("L", [30 + i, rng.randrange(VALUE_SPACE)])
            for i in range(20)
        ]
        with counters_scope() as counters:
            rows = db.executor.execute(ScanNode("L", gt("A", 10))).rows()
        values = sorted(db.select("L").materialize())
        return refs, rows, values, counters.snapshot().as_dict()
    finally:
        db.stop_replication()


def test_relation_created_after_establish_fails_over_identically():
    assert _late_relation_pass(replicate=True) == _late_relation_pass(
        replicate=False
    )
