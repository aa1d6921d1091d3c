"""Seeded end-to-end chaos: faults change nothing but the event log.

One pass runs a 60/20/20 query mix (selections/joins/projections) on a
durable database after a checkpoint-crash-recover cycle with no faults;
a second pass runs the identical workload on an identically-built
database under a fixed-seed fault plan that kills a worker, injects
transient worker errors, and corrupts every third disk read.  The
self-healing layers must absorb every injected fault: both passes yield
identical query results and identical Section 3.1 counter totals.

``REPRO_CHAOS_SEED`` selects the fault seed (the CI chaos lane sweeps
several); the data and plan mix are pinned separately so both passes
always see the same workload.
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
from repro.query.parallel import scheduler
from repro.query.plan import FilterNode, JoinNode, ProjectNode, ScanNode
from repro.query.predicates import between, ge, gt, le, lt

#: Seed for the fault plan only — CI sweeps this via the chaos lane.
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1012"))
#: Seed for data and plans, pinned so every pass runs the same workload.
DATA_SEED = 990131

N_R = 1000
N_S = 200
VALUE_SPACE = 50
MORSEL = 128
POOL = "process" if fork_available() else "inline"


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
    ]


def _run_pass(chaos: bool):
    db = _build_db()
    db.checkpoint()
    # Post-checkpoint commits exercise log merge during restart.
    rng = random.Random(DATA_SEED + 2)
    for i in range(20):
        db.insert(
            "R",
            [N_R + i, rng.randrange(VALUE_SPACE), rng.randrange(1_000)],
        )
    db.crash()
    injector = None
    if chaos:
        injector = db.configure_faults(seed=SEED, policies=_chaos_policies())
    try:
        db.recover()
        db.configure_execution(
            engine="batch",
            workers=2,
            morsel_size=MORSEL,
            pool=POOL,
        )
        results = []
        with counters_scope() as counters:
            for plan in _plan_mix():
                results.append(db.executor.execute(plan).rows())
        counts = counters.snapshot().as_dict()
        report = injector.report() if injector is not None else None
    finally:
        db.configure_execution()
        db.configure_faults()
    return results, counts, report


@pytest.fixture(autouse=True)
def clean_runtime(monkeypatch):
    # The chaos plan fires pool.worker faults at a rate one retry per
    # morsel cannot absorb; give every morsel three pool runs.
    monkeypatch.setattr(scheduler, "RETRY_ATTEMPTS", 3)
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


def test_chaos_run_is_indistinguishable_in_results():
    baseline_results, baseline_counts, __ = _run_pass(chaos=False)
    chaos_results, chaos_counts, report = _run_pass(chaos=True)
    # The fault plan genuinely did something...
    assert report is not None
    assert sum(report["fires"].values()) > 0
    # ...the recovery layer definitely saw the corrupt-read fault...
    assert report["fires"].get("disk.read", 0) > 0
    # ...and none of it is visible in results or operation totals.
    assert chaos_results == baseline_results
    assert chaos_counts == baseline_counts


def test_chaos_replay_is_deterministic():
    first_results, first_counts, first_report = _run_pass(chaos=True)
    second_results, second_counts, second_report = _run_pass(chaos=True)
    assert first_results == second_results
    assert first_counts == second_counts
    # Same seed, same fault plan: the fire totals replay exactly.
    assert first_report["fires"] == second_report["fires"]
