"""Differential tests: morsel-parallel engine vs. scalar batch engine.

The morsel-driven executor's core contract (DESIGN.md section 3.9) is
that worker count is *unobservable* in results and in the Section 3.1
counter totals: for every plan, workers ∈ {1, 2, 4} must produce
identical rows in identical order and identical merged counters on the
five base counters.  Only the ``deref_saved_traversals`` extra may
differ (per-morsel memos cannot span morsel boundaries), so it is
popped before comparing.

``workers=1`` must not construct a parallel executor at all — it *is*
the scalar ``BatchExecutor`` code path.
"""

import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.instrument import counters_scope
from repro.query.parallel import MorselScheduler, ParallelBatchExecutor, tasks
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
)
from repro.query.predicates import between, eq, ge, gt, le, lt, ne
from repro.query.vectorized import DEREF_SAVED_COUNTER, BatchExecutor

SEED = 19860528
N_R = 900
N_S = 180
VALUE_SPACE = 60
MORSEL = 128  # far below the data size so every operator morselizes
WORKER_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def db():
    rng = random.Random(SEED)
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
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(N_R):
        database.insert(
            "R", [i, rng.randrange(VALUE_SPACE), rng.randrange(1_000)]
        )
    for i in range(N_S):
        database.insert("S", [i, rng.randrange(VALUE_SPACE)])
    return database


def _plan_mix():
    rng = random.Random(SEED + 1)
    lo = rng.randrange(VALUE_SPACE // 2)
    hi = lo + rng.randrange(5, VALUE_SPACE // 2)
    return [
        # -- parallel partitioned scans --------------------------------
        ScanNode("R"),
        ScanNode("R", eq("A", lo)),
        ScanNode("R", gt("A", lo) & lt("A", hi)),
        ScanNode("R", between("A", lo, hi) | ge("B", 900) | le("B", 50)),
        ScanNode("R", ne("A", lo) & (gt("B", 100) | lt("A", 3))),
        # -- parallel filters ------------------------------------------
        FilterNode(ScanNode("R"), gt("B", 200) & lt("B", 800)),
        FilterNode(ScanNode("R", gt("A", 3)), lt("B", 500)),
        # -- parallel hash dedup ---------------------------------------
        ProjectNode(
            ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
        ),
        ProjectNode(
            ScanNode("R"),
            ("A", "B"),
            deduplicate=True,
            dedup_method="hash",
        ),
        ProjectNode(ScanNode("R"), ("B", "A"), deduplicate=False),
        # -- parallel hash join (and small-side fallbacks) -------------
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        JoinNode(ScanNode("S"), ScanNode("R"), "A", "A", "hash"),
        JoinNode(
            ScanNode("R"), ScanNode("R"), REF_COLUMN, REF_COLUMN, "hash"
        ),
        # -- non-parallel operators must still match exactly -----------
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "sort_merge"),
        ProjectNode(
            ScanNode("R"),
            ("A",),
            deduplicate=True,
            dedup_method="sort_scan",
        ),
        # -- composites: morsels below morsels -------------------------
        FilterNode(
            JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
            gt("B", 500),
        ),
        ProjectNode(
            JoinNode(
                ScanNode("R", gt("B", 300)), ScanNode("S"), "A", "A", "hash"
            ),
            ("R.A",),
            deduplicate=True,
            dedup_method="hash",
        ),
    ]


def _run(executor, plan):
    with counters_scope() as counters:
        result = executor.execute(plan)
    counts = counters.snapshot().as_dict()
    counts.pop(DEREF_SAVED_COUNTER, None)
    return result, counts


def _parallel_executor(db, workers, morsel_size=MORSEL):
    return ParallelBatchExecutor(
        db.catalog,
        workers=workers,
        morsel_size=morsel_size,
        pool="inline",
    )


@pytest.mark.parametrize("plan", _plan_mix(), ids=lambda p: p.explain())
def test_plan_differential(db, plan):
    """Identical rows and identical merged base counters, all workers."""
    base_result, base_counts = _run(BatchExecutor(db.catalog), plan)
    for workers in WORKER_COUNTS:
        executor = _parallel_executor(db, workers)
        try:
            result, counts = _run(executor, plan)
        finally:
            executor.close()
        assert result.rows() == base_result.rows(), (workers, plan.explain())
        assert [c.name for c in result.descriptor.columns] == [
            c.name for c in base_result.descriptor.columns
        ]
        assert counts == base_counts, (workers, plan.explain())


@pytest.mark.parametrize("morsel_size", [64, 100, 999])
def test_morsel_size_invariance(db, morsel_size):
    """Counter totals must not depend on the morsel granularity."""
    plans = [
        ScanNode("R", gt("A", 5) & lt("A", 40)),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        ProjectNode(
            ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
        ),
    ]
    for plan in plans:
        base_result, base_counts = _run(BatchExecutor(db.catalog), plan)
        executor = _parallel_executor(db, 2, morsel_size=morsel_size)
        try:
            result, counts = _run(executor, plan)
        finally:
            executor.close()
        assert result.rows() == base_result.rows()
        assert counts == base_counts, (morsel_size, plan.explain())


def test_process_pool_smoke(db):
    """A real fork pool produces the same rows and counts (when forkable)."""
    from repro.query.parallel import fork_available

    plan = JoinNode(
        ScanNode("R", gt("B", 100)), ScanNode("S"), "A", "A", "hash"
    )
    base_result, base_counts = _run(BatchExecutor(db.catalog), plan)
    executor = ParallelBatchExecutor(
        db.catalog, workers=2, morsel_size=MORSEL, pool="process"
    )
    try:
        result, counts = _run(executor, plan)
        assert result.rows() == base_result.rows()
        assert counts == base_counts
        if fork_available() and executor.scheduler.fallback_reason is None:
            assert executor.scheduler.stats["process_runs"] > 0
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# dispatch plumbing
# --------------------------------------------------------------------- #


def test_workers_one_is_plain_batch_executor(db):
    """workers=1 must take the unmodified scalar batch path: no pool,
    no parallel executor, no scheduler registration."""
    registered = set(tasks._CATALOGS)
    db.configure_execution(engine="batch", workers=1)
    try:
        assert type(db.executor) is BatchExecutor
        assert db.scheduler_stats() is None
        assert set(tasks._CATALOGS) <= registered
    finally:
        db.configure_execution()
    assert db.executor.engine_name == "tuple"


def test_workers_many_installs_parallel_executor(db):
    db.configure_execution(engine="batch", workers=2, pool="inline")
    try:
        assert type(db.executor) is ParallelBatchExecutor
        token = db.executor.scheduler.token
        assert tasks._CATALOGS[token] is db.catalog
        rows = db.sql(
            "SELECT Id, B FROM R WHERE B > 400 ORDER BY Id"
        ).to_dicts()
        assert len(rows) > 0
    finally:
        db.configure_execution()
    # Retiring the executor releases its catalog registration.
    assert token not in tasks._CATALOGS


def test_sql_differential_across_workers(db):
    query = (
        "SELECT R.A, S.Id FROM R JOIN S ON R.A = S.A WHERE R.B > 400 "
        "ORDER BY S.Id"
    )
    db.configure_execution(engine="batch")
    try:
        db.sql(query)  # warm the plan cache so planning costs drop out
        with counters_scope() as base_scope:
            base_rows = db.sql(query).to_dicts()
        base = base_scope.snapshot().as_dict()
        base.pop(DEREF_SAVED_COUNTER, None)
        for workers in WORKER_COUNTS:
            db.configure_execution(
                engine="batch",
                workers=workers,
                pool="inline",
                morsel_size=MORSEL,
            )
            with counters_scope() as scope:
                rows = db.sql(query).to_dicts()
            counts = scope.snapshot().as_dict()
            counts.pop(DEREF_SAVED_COUNTER, None)
            assert rows == base_rows, workers
            assert counts == base, workers
    finally:
        db.configure_execution()


def test_scheduler_refork_on_version_bump():
    """DML between dispatches invalidates the pool fingerprint."""
    rng = random.Random(SEED + 7)
    database = MainMemoryDatabase()
    database.create_relation(
        "T",
        [Field("Id", FieldType.INT), Field("V", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(300):
        database.insert("T", [i, rng.randrange(50)])
    scheduler = MorselScheduler(database.catalog, workers=2)
    try:
        first = scheduler.fingerprint()
        database.insert("T", [300, 1])
        assert scheduler.fingerprint() != first
    finally:
        scheduler.close()


def test_scheduler_stats_surface(db):
    db.configure_execution(
        engine="batch", workers=2, pool="inline", morsel_size=MORSEL
    )
    try:
        db.sql("SELECT Id FROM R WHERE B > 400")
        stats = db.scheduler_stats()
        assert stats["morsels"] > 1
        assert {"dispatch_bytes", "result_bytes", "blob_cache"} <= set(stats)
        assert not {"transport", "shm"} & set(stats)
    finally:
        db.configure_execution()
