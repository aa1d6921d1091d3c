"""Differential tests: batch engine vs. tuple engine, same plans.

A seeded-random database is run through a mix of plan shapes covering
every operator family (scan predicates, filters, projections with both
dedup methods, all join methods, index leaves, composites).  For each
plan both engines must produce *identical rows in identical order*;
counters must be *exactly equal* on every path except the hash kernels
(hash equi-join, hash dedup), whose counts must be elementwise bounded
above by the tuple engine's (see DESIGN.md section 3.8).
"""

import random
from contextlib import contextmanager

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.cache.result_cache import ResultCache
from repro.instrument import counters_scope
from repro.obs import Observability, ObservabilityConfig
from repro.obs import runtime as obs_runtime
from repro.query.executor import Executor
from repro.query.parallel import ParallelBatchExecutor
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    IndexLookupNode,
    IndexRangeNode,
    JoinNode,
    ProjectNode,
    ScanNode,
)
from repro.query.predicates import between, eq, ge, gt, le, lt, ne
from repro.query.vectorized import DEREF_SAVED_COUNTER, BatchExecutor

SEED = 52486
N_R = 400
N_S = 90
VALUE_SPACE = 40  # heavy duplicates on the join/dedup columns


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
    # Ordered secondary indexes so the tree / tree_merge join methods
    # and index-range leaves have something to walk.
    database.create_index("R", "r_a_tree", "A", kind="ttree")
    database.create_index("S", "s_a_tree", "A", kind="ttree")
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
    plans = [
        # -- selections ------------------------------------------------
        ScanNode("R"),
        ScanNode("R", eq("A", lo)),
        ScanNode("R", gt("A", lo) & lt("A", hi)),
        ScanNode("R", between("A", lo, hi) | ge("B", 900) | le("B", 50)),
        ScanNode("R", ne("A", lo) & (gt("B", 100) | lt("A", 3))),
        FilterNode(ScanNode("R"), gt("B", 200) & lt("B", 800)),
        # -- index leaves ----------------------------------------------
        IndexLookupNode("R", "Id", N_R // 2),
        IndexRangeNode("R", "A", lo, hi),
        # -- projections -----------------------------------------------
        ProjectNode(
            ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
        ),
        ProjectNode(
            ScanNode("R"),
            ("A", "B"),
            deduplicate=True,
            dedup_method="hash",
        ),
        ProjectNode(
            ScanNode("R"),
            ("A",),
            deduplicate=True,
            dedup_method="sort_scan",
        ),
        ProjectNode(ScanNode("R"), ("B", "A"), deduplicate=False),
        # -- joins, every method ---------------------------------------
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "nested_loops"),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "sort_merge"),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "tree"),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "tree_merge"),
        JoinNode(
            ScanNode("R"), ScanNode("S"), "A", "A", "nested_loops", op="<"
        ),
        JoinNode(
            ScanNode("R"), ScanNode("S"), "A", "A", "nested_loops", op="!="
        ),
        # -- composites ------------------------------------------------
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
        JoinNode(
            ScanNode("R", between("B", 100, 700)),
            ScanNode("S"),
            "A",
            "A",
            "sort_merge",
        ),
    ]
    return plans


def _uses_hash_kernel(plan) -> bool:
    if isinstance(plan, JoinNode):
        return (
            (plan.op == "=" and plan.method == "hash")
            or _uses_hash_kernel(plan.left)
            or _uses_hash_kernel(plan.right)
        )
    if (
        isinstance(plan, ProjectNode)
        and plan.deduplicate
        and plan.dedup_method == "hash"
    ):
        return True
    child = getattr(plan, "child", None)
    return child is not None and _uses_hash_kernel(child)


_COUNTER_FIELDS = (
    "comparisons",
    "traversals",
    "moves",
    "hashes",
    "allocations",
)


def _run(executor, plan):
    with counters_scope() as counters:
        result = executor.execute(plan)
    return result, counters.snapshot()


def _assert_differential(db, plan, executor=None):
    tuple_result, tuple_counts = _run(Executor(db.catalog), plan)
    batch_result, batch_counts = _run(
        executor or BatchExecutor(db.catalog), plan
    )
    assert tuple_result.rows() == batch_result.rows(), plan.explain()
    assert [c.name for c in tuple_result.descriptor.columns] == [
        c.name for c in batch_result.descriptor.columns
    ]
    if _uses_hash_kernel(plan):
        for field in _COUNTER_FIELDS:
            assert getattr(batch_counts, field) <= getattr(
                tuple_counts, field
            ), (plan.explain(), field)
    else:
        t = tuple_counts.as_dict()
        b = batch_counts.as_dict()
        b.pop(DEREF_SAVED_COUNTER, None)
        assert t == b, plan.explain()


@pytest.mark.parametrize("plan", _plan_mix(), ids=lambda p: p.explain())
def test_plan_differential(db, plan):
    _assert_differential(db, plan)


@pytest.mark.parametrize("morsel_size", [1, 7, 64, 1024])
def test_batch_size_invariance(db, morsel_size):
    """Results and counts must not depend on the size of the batches the
    rows are cut into: the parallel engine's morsels, down to one row."""
    plans = [
        ScanNode("R", gt("A", 5) & lt("A", 30)),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        ProjectNode(
            ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
        ),
    ]
    executor = ParallelBatchExecutor(
        db.catalog, workers=2, morsel_size=morsel_size, pool="inline"
    )
    try:
        for plan in plans:
            _assert_differential(db, plan, executor)
    finally:
        executor.close()


class _ColdCache(ResultCache):
    """A result cache whose snapshot copies (its own bookkeeping: one
    move per stored row) stay out of the engine's counts."""

    def store_plan(self, plan, result):
        with counters_scope():
            super().store_plan(plan, result)


@contextmanager
def _attached(db, workers, attachment):
    """A fresh batch engine, bare or with ``attachment`` in force."""
    cache = _ColdCache(db.catalog) if attachment == "cache" else None
    if workers == 1:
        executor = BatchExecutor(db.catalog, cache)
    else:
        # Morsels far below the table sizes, so every kernel the pool
        # can take is dispatched.
        executor = ParallelBatchExecutor(
            db.catalog, cache, workers=workers, morsel_size=32, pool="inline"
        )
    previous = obs_runtime.active()
    if attachment == "tracer":
        obs_runtime.activate(
            Observability(ObservabilityConfig(metrics=False))
        )
    try:
        yield executor
    finally:
        obs_runtime.activate(previous)
        if workers > 1:
            executor.close()


@pytest.mark.parametrize("workers", [1, 2], ids=["batch", "parallel"])
def test_same_answer_whatever_is_attached(db, workers):
    """Rows and the five counters do not depend on whether a result
    cache or a tracer is attached: every node runs the same kernels."""
    for plan in _plan_mix():
        runs = {}
        for attachment in ("bare", "cache", "tracer"):
            with _attached(db, workers, attachment) as executor:
                result, counts = _run(executor, plan)
            runs[attachment] = (
                result.rows(),
                [getattr(counts, field) for field in _COUNTER_FIELDS],
            )
        assert runs["cache"] == runs["bare"], plan.explain()
        assert runs["tracer"] == runs["bare"], plan.explain()


def test_failed_join_releases_cached_keys():
    """A non-hash join that raises leaves no cached key extractor (each
    holds a memo of every row) behind on the executor."""
    database = MainMemoryDatabase()
    for name in ("R", "S"):
        database.create_relation(
            name,
            [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
            primary_key="Id",
        )
    for i in range(5):
        database.insert("R", [i, None if i == 2 else i])
        database.insert("S", [i, i])
    database.configure_execution(engine="batch")
    query = "SELECT R.Id FROM R JOIN S ON R.A = S.A USING sort_merge"
    for _ in range(3):
        # NULL join keys are not comparable; both engines raise.
        with pytest.raises(TypeError):
            database.sql(query)
        assert database.executor._live_keys == []


def test_self_ref_join_key(db):
    """REF_COLUMN hash-join keys work and stay bounded."""
    plan = JoinNode(
        ScanNode("R"), ScanNode("R"), REF_COLUMN, REF_COLUMN, "hash"
    )
    _assert_differential(db, plan)


def test_deref_savings_reported(db):
    """Sort-merge join keys, re-extracted by the quicksort, report saved
    physical dereferences."""
    plan = JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "sort_merge")
    _, counts = _run(BatchExecutor(db.catalog), plan)
    assert counts.extra.get(DEREF_SAVED_COUNTER, 0) > 0


def test_database_level_switch(db):
    """configure_execution swaps engines; SQL results stay identical."""
    query = (
        "SELECT R.A, S.Id FROM R JOIN S ON R.A = S.A WHERE R.B > 400 "
        "ORDER BY S.Id"
    )
    db.configure_execution(engine="tuple")
    with counters_scope() as ct:
        tuple_rows = db.sql(query).to_dicts()
    db.configure_execution(engine="batch")
    assert db.executor.engine_name == "batch"
    with counters_scope() as cb:
        batch_rows = db.sql(query).to_dicts()
    db.configure_execution()  # restore the default tuple engine
    assert db.executor.engine_name == "tuple"
    assert tuple_rows == batch_rows
    for field in _COUNTER_FIELDS:
        assert getattr(cb.snapshot(), field) <= getattr(
            ct.snapshot(), field
        )
