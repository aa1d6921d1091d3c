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
from repro.query.predicates import (
    Predicate,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from repro.query.vectorized import BatchExecutor

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
    # N.Name: a heap (STR) column with duplicates, for sort and join keys.
    database.create_relation(
        "N",
        [
            Field("Id", FieldType.INT),
            Field("A", FieldType.INT),
            Field("Name", FieldType.STR),
        ],
        primary_key="Id",
    )
    for i in range(N_S):
        database.insert(
            "N", [i, (i * 11) % VALUE_SPACE, f"n{i * 7 % 23:02d}"]
        )
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
        # -- key positions: tree inequality, sort-scan, STR keys -------
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "tree", op="<"),
        JoinNode(ScanNode("R"), ScanNode("S"), "B", "A", "tree", op=">="),
        ProjectNode(
            ScanNode("R"),
            ("A", "B"),
            deduplicate=True,
            dedup_method="sort_scan",
        ),
        ProjectNode(
            ScanNode("N"),
            ("Name",),
            deduplicate=True,
            dedup_method="sort_scan",
        ),
        JoinNode(
            ScanNode("N", lt("A", hi)),
            ScanNode("N", ge("A", lo)),
            "Name",
            "Name",
            "sort_merge",
        ),
        JoinNode(
            ScanNode("N", lt("A", lo)),
            ScanNode("N", gt("A", hi)),
            "Name",
            "Name",
            "nested_loops",
            op="<",
        ),
    ]
    return plans


class _Residue(Predicate):
    """A user-defined predicate: ``field % modulus == residue``.  It has
    no batch lowering, so the batch engine evaluates it row by row
    through a per-item field reader, and no fingerprint, so it stays out
    of ``_plan_mix()`` (``test_plan_golden`` fingerprints every plan
    there)."""

    def __init__(self, field, modulus, residue):
        self.field, self.modulus, self.residue = field, modulus, residue

    def matches(self, read_field):
        return read_field(self.field) % self.modulus == self.residue


#: User predicates as a scan filter (alone and beside a compiled
#: comparison) and as a filter above a sort-merge and a hash join.
_USER_PREDICATE_PLANS = [
    ScanNode("R", _Residue("B", 3, 1)),
    ScanNode("R", gt("A", 10) & _Residue("B", 2, 0)),
    FilterNode(ScanNode("R"), _Residue("A", 4, 3) | lt("B", 100)),
    FilterNode(
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "sort_merge"),
        _Residue("B", 5, 2),
    ),
    FilterNode(
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        _Residue("S.Id", 3, 0),
    ),
]


#: ORDER BY inputs: (plan, sort column) — INT and STR keys, with
#: duplicates, over a scan, a filter and a join.
_SORTS = [
    (ScanNode("R"), "A"),
    (ScanNode("R", gt("B", 300)), "B"),
    (ScanNode("N"), "Name"),
    (JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"), "R.A"),
    (JoinNode(ScanNode("R"), ScanNode("N"), "A", "A", "hash"), "Name"),
]


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
        assert t == b, plan.explain()


@pytest.mark.parametrize("plan", _plan_mix(), ids=lambda p: p.explain())
def test_plan_differential(db, plan):
    _assert_differential(db, plan)


@pytest.mark.parametrize(
    "plan", _USER_PREDICATE_PLANS, ids=lambda p: p.explain()
)
def test_user_predicate_differential(db, plan):
    """A Predicate subclass the engine has never seen answers alike on
    both engines: same rows, and equal counts off the hash kernels."""
    _assert_differential(db, plan)
    assert len(BatchExecutor(db.catalog).execute(plan)) > 0


@pytest.mark.parametrize(
    "plan,column", _SORTS, ids=[f"{p.explain()} BY {c}" for p, c in _SORTS]
)
def test_sort_differential(db, plan, column):
    """ORDER BY: both engines sort to the same rows at the same counts,
    extra map included."""
    runs = []
    for executor in (Executor(db.catalog), BatchExecutor(db.catalog)):
        result = executor.execute(plan)
        with counters_scope() as counters:
            rows = executor.sort_rows(result, column)
        runs.append((rows, counters.snapshot().as_dict()))
    assert runs[0] == runs[1]
    assert runs[0][1]["comparisons"] > 0


def test_batch_sort_reads_key_column_once(db, monkeypatch):
    """A batch sort reads its key column once per operator input: the
    quicksort's repeated key extractions are positions into one read."""
    calls = []
    for relation_name, field in (("R", "A"), ("N", "Name")):
        read = db.catalog.relation(relation_name).reader(field)
        column = read.column

        def logged(refs, column=column, tag=(relation_name, field)):
            calls.append((tag, len(refs)))
            return column(refs)

        monkeypatch.setattr(read, "column", logged)
    executor = BatchExecutor(db.catalog)
    for plan, name, tag in (
        (ScanNode("R"), "A", ("R", "A")),
        (ScanNode("N"), "Name", ("N", "Name")),
    ):
        result = executor.execute(plan)
        del calls[:]
        with counters_scope() as counters:
            executor.sort_rows(result, name)
        assert calls == [(tag, len(result))]
        # ...while every extraction is still charged as a traversal.
        assert counters.snapshot().traversals > len(result)


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
    """A non-hash join whose keys cannot be compared raises, on every
    run and on both engines."""
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
    query = "SELECT R.Id FROM R JOIN S ON R.A = S.A USING sort_merge"
    for engine in ("tuple", "batch"):
        database.configure_execution(engine=engine)
        for _ in range(3):
            # NULL join keys are not comparable; both engines raise.
            with pytest.raises(TypeError):
                database.sql(query)


def test_self_ref_join_key(db):
    """REF_COLUMN hash-join keys work and stay bounded."""
    plan = JoinNode(
        ScanNode("R"), ScanNode("R"), REF_COLUMN, REF_COLUMN, "hash"
    )
    _assert_differential(db, plan)


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
