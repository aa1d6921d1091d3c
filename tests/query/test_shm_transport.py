"""The morsel wire without shared memory (DESIGN.md section 3.13).

The shm morsel transport is retired: morsels, results and broadcast
probe tables travel on the pickle wire only, and the shm byte carrier
serves the replication channels alone.  These tests keep the checks
the transport's suite made that still apply, with every shm segment
create and attach forbidden while the parallel engine runs:

* the determinism differential — rows and the five Section 3.1 counter
  totals match the batch engine at ``workers {2, 4}``;
* a real fork pool gives the same rows and counts;
* a packed morsel carried through the shm carrier still slices into
  row windows;
* worker faults on the morsel path heal through retry or poison the
  morsel, and the retired ``pool.shm`` fault point is rejected.

The ``tests/query`` autouse fixture checks segment hygiene on the way
out of every test.
"""

import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import ConfigError, PoisonedMorselError
from repro.fault import FaultPolicy
from repro.instrument import counters_scope
from repro.query.parallel import ParallelBatchExecutor, shm
from repro.query.parallel.transport import encode_rows, slice_packed
from repro.query.plan import FilterNode, JoinNode, ProjectNode, ScanNode
from repro.query.predicates import gt, lt
from repro.query.vectorized import BatchExecutor

SEED = 19860528
N_R = 900
N_S = 180
VALUE_SPACE = 60
MORSEL = 128
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


@pytest.fixture
def no_shm(monkeypatch):
    """Fail any shm segment create or attach the test body makes."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the morsel wire touched shared memory")

    monkeypatch.setattr(shm.ShmArena, "create", forbidden)
    monkeypatch.setattr(shm, "attach", forbidden)


def _executor(db, workers=2, **kwargs):
    kwargs.setdefault("morsel_size", MORSEL)
    kwargs.setdefault("pool", "inline")
    return ParallelBatchExecutor(
        db.catalog, workers=workers, **kwargs
    )


def _run(executor, plan):
    with counters_scope() as counters:
        result = executor.execute(plan)
    counts = counters.snapshot().as_dict()
    return result.rows(), counts


# --------------------------------------------------------------------- #
# the carrier keeps the packed layout
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
class TestArenaLifecycle:
    def test_slice_descriptor_reads_window(self):
        rows = [(i, 2**31 + i) for i in range(100)]
        packed = shm.read_rows(shm.write_rows(encode_rows(rows)))
        assert shm.arena().active_segments() == 0
        assert slice_packed(packed, 10, 20) == encode_rows(rows[10:20])


# --------------------------------------------------------------------- #
# determinism: workers differential, no shared memory
# --------------------------------------------------------------------- #


def _plan_mix():
    return [
        ScanNode("R", gt("A", 10) & lt("A", 50)),
        FilterNode(ScanNode("R"), gt("B", 200) & lt("B", 800)),
        JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        JoinNode(ScanNode("S"), ScanNode("R"), "A", "A", "hash"),
        ProjectNode(
            ScanNode("R"), ("A",), deduplicate=True, dedup_method="hash"
        ),
        FilterNode(
            JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
            gt("B", 500),
        ),
    ]


@pytest.mark.parametrize("plan", _plan_mix(), ids=lambda p: p.explain())
def test_transport_differential(db, plan, no_shm):
    """Rows and the five Section 3.1 counter totals are bit-identical
    to the batch engine's at every worker count, with no segment
    created or attached."""
    base_rows, base_counts = _run(BatchExecutor(db.catalog), plan)
    for workers in WORKER_COUNTS:
        executor = _executor(db, workers=workers)
        try:
            rows, counts = _run(executor, plan)
        finally:
            executor.close()
        assert rows == base_rows, workers
        assert counts == base_counts, workers


def test_process_pool_shm_smoke(db, no_shm):
    """A real fork pool produces batch-identical results; its workers
    are forked with shm forbidden, so none of them used it either."""
    from repro.query.parallel import fork_available

    if not fork_available():
        pytest.skip("no fork on this platform")
    plan = JoinNode(
        ScanNode("R", gt("B", 100)), ScanNode("S"), "A", "A", "hash"
    )
    base_rows, base_counts = _run(BatchExecutor(db.catalog), plan)
    executor = _executor(db, workers=2, pool="process")
    try:
        rows, counts = _run(executor, plan)
        assert rows == base_rows
        assert counts == base_counts
        if executor.scheduler.fallback_reason is None:
            assert executor.scheduler.stats["process_runs"] > 0
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# chaos: worker faults on the probe path
# --------------------------------------------------------------------- #


PROBE_PLAN = JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")


class TestShmFaults:
    def test_attach_fault_heals_through_retry(self, db, no_shm):
        # The worker-side read of a broadcast probe table was where
        # pool.shm fired; that point is gone with the transport.
        with pytest.raises(ConfigError, match="unknown fault point"):
            db.configure_faults(
                seed=3, policies=[FaultPolicy("pool.shm", "error")]
            )
        db.configure_faults(
            seed=3,
            policies=[FaultPolicy("pool.worker", "error", max_fires=1)],
        )
        executor = _executor(db, workers=2)
        try:
            base_rows, base_counts = _run(BatchExecutor(db.catalog), PROBE_PLAN)
            rows, counts = _run(executor, PROBE_PLAN)
            assert rows == base_rows
            assert counts == base_counts
            assert executor.scheduler.stats["morsel_retries"] >= 1
        finally:
            executor.close()
            db.configure_faults()

    def test_persistent_fault_poisons_the_morsel(self, db, no_shm):
        db.configure_faults(
            seed=3, policies=[FaultPolicy("pool.worker", "error")]
        )
        executor = _executor(db, workers=2)
        try:
            with pytest.raises(PoisonedMorselError):
                executor.execute(PROBE_PLAN)
        finally:
            executor.close()
            db.configure_faults()
