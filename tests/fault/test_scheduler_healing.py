"""Self-healing morsel scheduler: retry, re-fork, quarantine, poison.

The healing contract (DESIGN.md section 3.10): injected worker faults
never change results — a retried or quarantined morsel merges its packed
counts exactly once, so rows and Section 3.1 totals stay bit-identical
to the fault-free run, and only when the retry budget is truly exhausted
does a typed ``PoisonedMorselError`` surface.
"""

import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import PoisonedMorselError
from repro.fault import FaultInjector, FaultPolicy
from repro.fault import runtime as fault_runtime
from repro.instrument import counters_scope
from repro.obs import ObservabilityConfig
from repro.obs import runtime as obs_runtime
from repro.query.parallel import ParallelBatchExecutor, fork_available
from repro.query.plan import FilterNode, JoinNode, ScanNode
from repro.query.predicates import gt
from repro.query.vectorized import BatchExecutor

SEED = 424242
N_R = 600
N_S = 120
MORSEL = 96

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)


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
        database.insert("R", [i, rng.randrange(40), rng.randrange(1_000)])
    for i in range(N_S):
        database.insert("S", [i, rng.randrange(40)])
    return database


def _executor(db, pool="inline"):
    return ParallelBatchExecutor(
        db.catalog,
        workers=2,
        morsel_size=MORSEL,
        pool=pool,
    )


def _run(executor, plan):
    with counters_scope() as counters:
        result = executor.execute(plan)
    counts = counters.snapshot().as_dict()
    return result.rows(), counts


def _activate(policies, seed=7):
    fault_runtime.activate(FaultInjector(seed=seed, policies=policies))


PLAN = FilterNode(ScanNode("R"), gt("B", 250))
JOIN_PLAN = JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")


class TestFallbackReason:
    def test_reason_resets_per_run(self, db):
        executor = _executor(db, pool="process")
        try:
            _activate(
                [FaultPolicy("pool.dispatch", one_shot=True)]
            )
            executor.execute(PLAN)  # dispatch fault -> whole-run inline
            assert (
                executor.scheduler.fallback_code == "injected-dispatch-fault"
            )
            assert executor.scheduler.fallback_reason is not None
            executor.execute(PLAN)  # fault expired: no stale reason
            if fork_available():
                assert executor.scheduler.fallback_reason is None
                assert executor.scheduler.fallback_code is None
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_fallback_exported_as_metric(self, db):
        db_obs = MainMemoryDatabase()
        obs = db_obs.configure_observability(ObservabilityConfig())
        executor = _executor(db, pool="process")
        try:
            _activate([FaultPolicy("pool.dispatch", one_shot=True)])
            executor.execute(PLAN)
            assert (
                obs.metrics.counter(
                    "scheduler_fallback_total",
                    reason="injected-dispatch-fault",
                ).value
                == 1
            )
        finally:
            executor.close()
            fault_runtime.deactivate()


class TestInlineHealing:
    """pool='inline' exercises the retry machinery deterministically."""

    def test_transient_fault_retries_and_matches_baseline(self, db):
        base = BatchExecutor(db.catalog)
        expected_rows, expected_counts = _run(base, PLAN)
        executor = _executor(db)
        try:
            _activate(
                [FaultPolicy("pool.worker", one_shot=True)],
            )
            rows, counts = _run(executor, PLAN)
            assert rows == expected_rows
            assert counts == expected_counts
            assert executor.scheduler.stats["morsel_retries"] == 1
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_persistent_fault_poisons_morsel(self, db):
        executor = _executor(db)
        try:
            _activate([FaultPolicy("pool.worker")])  # never stops failing
            with pytest.raises(PoisonedMorselError) as err:
                executor.execute(PLAN)
            assert "retry budget" in str(err.value)
            assert err.value.index == 0
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_healed_run_after_poison(self, db):
        # The scheduler is not wedged by a poisoned morsel: with the
        # fault gone the next run succeeds.
        base_rows, base_counts = _run(BatchExecutor(db.catalog), PLAN)
        executor = _executor(db)
        try:
            _activate([FaultPolicy("pool.worker")])
            with pytest.raises(PoisonedMorselError):
                executor.execute(PLAN)
            fault_runtime.deactivate()
            rows, counts = _run(executor, PLAN)
            assert rows == base_rows
            assert counts == base_counts
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_poison_metrics_exported(self, db):
        db_obs = MainMemoryDatabase()
        obs = db_obs.configure_observability(ObservabilityConfig())
        executor = _executor(db)
        try:
            _activate([FaultPolicy("pool.worker")])
            with pytest.raises(PoisonedMorselError):
                executor.execute(PLAN)
            snapshot = obs.metrics.snapshot()
            assert "poisoned_morsels_total" in snapshot
            assert "morsel_retries_total" in snapshot
        finally:
            executor.close()
            fault_runtime.deactivate()


@needs_fork
class TestPooledHealing:
    def test_one_shot_error_heals_with_identical_results(self, db):
        base_rows, base_counts = _run(BatchExecutor(db.catalog), PLAN)
        executor = _executor(db, pool="process")
        try:
            _activate([FaultPolicy("pool.worker", one_shot=True)])
            rows, counts = _run(executor, PLAN)
            assert rows == base_rows
            assert counts == base_counts
            stats = executor.scheduler.stats
            assert stats["morsel_retries"] == 1
            # The retried morsel was differentially re-verified inline.
            assert stats["verified_retries"] == 1
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_worker_kill_reforks_pool(self, db):
        base_rows, base_counts = _run(BatchExecutor(db.catalog), JOIN_PLAN)
        executor = _executor(db, pool="process")
        try:
            _activate(
                [FaultPolicy("pool.worker", action="kill", one_shot=True)]
            )
            rows, counts = _run(executor, JOIN_PLAN)
            assert rows == base_rows
            assert counts == base_counts
            assert executor.scheduler.stats["pool_reforks"] >= 1
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_quarantined_morsel_runs_inline_once(self, db):
        base_rows, base_counts = _run(BatchExecutor(db.catalog), PLAN)
        executor = _executor(db, pool="process")
        try:
            # Morsel 2 fails both pooled attempts; by the time the
            # quarantine path re-executes it inline the fault budget is
            # spent, so the inline run succeeds.
            _activate(
                [
                    FaultPolicy(
                        "pool.worker", match={"morsel": 2}, max_fires=2
                    )
                ]
            )
            rows, counts = _run(executor, PLAN)
            assert rows == base_rows
            assert counts == base_counts
            stats = executor.scheduler.stats
            assert stats["quarantined_morsels"] == 1
            assert executor.scheduler.fallback_reason is None
        finally:
            executor.close()
            fault_runtime.deactivate()

    def test_scheduler_metrics_exported(self, db):
        db_obs = MainMemoryDatabase()
        obs = db_obs.configure_observability(ObservabilityConfig())
        executor = _executor(db, pool="process")
        try:
            _activate([FaultPolicy("pool.worker", one_shot=True)])
            executor.execute(PLAN)
            retries = obs.metrics.snapshot().get("morsel_retries_total", {})
            assert sum(retries.values()) == 1
        finally:
            executor.close()
            fault_runtime.deactivate()
