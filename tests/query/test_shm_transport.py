"""The shared-memory morsel transport (DESIGN.md section 3.13).

Covers the full contract stack:

* the segment carries exactly the packed wire bytes (rows, slices);
* :class:`ShmArena` lifecycle — create/unlink/transfer/drain, fork-child
  disownment (a child must never unlink the parent's live segments);
* the worker-side :class:`SegmentCache` and probe-table LRU bounds;
* the determinism contract — bit-identical rows and Section 3.1 counter
  totals across ``transport {pickle, shm}`` × ``workers {1, 2, 4}``;
* the zero-overhead contract — the pickle wire is byte-identical
  before, during-off, and after shm use (off/on/off);
* threshold gating, platform fallback, ``pool.shm`` chaos healing;
* the measured payoff — a ≥5x coordinator pipe-byte reduction on the
  wide-probe workload — and the observability surfaces that report it.

Every test asserts segment hygiene on the way out: the module-level
autouse fixture fails any test that leaves an owned segment or a
``repro-*`` entry in ``/dev/shm``.
"""

import os
import pickle
import random

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import ConfigError, PoisonedMorselError
from repro.fault import FaultPolicy
from repro.instrument import counters_scope
from repro.query.parallel import ParallelBatchExecutor, shm, tasks
from repro.query.parallel.transport import encode_refs, encode_rows
from repro.query.plan import FilterNode, JoinNode, ProjectNode, ScanNode
from repro.query.predicates import gt, lt
from repro.query.vectorized import DEREF_SAVED_COUNTER, BatchExecutor
from repro.query.vectorized.config import ExecutionConfig

SEED = 19860528
N_R = 900
N_S = 180
VALUE_SPACE = 60
MORSEL = 128
THRESHOLD = 64  # far below the data size so every packable path packs
WORKER_COUNTS = (2, 4)


def _dev_shm_residue():
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith("repro-")]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_leaked_segments():
    yield
    assert shm.arena().active_segments() == 0
    assert _dev_shm_residue() == []


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


def _executor(db, workers=2, transport="shm", **kwargs):
    kwargs.setdefault("morsel_size", MORSEL)
    kwargs.setdefault("shm_threshold_rows", THRESHOLD)
    kwargs.setdefault("pool", "inline")
    return ParallelBatchExecutor(
        db.catalog,
        batch_size=64,
        workers=workers,
        transport=transport,
        **kwargs,
    )


def _run(executor, plan):
    with counters_scope() as counters:
        result = executor.execute(plan)
    counts = counters.snapshot().as_dict()
    counts.pop(DEREF_SAVED_COUNTER, None)
    return result.rows(), counts


# --------------------------------------------------------------------- #
# arena lifecycle
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
class TestArenaLifecycle:
    def test_write_read_unlink_rows(self):
        packed = encode_rows([(i, 1 << 32 | i + 1) for i in range(50)])
        before = shm.arena().active_segments()
        descriptor = shm.write_rows(packed)
        assert shm.is_rows(descriptor)
        # One layout, two carriers: the segment holds the wire bytes
        # themselves — 8 per pointer word, no header.
        assert descriptor[2:] == (2, 50 * 2 * 8)
        assert shm.arena().active_segments() == before + 1
        assert shm.read_rows(descriptor, unlink=True) == packed
        assert shm.arena().active_segments() == before

    def test_read_without_unlink_keeps_segment(self):
        packed = encode_refs([1])
        descriptor = shm.write_rows(packed)
        assert shm.read_rows(descriptor, unlink=False) == packed
        # Still attachable by name — then reclaim it.
        assert shm.read_rows(descriptor, unlink=True) == packed

    def test_blob_round_trip(self):
        blob = os.urandom(10_000)
        descriptor = shm.write_blob(blob)
        assert shm.is_blob(descriptor)
        try:
            assert shm.read_blob(descriptor) == blob
        finally:
            shm.arena().unlink(descriptor[1])

    def test_slice_descriptor_reads_window(self):
        rows = [(i, 2**31 + i) for i in range(100)]
        name = shm.write_rows(encode_rows(rows))[1]
        try:
            segment = shm.attach(name)
            try:
                window = shm.shm_slice(name, 2, 10, 20)
                assert shm.read_slice(window, segment) == encode_rows(
                    rows[10:20]
                )
            finally:
                segment.close()
        finally:
            shm.arena().unlink(name)

    def test_transfer_moves_unlink_duty(self):
        # A transferred descriptor is not owned by the creating arena
        # (the receiver unlinks) — exactly the worker-result protocol.
        descriptor = shm.write_rows(encode_refs([1, 2]), transfer=True)
        assert shm.arena().active_segments() == 0
        assert _dev_shm_residue() != []  # alive until the reader reaps it
        assert shm.read_rows(descriptor, unlink=True) == encode_refs([1, 2])
        assert _dev_shm_residue() == []

    def test_drain_reaps_everything_owned(self):
        shm.write_rows(encode_refs([1]))
        shm.write_rows(encode_refs([2]))
        assert shm.arena().drain() >= 2
        assert shm.arena().active_segments() == 0

    def test_unlink_tolerates_missing_segment(self):
        shm.arena().unlink("repro-never-existed-12345")

    def test_forked_child_disowns_parent_segments(self):
        # Re-fork safety: a forked child inherits the arena registry
        # copy-on-write but must abandon it — the parent's segment has
        # to survive any child-side drain (e.g. the child's atexit).
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        descriptor = shm.write_rows(encode_refs([7]))
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
            # The parent's segment survived the child's drain.
            assert shm.read_rows(descriptor, unlink=False) == encode_refs(
                [7]
            )
        finally:
            shm.arena().unlink(descriptor[1])


# --------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
class TestSegmentCache:
    def test_lru_eviction_and_counters(self):
        names = [shm.write_rows(encode_refs([i]))[1] for i in range(3)]
        cache = shm.SegmentCache(limit=2)
        try:
            cache.get(names[0])
            cache.get(names[1])
            assert cache.get(names[0]) is cache.get(names[0])  # hits
            cache.get(names[2])  # evicts names[1] (LRU)
            stats = cache.stats()
            assert stats["evictions"] == 1
            assert stats["attached"] == 2
            assert stats["hits"] >= 2
            assert stats["misses"] == 3
            # names[1] re-attaches: a miss, not an error.
            cache.get(names[1])
            assert cache.stats()["evictions"] == 2
        finally:
            cache.clear()
            for name in names:
                shm.arena().unlink(name)


class TestBlobCacheLRU:
    def test_bounded_with_eviction_counter(self):
        tasks.reset_blob_cache()
        try:
            limit = tasks._TABLE_CACHE_LIMIT
            for i in range(limit + 2):
                tasks._cache_table((0, i), {"t": i})
            stats = tasks.blob_cache_stats()
            assert stats["entries"] == limit
            assert stats["evictions"] == 2
            # Oldest entries fell out; newest survive.
            assert (0, 0) not in tasks._TABLE_CACHE
            assert (0, limit + 1) in tasks._TABLE_CACHE
        finally:
            tasks.reset_blob_cache()

    def test_probe_workload_evicts_past_limit(self, db):
        # Each hash-join statement broadcasts a fresh table_id, so more
        # than _TABLE_CACHE_LIMIT joins must evict (this was previously
        # unbounded growth across statements).
        tasks.reset_blob_cache()
        executor = _executor(db, workers=2)
        try:
            for lo in range(tasks._TABLE_CACHE_LIMIT + 2):
                plan = JoinNode(
                    ScanNode("R"),
                    ScanNode("S", gt("A", lo)),
                    "A",
                    "A",
                    "hash",
                )
                executor.execute(plan)
            assert tasks.blob_cache_stats()["evictions"] >= 1
        finally:
            executor.close()
            tasks.reset_blob_cache()


# --------------------------------------------------------------------- #
# determinism: transport x workers differential
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
def test_transport_differential(db, plan):
    """Rows and the five Section 3.1 counter totals are bit-identical
    across transports and worker counts (workers=1 is the scalar
    engine)."""
    base_rows, base_counts = _run(
        BatchExecutor(db.catalog, batch_size=64), plan
    )
    for transport in ("pickle", "shm"):
        for workers in WORKER_COUNTS:
            executor = _executor(db, workers=workers, transport=transport)
            try:
                rows, counts = _run(executor, plan)
            finally:
                executor.close()
            assert rows == base_rows, (transport, workers)
            assert counts == base_counts, (transport, workers)


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
def test_shm_path_actually_packs(db):
    """The differential is meaningless if shm never engages: a big
    filter must create dispatch segments and packed results."""
    executor = _executor(db, workers=2)
    created_before = shm.arena().created_segments
    plan = FilterNode(ScanNode("R"), gt("B", 100))
    try:
        rows, __ = _run(executor, plan)
        assert rows
        assert shm.arena().created_segments > created_before
    finally:
        executor.close()


def test_process_pool_shm_smoke(db):
    """A real fork pool over shm produces scalar-identical results."""
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
# zero-overhead: the pickle wire stays byte-identical (off/on/off)
# --------------------------------------------------------------------- #


def _pin_token(db, executor, token=424_242):
    """Give an executor a fixed catalog token so wire captures from
    different executor instances are comparable byte-for-byte.
    Returns the displaced token so the caller can restore it before
    the executor is garbage-collected (``__del__`` closes again, and a
    second release of the *pinned* token would unregister whichever
    later executor holds it)."""
    original = executor.scheduler.token
    tasks.release_catalog(original)
    executor.scheduler.token = token
    tasks.register_catalog(token, db.catalog)
    return original


def _capture_wire(db, transport):
    executor = _executor(db, workers=2, transport=transport)
    displaced = _pin_token(db, executor)
    captured = []
    original = executor.scheduler.run

    def spy(kind, payloads):
        captured.append(
            (kind, pickle.dumps(payloads, pickle.HIGHEST_PROTOCOL))
        )
        return original(kind, payloads)

    executor.scheduler.run = spy
    try:
        for plan in (
            FilterNode(ScanNode("R"), gt("B", 300)),
            JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash"),
        ):
            executor.execute(plan)
    finally:
        executor.close()
        executor.scheduler.token = displaced  # de-pin for __del__
    return captured


def test_pickle_wire_byte_identical_off_on_off(db):
    before = _capture_wire(db, "pickle")
    during = _capture_wire(db, "shm")  # exercises shm in between
    after = _capture_wire(db, "pickle")
    assert before == after  # byte-identical, not merely equal rows
    assert all(
        shm.REQUEST_TAG not in repr(payload) for __, payload in before
    )
    # ... and the shm run really did use the wrapper protocol.
    assert any(
        pickle.loads(payload)[0][0] == shm.REQUEST_TAG
        for __, payload in during
    )


# --------------------------------------------------------------------- #
# gating and fallback
# --------------------------------------------------------------------- #


class TestGating:
    def test_below_threshold_creates_no_segments(self, db):
        executor = _executor(
            db, workers=2, shm_threshold_rows=10 * N_R
        )
        created_before = shm.arena().created_segments
        try:
            rows, __ = _run(
                executor, FilterNode(ScanNode("R"), gt("B", 100))
            )
            assert rows
            assert shm.arena().created_segments == created_before
        finally:
            executor.close()

    def test_unavailable_platform_falls_back_loudly(self, db, monkeypatch):
        monkeypatch.setattr(shm, "shared_memory", None)
        assert not shm.available()
        with pytest.warns(RuntimeWarning, match="shared_memory unavailable"):
            executor = _executor(db, workers=2, transport="shm")
        try:
            assert executor.transport == "pickle"
            assert executor.transport_fallback is not None
            base_rows, __ = _run(
                BatchExecutor(db.catalog, batch_size=64),
                ScanNode("R", gt("A", 20)),
            )
            rows, __ = _run(executor, ScanNode("R", gt("A", 20)))
            assert rows == base_rows
        finally:
            executor.close()

    def test_config_validates_transport(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(engine="batch", transport="carrier-pigeon")
        with pytest.raises(ConfigError):
            ExecutionConfig(engine="batch", shm_threshold_rows=0)

    def test_env_default_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert ExecutionConfig().transport == "pickle"
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert ExecutionConfig().transport == "shm"
        # Explicit settings beat the environment.
        assert ExecutionConfig(transport="pickle").transport == "pickle"

    def test_configure_execution_keywords(self, db):
        db2 = MainMemoryDatabase()
        db2.create_relation(
            "T",
            [Field("Id", FieldType.INT), Field("V", FieldType.INT)],
            primary_key="Id",
        )
        db2.configure_execution(
            engine="batch",
            workers=2,
            pool="inline",
            transport="shm",
            shm_threshold_rows=128,
        )
        try:
            assert db2.executor.transport == "shm"
            assert db2.executor.shm_threshold_rows == 128
            assert db2.scheduler_stats()["transport"] == "shm"
        finally:
            db2.configure_execution()


# --------------------------------------------------------------------- #
# chaos: the pool.shm fault point
# --------------------------------------------------------------------- #


class TestShmFaults:
    def test_attach_fault_heals_through_retry(self, db):
        db.configure_faults(
            seed=3,
            policies=[FaultPolicy("pool.shm", "error", max_fires=1)],
        )
        executor = _executor(db, workers=2)
        try:
            base_rows, base_counts = _run(
                BatchExecutor(db.catalog, batch_size=64),
                FilterNode(ScanNode("R"), gt("B", 200)),
            )
            rows, counts = _run(
                executor, FilterNode(ScanNode("R"), gt("B", 200))
            )
            assert rows == base_rows
            assert counts == base_counts
            assert executor.scheduler.stats["morsel_retries"] >= 1
        finally:
            executor.close()
            db.configure_faults()

    def test_persistent_fault_poisons_the_morsel(self, db):
        db.configure_faults(
            seed=3, policies=[FaultPolicy("pool.shm", "error")]
        )
        executor = _executor(db, workers=2)
        try:
            with pytest.raises(PoisonedMorselError):
                executor.execute(FilterNode(ScanNode("R"), gt("B", 200)))
            # The doomed run reaped its packed result segments; the
            # autouse fixture verifies /dev/shm hygiene on the way out.
        finally:
            executor.close()
            db.configure_faults()


# --------------------------------------------------------------------- #
# the payoff: measured pipe-byte reduction, and its surfaces
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def wide_db():
    # The bench workload in miniature: a high fan-out probe whose
    # joined rows dwarf the fixed per-morsel payload overhead.
    rng = random.Random(SEED + 1)
    database = MainMemoryDatabase()
    database.create_relation(
        "R2",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    database.create_relation(
        "S2",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(3000):
        database.insert("R2", [i, rng.randrange(20)])
    for i in range(200):
        database.insert("S2", [i, rng.randrange(20)])
    return database


def _wide_probe_bytes(wide_db, transport):
    executor = _executor(wide_db, workers=2, transport=transport,
                         morsel_size=256)
    executor.scheduler.measure_bytes = True
    plan = JoinNode(ScanNode("R2"), ScanNode("S2"), "A", "A", "hash")
    try:
        rows, __ = _run(executor, plan)
        stats = executor.scheduler.stats
        return rows, stats["dispatch_bytes"] + stats["result_bytes"]
    finally:
        executor.close()


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
def test_wide_probe_pipe_bytes_reduced_5x(wide_db):
    pickle_rows, pickle_bytes = _wide_probe_bytes(wide_db, "pickle")
    shm_rows, shm_bytes = _wide_probe_bytes(wide_db, "shm")
    assert shm_rows == pickle_rows
    assert pickle_bytes >= 5 * shm_bytes, (pickle_bytes, shm_bytes)


@pytest.mark.skipif(not shm.available(), reason="no shared_memory")
def test_transport_metrics_and_span_annotations(db):
    from repro.obs import runtime as obs_runtime

    db.configure_observability()
    executor = _executor(db, workers=2)
    try:
        executor.execute(
            JoinNode(ScanNode("R"), ScanNode("S"), "A", "A", "hash")
        )
        metrics = db.observability.metrics
        assert (
            metrics.counter(
                "transport_bytes_total", path="dispatch", transport="shm"
            ).value
            > 0
        )
        assert (
            metrics.counter(
                "transport_bytes_total", path="result", transport="shm"
            ).value
            > 0
        )
        # All segments are reclaimed by the time the run finishes.
        assert metrics.gauge("shm_segments_active").value == 0

        def morsel_spans(span):
            found = []
            if span.attrs.get("transport") is not None:
                found.append(span)
            for child in span.children:
                found.extend(morsel_spans(child))
            return found

        annotated = morsel_spans(db.observability.tracer.last())
        assert annotated
        assert all(
            span.attrs["payload_bytes"] > 0 for span in annotated
        )
        assert {span.attrs["transport"] for span in annotated} == {"shm"}
    finally:
        executor.close()
        obs_runtime.deactivate()
        db.observability = None


def test_scheduler_stats_surface(db):
    db.configure_execution(
        engine="batch",
        workers=2,
        pool="inline",
        morsel_size=MORSEL,
        transport="shm",
        shm_threshold_rows=THRESHOLD,
    )
    try:
        db.sql("SELECT Id FROM R WHERE B > 400")
        stats = db.scheduler_stats()
        assert stats["transport"] == "shm"
        assert stats["shm"]["segments_active"] == 0
        assert "blob_cache" in stats
        assert {"dispatch_bytes", "result_bytes"} <= set(stats)
    finally:
        db.configure_execution()
