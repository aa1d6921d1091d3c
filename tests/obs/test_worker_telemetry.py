"""Per-worker telemetry: scheduler worker stats and labelled metrics.

Telemetry only flows when observability is active (the request tuple
stays two-element otherwise — the zero-overhead contract), and lands in
two places: ``scheduler.worker_stats`` (surfaced by
``db.scheduler_stats()``) and ``worker``-labelled series in the metrics
registry, visible through the standard exporters.
"""

from __future__ import annotations

import pytest

from repro import MainMemoryDatabase
from repro.obs import ObservabilityConfig
from repro.obs.config import DEFAULT_WORKER_MORSEL_BUCKETS

#: The scheduler's run-counter keys, a stable public surface.
SCHEDULER_STAT_KEYS = {
    "pool_forks",
    "pool_reforks",
    "process_runs",
    "inline_runs",
    "morsels",
    "morsel_retries",
    "quarantined_morsels",
    "verified_retries",
    "dispatch_bytes",
    "result_bytes",
}


@pytest.fixture
def db():
    database = MainMemoryDatabase()
    database.sql("CREATE TABLE t (id INT, v INT)")
    for start in range(0, 2000, 500):
        values = ", ".join(
            f"({i}, {i % 17})" for i in range(start, start + 500)
        )
        database.sql(f"INSERT INTO t VALUES {values}")
    database.configure_execution(
        engine="batch", workers=2, pool="inline", morsel_size=256
    )
    return database


class TestWorkerStats:
    def test_no_telemetry_without_observability(self, db):
        db.sql("SELECT id FROM t WHERE v = 3")
        stats = db.scheduler_stats()
        assert stats["workers"] == {}
        assert stats["morsels"] > 0

    def test_scheduler_stats_keys_are_stable(self, db):
        db.sql("SELECT id FROM t WHERE v = 3")
        scheduler = db.executor.scheduler
        assert set(scheduler.stats) == SCHEDULER_STAT_KEYS

    def test_worker_stats_populated_when_active(self, db):
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        workers = db.scheduler_stats()["workers"]
        assert workers
        total_morsels = sum(w["morsels"] for w in workers.values())
        assert total_morsels == db.scheduler_stats()["morsels"]
        for per in workers.values():
            assert per["busy_seconds"] > 0.0
            assert per["queue_wait_seconds"] >= 0.0
            assert per["retried_morsels"] == 0
            assert per["quarantined_morsels"] == 0

    def test_retry_attribution(self, db):
        db.configure_observability(ObservabilityConfig())
        db.configure_faults(spec="seed=7;pool.worker:action=error,once=1")
        db.sql("SELECT id FROM t WHERE v = 3")
        workers = db.scheduler_stats()["workers"]
        assert sum(w["retried_morsels"] for w in workers.values()) == 1


class TestWorkerMetrics:
    def test_worker_labelled_series_exported(self, db):
        obs = db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        snap = obs.metrics.snapshot()
        morsel_series = snap["worker_morsels_total"]
        assert morsel_series
        assert all("worker=" in label for label in morsel_series)
        assert "worker_morsel_seconds" in snap
        assert "worker_queue_wait_seconds_total" in snap
        text = obs.export_prometheus()
        assert "worker_morsels_total{" in text
        assert "worker_morsel_seconds_bucket{" in text

    def test_worker_morsel_seconds_percentiles(self, db):
        obs = db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        workers = db.scheduler_stats()["workers"]
        pid = next(iter(workers))
        hist = obs.metrics.histogram(
            "worker_morsel_seconds",
            DEFAULT_WORKER_MORSEL_BUCKETS,
            worker=pid,
        )
        assert hist.count == workers[pid]["morsels"]
        assert hist.quantile(0.5) is not None

    def test_traced_tasks_build_no_metrics_registry(self, db, monkeypatch):
        """A traced morsel's worker-local observability carries no
        metrics registry (nothing reads one), and the coordinator's
        registry still receives every worker series."""
        from repro.obs import core

        obs = db.configure_observability(ObservabilityConfig())
        built = []

        class Recording(core.MetricsRegistry):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(core, "MetricsRegistry", Recording)
        registry = obs.metrics
        db.sql("SELECT id FROM t WHERE v = 3")
        assert built == []
        assert obs.metrics is registry
        morsels = db.scheduler_stats()["morsels"]
        assert morsels > 1
        series = obs.metrics.snapshot()["worker_morsels_total"]
        assert sum(series.values()) == morsels

    def test_report_includes_worker_section(self, db):
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        text = db.observability_report()
        assert "Per-worker telemetry:" in text
        assert "queue_wait" in text


class TestProcessPoolTelemetry:
    def test_fork_pool_ships_telemetry_home(self, db):
        import os

        from repro.query.parallel.scheduler import fork_available

        if not fork_available():
            pytest.skip("no fork start method on this platform")
        db.configure_execution(
            engine="batch", workers=2, pool="process", morsel_size=256
        )
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        stats = db.scheduler_stats()
        if stats["process_runs"] == 0:
            pytest.skip("pool degraded to inline in this sandbox")
        workers = stats["workers"]
        assert workers
        # Real child processes: no worker pid is the coordinator's.
        assert os.getpid() not in workers
