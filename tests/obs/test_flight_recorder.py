"""The flight recorder, histogram quantiles, and the hotspot report."""

from __future__ import annotations

import pytest

from repro import MainMemoryDatabase
from repro.errors import ConfigError
from repro.obs import FlightRecorder, ObservabilityConfig
from repro.obs.metrics import Histogram
from repro.obs.recorder import cache_outcome, fingerprint_sql


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantile(self):
        assert Histogram((1.0, 2.0)).quantile(0.5) is None

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for _ in range(10):
            hist.observe(1.5)  # all land in the (1, 2] bucket
        # Target rank q*count falls inside the bucket; linear
        # interpolation from the lower bound.
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_spans_buckets(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for _ in range(50):
            hist.observe(0.5)
        for _ in range(50):
            hist.observe(3.0)
        p25 = hist.quantile(0.25)
        p75 = hist.quantile(0.75)
        assert 0.0 < p25 <= 1.0
        assert 2.0 < p75 <= 4.0

    def test_overflow_clamps_to_last_bound(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0

    def test_percentile_labels(self):
        hist = Histogram((1.0,))
        hist.observe(0.5)
        assert set(hist.percentiles()) == {"p50", "p95", "p99"}

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).quantile(1.5)


class TestFingerprinting:
    def test_fingerprint_collapses_whitespace(self):
        a = fingerprint_sql("SELECT  *   FROM Emp")
        b = fingerprint_sql("SELECT * FROM Emp")
        assert a == b
        assert len(a) == 8

    def test_distinct_statements_distinct_fingerprints(self):
        assert fingerprint_sql("SELECT * FROM A") != fingerprint_sql(
            "SELECT * FROM B"
        )


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        from repro.instrument import OpCounters

        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(f"SELECT {i}", 0.001, OpCounters())
        assert len(recorder.recent()) == 4
        assert recorder.recent()[-1].sql == "SELECT 9"

    def test_profiles_aggregate_by_fingerprint(self):
        from repro.instrument import OpCounters

        recorder = FlightRecorder()
        counters = OpCounters(comparisons=10)
        recorder.record("SELECT 1", 0.002, counters)
        recorder.record("SELECT  2", 0.004, counters)  # same shape
        recorder.record("SELECT x", 0.001, counters)
        profiles = recorder.profiles()
        assert len(profiles) == 2
        hottest = profiles[0]
        assert hottest.sql == "SELECT ?i"
        assert hottest.calls == 2
        assert hottest.total_seconds == pytest.approx(0.006)
        assert hottest.total_ops == 20
        assert recorder.tail_percentiles()["p50"] is not None

    def test_cache_outcome_priority(self):
        from repro.instrument import OpCounters

        counters = OpCounters()
        assert cache_outcome(counters) == "none"
        counters.extra["plan_ast_hits"] = 1
        assert cache_outcome(counters) == "ast"
        counters.extra["plan_hits"] = 1
        assert cache_outcome(counters) == "plan"
        counters.extra["result_hits"] = 1
        assert cache_outcome(counters) == "result"


@pytest.fixture
def db():
    database = MainMemoryDatabase()
    database.sql("CREATE TABLE Emp (Id INT, Age INT, PRIMARY KEY (Id))")
    for i in range(100):
        database.sql(f"INSERT INTO Emp VALUES ({i}, {20 + i % 40})")
    return database


class TestDatabaseIntegration:
    def test_statements_are_recorded_with_context(self, db):
        db.configure_execution(engine="batch", workers=2, pool="inline")
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT Id FROM Emp WHERE Age > 30")
        records = db.flight_records()
        assert len(records) == 1
        record = records[0]
        assert record.engine == "batch"
        assert record.workers == 2
        assert record.total_ops > 0
        assert record.cache == "none"

    def test_context_follows_reconfiguration(self, db):
        # Pin the starting point: REPRO_EXEC_* env defaults (the CI
        # 2-worker lane sets them) must not leak into the assertion.
        db.configure_execution(engine="batch", workers=1, pool="inline")
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT Id FROM Emp WHERE Age > 30")
        db.configure_execution(engine="batch", workers=4, pool="inline")
        db.sql("SELECT Id FROM Emp WHERE Age > 35")
        records = db.flight_records()
        assert [r.workers for r in records] == [1, 4]

    def test_result_cache_hit_recorded(self, db):
        db.configure_cache()
        db.configure_observability(ObservabilityConfig())
        sql = "SELECT Id FROM Emp WHERE Age > 30"
        db.sql(sql)
        db.sql(sql)
        records = db.flight_records()
        assert [r.cache for r in records] == ["none", "result"]

    def test_recorder_disabled_by_config(self, db):
        obs = db.configure_observability(
            ObservabilityConfig(flight_recorder=False)
        )
        db.sql("SELECT Id FROM Emp WHERE Age > 30")
        assert obs.recorder is None
        assert db.flight_records() == []

    def test_report_renders_hotspots(self, db):
        db.configure_observability(ObservabilityConfig())
        db.sql("SELECT Id FROM Emp WHERE Age > 30")
        text = db.observability_report()
        assert "Statement hotspots" in text
        assert "Tail latency" in text

    def test_report_without_observability(self, db):
        assert "not configured" in db.observability_report()


class TestSlowQueryTriggers:
    # The slow log has one trigger, the ops threshold; the wall-clock
    # threshold and the sizing fields are retired keywords.
    def test_wall_clock_threshold_fires(self):
        with pytest.raises(TypeError):
            ObservabilityConfig(
                tracing=False, slow_query_ops=None, slow_query_seconds=0.0
            )

    def test_both_thresholds_label_combined_trigger(self):
        with pytest.raises(TypeError):
            ObservabilityConfig(
                tracing=False, slow_query_ops=1, slow_query_seconds=0.0
            )

    def test_ops_only_keeps_ops_trigger(self, db):
        obs = db.configure_observability(
            ObservabilityConfig(tracing=False, slow_query_ops=1)
        )
        db.sql("SELECT Id FROM Emp WHERE Age > 30")
        assert len(obs.slow_queries) == 1
        assert obs.slow_queries[0].total_ops >= 1
        assert obs.metrics.snapshot()["slow_queries_total"][""] == 1

    def test_config_validation(self):
        with pytest.raises(TypeError):
            ObservabilityConfig(slow_query_seconds=-1.0)
        with pytest.raises(ConfigError):
            ObservabilityConfig(slow_query_ops=-5)
        with pytest.raises(TypeError):
            ObservabilityConfig(max_flight_records=0)
        with pytest.raises(TypeError):
            ObservabilityConfig(latency_buckets=())
