"""Metrics registry and slow-query log tests.

Covers the primitive semantics (counter monotonicity, gauge movement,
fixed-bucket histograms with cumulative ``le`` export), the family layer
(label children, kind conflicts), both exporters, and the engine-facing
behaviour: query metrics, cache-layer counters, index-probe counters,
and the ops-threshold slow-query log.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import ObservabilityConfig
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_histogram_bucketing(self):
        hist = Histogram([1.0, 5.0, 10.0])
        for value in (0.5, 1.0, 3.0, 7.0, 99.0):
            hist.observe(value)
        # le semantics: an observation equal to a bound belongs to it.
        assert hist.cumulative() == [
            (1.0, 2),
            (5.0, 3),
            (10.0, 4),
            (float("inf"), 5),
        ]
        assert hist.count == 5
        assert hist.sum == pytest.approx(110.5)

    def test_histogram_requires_bounds(self):
        with pytest.raises(ValueError):
            Histogram([])


class TestRegistry:
    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits", layer="plan").inc(3)
        registry.counter("hits", layer="ast").inc()
        assert registry.counter("hits", layer="plan").value == 3
        assert registry.counter("hits", layer="ast").value == 1

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counter("c", b="2", a="1").value == 1

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        with pytest.raises(ValueError):
            registry.gauge("requests_total")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("n", kind="x").inc(2)
        registry.histogram("lat", [1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["n"]["kind=x"] == 2
        assert snap["lat"][""]["count"] == 1

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.clear()
        assert registry.families() == []


class TestExporters:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter(
            "cache_requests_total", "Cache lookups", layer="plan",
            outcome="hit",
        ).inc(7)
        registry.gauge("relation_rows", table="Emp").set(42)
        registry.histogram(
            "query_latency_seconds", [0.001, 0.01], "Latency"
        ).observe(0.005)
        return registry

    def test_prometheus_text_format(self):
        text = self._registry().export_prometheus()
        assert "# HELP cache_requests_total Cache lookups" in text
        assert "# TYPE cache_requests_total counter" in text
        assert (
            'cache_requests_total{layer="plan",outcome="hit"} 7' in text
        )
        assert 'relation_rows{table="Emp"} 42' in text
        assert 'query_latency_seconds_bucket{le="0.001"} 0' in text
        assert 'query_latency_seconds_bucket{le="0.01"} 1' in text
        assert 'query_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "query_latency_seconds_sum 0.005" in text
        assert "query_latency_seconds_count 1" in text

    def test_jsonl_round_trips(self):
        lines = self._registry().export_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 3
        by_name = {record["name"]: record for record in records}
        cache = by_name["cache_requests_total"]
        assert cache["type"] == "counter"
        assert cache["labels"] == {"layer": "plan", "outcome": "hit"}
        assert cache["value"] == 7
        hist = by_name["query_latency_seconds"]
        assert hist["count"] == 1
        assert hist["buckets"][-1]["count"] == 1


class TestEngineMetrics:
    def test_query_metrics_recorded(self, chain_db):
        obs = chain_db.configure_observability(
            ObservabilityConfig(tracing=False)
        )
        for __ in range(3):
            chain_db.sql("SELECT * FROM Emp WHERE Id = 23")
        snap = obs.metrics.snapshot()
        assert snap["queries_total"][""] == 3
        assert snap["query_latency_seconds"][""]["count"] == 3
        assert snap["query_ops"][""]["count"] == 3

    def test_cache_and_index_counters(self, chain_db):
        chain_db.configure_cache()  # the reuse caches are opt-in
        obs = chain_db.configure_observability(ObservabilityConfig())
        sql = "SELECT Name FROM Emp WHERE Id = 31"
        chain_db.sql(sql)
        chain_db.sql(sql)  # second run hits the AST/plan caches
        snap = obs.metrics.snapshot()
        cache = snap["cache_requests_total"]
        assert cache.get("layer=ast,outcome=miss", 0) == 1
        assert cache.get("layer=ast,outcome=hit", 0) == 1
        # The repeat run is served by the result cache, which sits in
        # front of the plan cache.
        assert cache.get("layer=result,outcome=hit", 0) == 1
        probes = snap["index_probes_total"]
        assert sum(probes.values()) >= 1

    def test_slow_query_log_threshold(self, chain_db):
        obs = chain_db.configure_observability(
            ObservabilityConfig(tracing=False, slow_query_ops=1)
        )
        sql = "SELECT * FROM Emp WHERE Age > 0"
        chain_db.sql(sql)
        assert len(obs.slow_queries) == 1
        entry = obs.slow_queries[0]
        assert entry.sql == sql
        assert entry.total_ops >= 1
        assert obs.metrics.snapshot()["slow_queries_total"][""] == 1

    def test_slow_query_log_disabled_by_none(self, chain_db):
        obs = chain_db.configure_observability(
            ObservabilityConfig(tracing=False, slow_query_ops=None)
        )
        chain_db.sql("SELECT * FROM Emp WHERE Age > 0")
        assert len(obs.slow_queries) == 0

    def test_facade_exporters_when_metrics_off(self, chain_db):
        obs = chain_db.configure_observability(
            ObservabilityConfig(metrics=False)
        )
        chain_db.sql("SELECT * FROM Emp WHERE Id = 23")
        assert obs.export_prometheus() == ""
        assert obs.export_jsonl() == ""
