"""Dereference-cache statistics in the metrics registry.

The batch engine's memoizing key extractors (the sort keys of the
reference join algorithms and ORDER BY) tally cache hits (saved
physical dereferences) and misses; with observability metrics active,
``flush()`` publishes them as ``deref_saved_traversals_total`` and the
per-outcome ``deref_cache_requests_total`` family, visible through the
Prometheus-text exporter.
"""

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.obs import ObservabilityConfig
from repro.obs import runtime as obs_runtime
from repro.query.plan import JoinNode, ScanNode
from repro.query.predicates import gt, lt
from repro.query.vectorized import BatchExecutor


@pytest.fixture
def db():
    database = MainMemoryDatabase()
    database.create_relation(
        "R",
        [Field("Id", FieldType.INT), Field("A", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(200):
        database.insert("R", [i, i % 17])
    return database


#: A self-join by sort-merge: both inputs are quicksorted on ``A``.
_SORT_MERGE = JoinNode(ScanNode("R"), ScanNode("R"), "A", "A", "sort_merge")


def _counter_value(metrics, name, **labels):
    return metrics.counter(name, **labels).value


def test_deref_hits_and_misses_exported(db):
    db.configure_observability(ObservabilityConfig())
    act = obs_runtime.active()
    # The quicksort re-extracting the same keys makes the memo hit.
    BatchExecutor(db.catalog).execute(_SORT_MERGE)
    hits = _counter_value(
        act.metrics, "deref_cache_requests_total", outcome="hit"
    )
    misses = _counter_value(
        act.metrics, "deref_cache_requests_total", outcome="miss"
    )
    saved = _counter_value(act.metrics, "deref_saved_traversals_total")
    assert hits > 0
    assert misses > 0
    assert saved == hits


def test_deref_metrics_in_prometheus_export(db):
    db.configure_observability(ObservabilityConfig())
    BatchExecutor(db.catalog).execute(_SORT_MERGE)
    text = obs_runtime.active().export_prometheus()
    assert "deref_saved_traversals_total" in text
    assert 'deref_cache_requests_total{outcome="hit"}' in text
    assert 'deref_cache_requests_total{outcome="miss"}' in text


def test_no_metrics_when_observability_off(db):
    # No active observability: flush must be a no-op beyond the
    # counter-extra tally (and must not raise).
    plan = ScanNode("R", gt("A", 2) & lt("A", 15))
    BatchExecutor(db.catalog).execute(plan)
    assert obs_runtime.active() is None


def test_metrics_disabled_config_skips_export(db):
    db.configure_observability(ObservabilityConfig(metrics=False))
    plan = ScanNode("R", gt("A", 2) & lt("A", 15))
    BatchExecutor(db.catalog).execute(plan)
    assert obs_runtime.active().export_prometheus() == ""
