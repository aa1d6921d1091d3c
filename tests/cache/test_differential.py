"""Differential safety: a mixed workload with caching on must produce
exactly the rows the uncached engine produces, mutation by mutation."""

from __future__ import annotations

import random

from repro.cache import CacheConfig
from repro.cache import plan_cache as plan_cache_module
from repro.cache import result_cache as result_cache_module
from tests.conftest import build_figure1_db


def _mixed_workload(db, rng: random.Random):
    """Interleaved reads and writes; returns every read's rows."""
    reads = [
        "SELECT Name FROM Employee WHERE Age > 25",
        "SELECT Name FROM Employee WHERE Age BETWEEN 20 AND 50",
        "SELECT Employee.Name, Department.Name FROM Employee "
        "JOIN Department ON Dept_Id = Id",
        "SELECT count(*) AS n FROM Employee",
        "SELECT DISTINCT Age FROM Employee ORDER BY Age",
        "SELECT Name FROM Employee WHERE Dept_Id = 459",
    ]
    observed = []
    next_id = 1000
    live_ids = []
    for step in range(120):
        roll = rng.random()
        if roll < 0.6:
            text = reads[rng.randrange(len(reads))]
            result = db.sql(text)
            rows = result.materialize() if hasattr(result, "materialize") else list(result)
            observed.append((text, rows))
        elif roll < 0.75:
            age = rng.randint(18, 65)
            db.sql(
                f"INSERT INTO Employee VALUES ('W{next_id}', {next_id}, "
                f"{age}, 459)"
            )
            live_ids.append(next_id)
            next_id += 1
        elif roll < 0.9 and live_ids:
            victim = live_ids[rng.randrange(len(live_ids))]
            db.sql(
                f"UPDATE Employee SET Age = {rng.randint(18, 65)} "
                f"WHERE Id = {victim}"
            )
        elif live_ids:
            victim = live_ids.pop(rng.randrange(len(live_ids)))
            db.sql(f"DELETE FROM Employee WHERE Id = {victim}")
    return observed


def test_cached_workload_identical_to_uncached():
    baseline = _mixed_workload(build_figure1_db(), random.Random(7))
    cached_db = build_figure1_db()
    cached_db.configure_cache(CacheConfig())
    cached = _mixed_workload(cached_db, random.Random(7))
    assert cached == baseline
    # sanity: caching actually engaged during the run
    assert cached_db.cache_stats()["result"]["hits"] > 0


def test_small_capacity_still_correct(monkeypatch):
    baseline = _mixed_workload(build_figure1_db(), random.Random(13))
    monkeypatch.setattr(plan_cache_module, "AST_CAPACITY", 2)
    monkeypatch.setattr(plan_cache_module, "PLAN_CAPACITY", 2)
    monkeypatch.setattr(result_cache_module, "RESULT_CAPACITY", 1)
    tiny = build_figure1_db()
    tiny.configure_cache(CacheConfig())
    assert _mixed_workload(tiny, random.Random(13)) == baseline
