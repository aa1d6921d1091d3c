"""Plan cache behaviour: LRU mechanics, statement keys, hits, evictions."""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig, LRUCache
from repro.sql.template import lift
from tests.conftest import build_figure1_db


def cached_db():
    db = build_figure1_db()
    db.configure_cache(CacheConfig())
    return db


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0, "x")

    def test_get_put_and_stats(self):
        cache = LRUCache(2, "x")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(2, "x")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalidate(self):
        cache = LRUCache(2, "x")
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.stats()["invalidations"] == 1


class TestNormalization:
    """The plan cache is keyed on the statement template's lift: the
    text key plus the lifted literals."""

    def test_whitespace_and_semicolon_collapse(self):
        assert lift("  SELECT *   FROM Employee ; ") == lift(
            "SELECT * FROM Employee"
        )

    def test_string_literals_keep_whitespace(self):
        a = lift("SELECT * FROM T WHERE Name = 'a  b'")
        b = lift("SELECT * FROM T WHERE Name = 'a b'")
        assert a != b

    def test_case_is_significant(self):
        # Identifiers are case-sensitive in this dialect; the key must be.
        assert lift("SELECT * FROM t") != lift("SELECT * FROM T")


class TestPlanCacheHits:
    def test_repeat_select_hits_ast_and_plan_caches(self):
        db = cached_db()
        text = "SELECT Name FROM Employee WHERE Age > 25"
        first = db.sql(text).materialize()
        second = db.sql("  SELECT Name FROM Employee   WHERE Age > 25 ;").materialize()
        assert first == second
        stats = db.cache_stats()
        assert stats["ast"]["hits"] >= 1
        assert stats["plan"]["hits"] + stats["result"]["hits"] >= 1

    def test_distinct_statements_do_not_collide(self):
        db = cached_db()
        young = db.sql("SELECT Name FROM Employee WHERE Age < 30").materialize()
        old = db.sql("SELECT Name FROM Employee WHERE Age > 30").materialize()
        assert set(young) != set(old)
        # and repeats still return the right partition
        assert db.sql("SELECT Name FROM Employee WHERE Age < 30").materialize() == young

    def test_plan_layer_capacity_evicts(self):
        db = build_figure1_db()
        db.configure_cache(
            CacheConfig(ast_capacity=2, plan_capacity=2, result_capacity=2)
        )
        for age in range(20, 30):
            db.sql(f"SELECT Name FROM Employee WHERE Age > {age}")
        stats = db.cache_stats()
        assert stats["plan"]["size"] <= 2
        assert stats["plan"]["evictions"] > 0

    def test_caching_is_off_by_default(self):
        db = build_figure1_db()
        assert db.plan_cache is None and db.result_cache is None
        db.sql("SELECT Name FROM Employee WHERE Age > 25")
        assert db.cache_stats() == {}

    def test_disabled_layers_respected(self):
        db = build_figure1_db()
        db.configure_cache(
            CacheConfig(enable_plans=False, enable_results=False)
        )
        assert db.plan_cache is None and db.result_cache is None
        assert db.executor.result_cache is None
