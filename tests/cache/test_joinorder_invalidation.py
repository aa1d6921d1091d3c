"""Plan-cache invalidation for cost-ordered join chains.

A cached cost-ordered plan embeds an ordering decision derived from the
statistics of *every* joined relation.  A DML on any of them must
invalidate the cached plan — served stale, it would execute an order
chosen for cardinalities that no longer hold.
"""

from __future__ import annotations

import random

from repro import MainMemoryDatabase
from repro.cache import CacheConfig
from repro.cache.fingerprint import dependency_versions
from repro.query.optimizer import JoinChainEdge, JoinChainQuery

SEED = 19860528

QUERY = (
    "SELECT * FROM Big JOIN Mid ON link = mk "
    "JOIN Small ON Mid.tail = sk WHERE flag = 1"
)


def build_db() -> MainMemoryDatabase:
    db = MainMemoryDatabase()
    db.configure_cache(CacheConfig())
    db.configure_optimizer(join_ordering="cost")
    db.sql("CREATE TABLE Small (sk INT, flag INT, PRIMARY KEY (sk))")
    db.sql("CREATE TABLE Mid (mk INT, tail INT, PRIMARY KEY (mk))")
    db.sql("CREATE TABLE Big (bk INT, link INT, PRIMARY KEY (bk))")
    rng = random.Random(SEED)
    for s in range(10):
        db.insert("Small", [s, s % 5])
    for m in range(50):
        db.insert("Mid", [m, rng.randrange(10)])
    for b in range(400):
        db.insert("Big", [b, rng.randrange(50)])
    return db


def written_rows(db):
    db.configure_optimizer(join_ordering="written")
    try:
        return sorted(db.sql(QUERY).materialize(resolve_refs=True))
    finally:
        db.configure_optimizer(join_ordering="cost")


class TestStaleOrderEviction:
    def test_dml_on_any_joined_relation_evicts_the_plan(self):
        for table, row in (
            ("Small", [990, 1]),
            ("Mid", [990, 3]),
            ("Big", [990, 17]),
        ):
            db = build_db()
            db.sql(QUERY)
            misses_before = db.cache_stats()["plan"]["misses"]
            db.insert(table, row)
            assert sorted(
                db.sql(QUERY).materialize(resolve_refs=True)
            ) == written_rows(db)
            # The second execution must have rebuilt the plan, not
            # served the one ordered for the pre-DML statistics.
            assert db.cache_stats()["plan"]["misses"] > misses_before

    def test_unrelated_dml_keeps_the_cached_entries(self):
        db = build_db()
        db.sql("CREATE TABLE Other (ok INT, PRIMARY KEY (ok))")
        db.sql(QUERY)
        stats_before = db.cache_stats()
        db.insert("Other", [1])
        db.sql(QUERY)
        stats_after = db.cache_stats()
        # Served straight from the result cache: no replanning, no
        # recomputation, for a DML outside the chain's dependency set.
        assert stats_after["result"]["hits"] > stats_before["result"]["hits"]
        assert stats_after["plan"]["misses"] == stats_before["plan"]["misses"]

    def test_growth_that_flips_the_best_order_is_replanned(self):
        db = build_db()
        before = db.sql("EXPLAIN " + QUERY)
        db.sql(QUERY)
        # Invert the size relationships the original order was chosen
        # for: Small becomes the largest unfiltered relation by far.
        rng = random.Random(SEED + 1)
        for s in range(10, 3000):
            db.insert("Small", [s, 2 + s % 7])  # flag never 1
        for b in range(400, 430):
            db.insert("Big", [b, rng.randrange(50)])
        after = db.sql("EXPLAIN " + QUERY)
        assert before != after
        assert sorted(
            db.sql(QUERY).materialize(resolve_refs=True)
        ) == written_rows(db)


class TestDependencyClosure:
    def test_chain_plan_depends_on_every_joined_relation(self):
        db = build_db()
        query = JoinChainQuery(
            ("Big", "Mid", "Small"),
            {"Big": None, "Mid": None, "Small": None},
            (
                JoinChainEdge("Big", "link", "Mid", "mk", "value", 0),
                JoinChainEdge("Mid", "tail", "Small", "sk", "value", 1),
            ),
        )
        plan = db.optimizer.plan_join_chain(query)
        assert plan is not None
        deps = plan.relations()
        assert {"Big", "Mid", "Small"} <= deps
        versions = dependency_versions(db.catalog, plan)
        assert set(versions) >= {"Big", "Mid", "Small"}

    def test_extra_relations_attribute_folds_into_dependencies(self):
        # The hardening hook directly: a plan annotated with extra
        # relations is stale when any of them changes, even if no node
        # scans it.
        db = build_db()
        plan = db.selection_plan("Big", None)
        plan._repro_extra_relations = frozenset(("Small",))
        assert "Small" in plan.relations()
        versions = dependency_versions(db.catalog, plan)
        assert "Small" in versions
