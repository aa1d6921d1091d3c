"""Result-reuse cache: subtree memoization, snapshot isolation, staleness."""

from __future__ import annotations

from repro.cache import CacheConfig
from repro.cache.result_cache import ResultCache
from repro.instrument import counters_scope
from repro.query.plan import IndexLookupNode, ScanNode
from repro.query.predicates import gt
from tests.conftest import build_figure1_db


class TestFingerprints:
    def test_equal_plans_equal_fingerprints(self):
        a = IndexLookupNode("Employee", "Id", 23, prefer="tree")
        b = IndexLookupNode("Employee", "Id", 23, prefer="tree")
        assert a.fingerprint() == b.fingerprint()

    def test_different_keys_differ(self):
        a = IndexLookupNode("Employee", "Id", 23, prefer="tree")
        b = IndexLookupNode("Employee", "Id", 44, prefer="tree")
        assert a.fingerprint() != b.fingerprint()

    def test_plan_relations_include_fk_predicates(self):
        db = build_figure1_db()
        plan = db.selection_plan("Employee", gt("Dept_Id", 410))
        # The ordered FK comparison follows pointers into Department.
        assert plan.relations() == frozenset({"Employee", "Department"})


class TestSubtreeMemoization:
    def test_executor_subtree_hit(self):
        db = build_figure1_db()
        db.configure_cache(CacheConfig())
        plan = db.selection_plan("Employee", gt("Age", 25))
        first = db.executor.execute(plan).materialize()
        with counters_scope() as scope:
            second = db.executor.execute(plan).materialize()
        assert second == first
        assert scope.extra.get("result_hits", 0) == 1

    def test_cached_rows_are_isolated_copies(self):
        db = build_figure1_db()
        db.configure_cache(CacheConfig())
        plan = ScanNode("Employee")
        first = db.executor.execute(plan)
        first.rows().clear()  # caller vandalises its copy
        second = db.executor.execute(plan)
        assert len(second) == 5

    def test_stale_entry_discarded(self):
        db = build_figure1_db()
        cache = ResultCache(db.catalog)
        db.executor.result_cache = cache
        plan = ScanNode("Employee")
        db.executor.execute(plan)
        db.insert("Employee", ["Zed", 99, 33, 459])
        refreshed = db.executor.execute(plan)
        assert len(refreshed) == 6
        assert cache.stats()["invalidations"] == 1

    def test_fk_target_change_invalidates_subtree(self):
        db = build_figure1_db()
        db.configure_cache(CacheConfig())
        plan = db.selection_plan("Employee", gt("Dept_Id", 410))
        before = db.executor.execute(plan).materialize()
        # Changing Department data must invalidate, because the cached
        # predicate followed pointers into Department.
        db.sql("INSERT INTO Department VALUES ('Lab', 999)")
        db.sql("INSERT INTO Employee VALUES ('Nia', 77, 30, 999)")
        after = db.executor.execute(plan).materialize()
        assert len(after) == len(before) + 1


class TestStatementLayer:
    def test_aggregate_results_cached_and_refreshed(self):
        db = build_figure1_db()
        db.configure_cache(CacheConfig())
        text = "SELECT count(*) AS n FROM Employee WHERE Age > 25"
        assert db.sql(text).rows() == [(3,)]
        hits_before = db.cache_stats()["result"]["hits"]
        assert db.sql(text).rows() == [(3,)]
        assert db.cache_stats()["result"]["hits"] > hits_before
        db.sql("INSERT INTO Employee VALUES ('Zed', 99, 60, 459)")
        assert db.sql(text).rows() == [(4,)]

    def test_order_by_limit_cached(self):
        db = build_figure1_db()
        db.configure_cache(CacheConfig())
        text = "SELECT Name, Age FROM Employee ORDER BY Age DESC LIMIT 2"
        first = db.sql(text).materialize()
        assert first == [("Yaman", 54), ("Jane", 47)]
        assert db.sql(text).materialize() == first
