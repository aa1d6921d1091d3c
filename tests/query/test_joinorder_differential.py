"""Differential tests for cost-based multi-join ordering.

The contract under test: ``configure_optimizer(join_ordering="cost")``
may change the *plan* of a 3+-relation chain, but never the result —
identical sorted rows across both orderings, both engines, and any
worker count — and the ordering decision itself is deterministic per
(statement, statistics versions).
"""

import random

import pytest

from repro import MainMemoryDatabase
from repro.cache import CacheConfig
from repro.instrument import counters_scope
from repro.query.optimizer import (
    MAX_DP_TABLES,
    ForecastOps,
    Optimizer,
    forecast_hash_join,
    forecast_precomputed_join,
    forecast_tree_join,
)

SEED = 19860528

CHAIN_QUERIES = [
    # FK chain written from the pointer side.
    "SELECT * FROM Track JOIN Album ON album = aid JOIN Artist ON artist "
    "= rid WHERE genre = 2",
    # Value-join chain written largest-first (the bad order).
    "SELECT * FROM Track JOIN Album ON album = aid JOIN Artist ON artist "
    "= rid JOIN Label ON Artist.label = Label.lid WHERE country = 1",
    # Explicit columns + residual cross-table predicate.
    "SELECT Track.tid, Artist.rid FROM Track JOIN Album ON album = aid "
    "JOIN Artist ON artist = rid WHERE genre = 1 AND rid > 3",
    # Aggregation over a reordered chain.
    "SELECT country, COUNT(*) AS n FROM Track JOIN Album ON album = aid "
    "JOIN Artist ON artist = rid JOIN Label ON Artist.label = Label.lid "
    "GROUP BY country ORDER BY n DESC",
    # DISTINCT + ORDER BY + LIMIT post-processing.
    "SELECT DISTINCT genre FROM Track JOIN Album ON album = aid "
    "JOIN Artist ON artist = rid WHERE rid < 6 ORDER BY genre LIMIT 4",
]


def build_db() -> MainMemoryDatabase:
    db = MainMemoryDatabase()
    db.sql("CREATE TABLE Label (lid INT, country INT, PRIMARY KEY (lid))")
    db.sql(
        "CREATE TABLE Artist (rid INT, label INT REFERENCES Label(lid), "
        "PRIMARY KEY (rid))"
    )
    db.sql(
        "CREATE TABLE Album (aid INT, artist INT REFERENCES Artist(rid), "
        "year INT, PRIMARY KEY (aid))"
    )
    db.sql(
        "CREATE TABLE Track (tid INT, album INT REFERENCES Album(aid), "
        "genre INT, PRIMARY KEY (tid))"
    )
    rng = random.Random(SEED)
    for l in range(5):
        db.insert("Label", [l, l % 3])
    for r in range(12):
        db.insert("Artist", [r, rng.randrange(5)])
    for a in range(60):
        db.insert("Album", [a, rng.randrange(12), 1980 + rng.randrange(10)])
    for t in range(300):
        db.insert("Track", [t, rng.randrange(60), rng.randrange(4)])
    return db


def run_query(query, ordering, engine="tuple", workers=1):
    db = build_db()
    db.configure_optimizer(join_ordering=ordering)
    if engine == "batch":
        db.configure_execution(
            engine="batch",
            workers=workers,
            pool="inline" if workers > 1 else None,
        )
    try:
        with counters_scope() as ops:
            result = db.sql(query)
        if hasattr(result, "descriptor"):
            rows = sorted(result.materialize(resolve_refs=True))
            names = result.descriptor.column_names
        else:  # ValueTable (aggregates)
            rows = result.to_dicts()
            names = None
        return rows, names, ops.as_dict()
    finally:
        db.configure_execution()


class TestOrderingIsInvisible:
    @pytest.mark.parametrize("query", CHAIN_QUERIES)
    @pytest.mark.parametrize(
        "engine,workers", [("tuple", 1), ("batch", 1), ("batch", 4)]
    )
    def test_same_rows_and_labels_as_written(self, query, engine, workers):
        base_rows, base_names, __ = run_query(query, "written")
        rows, names, __ = run_query(query, "cost", engine, workers)
        assert rows == base_rows
        assert names == base_names

    def test_counter_totals_identical_across_worker_counts(self):
        reference = None
        for workers in (1, 4):
            rows, __, ops = run_query(
                CHAIN_QUERIES[1], "cost", "batch", workers
            )
            if reference is None:
                reference = (rows, ops)
            else:
                assert (rows, ops) == reference

    def test_cost_mode_reduces_ops_on_bad_written_order(self):
        __, __, written = run_query(CHAIN_QUERIES[1], "written")
        __, __, cost = run_query(CHAIN_QUERIES[1], "cost")
        assert sum(cost.values()) < sum(written.values())


class TestDeterminism:
    def test_same_plan_twice(self):
        db = build_db()
        db.configure_optimizer(join_ordering="cost")
        explain = "EXPLAIN " + CHAIN_QUERIES[1]
        assert db.sql(explain) == db.sql(explain)

    def test_same_plan_across_instances(self):
        a, b = build_db(), build_db()
        for db in (a, b):
            db.configure_optimizer(join_ordering="cost")
        explain = "EXPLAIN " + CHAIN_QUERIES[1]
        assert a.sql(explain) == b.sql(explain)

    def test_same_rows_after_cache_round_trip(self):
        db = build_db()
        db.configure_cache(CacheConfig())
        db.configure_optimizer(join_ordering="cost")
        first = sorted(
            db.sql(CHAIN_QUERIES[0]).materialize(resolve_refs=True)
        )
        again = sorted(
            db.sql(CHAIN_QUERIES[0]).materialize(resolve_refs=True)
        )
        assert first == again
        stats = db.cache_stats()
        assert stats["result"]["hits"] >= 1

    def test_cached_plans_keyed_per_ordering_mode(self):
        db = build_db()
        db.configure_cache(CacheConfig())
        query = CHAIN_QUERIES[1]
        db.configure_optimizer(join_ordering="written")
        written = sorted(db.sql(query).materialize(resolve_refs=True))
        db.configure_optimizer(join_ordering="cost")
        # A mode flip must not serve the written-order cached plan.
        cost = sorted(db.sql(query).materialize(resolve_refs=True))
        assert written == cost


class TestSafetyFallbacks:
    """Statements outside the safe subset plan exactly as written."""

    def assert_written_plan(self, db, query):
        explain = "EXPLAIN " + query
        written = db.sql(explain)
        db.configure_optimizer(join_ordering="cost")
        cost = db.sql(explain)
        db.configure_optimizer(join_ordering=None)
        assert written == cost

    def test_forced_method_falls_back(self):
        db = build_db()
        self.assert_written_plan(
            db,
            "SELECT * FROM Track JOIN Album ON album = aid USING hash "
            "JOIN Artist ON artist = rid",
        )

    def test_nonequi_step_falls_back(self):
        db = build_db()
        self.assert_written_plan(
            db,
            "SELECT * FROM Track JOIN Album ON album = aid "
            "JOIN Artist ON year > rid",
        )

    def test_two_table_join_unchanged(self):
        db = build_db()
        self.assert_written_plan(
            db, "SELECT * FROM Track JOIN Album ON album = aid"
        )

    def test_bare_shared_column_reference_falls_back(self):
        db = MainMemoryDatabase()
        db.sql("CREATE TABLE A (ka INT, x INT, PRIMARY KEY (ka))")
        db.sql("CREATE TABLE B (kb INT, x INT, a INT, PRIMARY KEY (kb))")
        db.sql("CREATE TABLE C (kc INT, x INT, b INT, PRIMARY KEY (kc))")
        rng = random.Random(SEED)
        for i in range(8):
            db.insert("A", [i, rng.randrange(4)])
        for i in range(16):
            db.insert("B", [i, rng.randrange(4), rng.randrange(8)])
        for i in range(32):
            db.insert("C", [i, rng.randrange(4), rng.randrange(16)])
        # "x" lives in all three tables: a bare reference binds to
        # whichever table kept the unqualified label, so cost mode must
        # keep the written order.
        query = (
            "SELECT x FROM C JOIN B ON b = kb JOIN A ON B.a = ka"
        )
        written = sorted(db.sql(query).materialize(resolve_refs=True))
        self.assert_written_plan(db, query)
        db.configure_optimizer(join_ordering="cost")
        assert sorted(db.sql(query).materialize(resolve_refs=True)) == written

    def test_star_select_with_shared_columns_matches_written(self):
        db = MainMemoryDatabase()
        db.sql("CREATE TABLE A (ka INT, x INT, PRIMARY KEY (ka))")
        db.sql("CREATE TABLE B (kb INT, x INT, a INT, PRIMARY KEY (kb))")
        db.sql("CREATE TABLE C (kc INT, x INT, b INT, PRIMARY KEY (kc))")
        rng = random.Random(SEED)
        for i in range(8):
            db.insert("A", [i, rng.randrange(4)])
        for i in range(16):
            db.insert("B", [i, rng.randrange(4), rng.randrange(8)])
        for i in range(32):
            db.insert("C", [i, rng.randrange(4), rng.randrange(16)])
        query = "SELECT * FROM C JOIN B ON b = kb JOIN A ON B.a = ka"
        res_written = db.sql(query)
        db.configure_optimizer(join_ordering="cost")
        res_cost = db.sql(query)
        assert res_written.descriptor.column_names == (
            res_cost.descriptor.column_names
        )
        assert sorted(res_written.materialize(resolve_refs=True)) == sorted(
            res_cost.materialize(resolve_refs=True)
        )


class TestForecastMonotonicity:
    """The cost model's forecasts move the right way."""

    def test_hash_join_cost_grows_with_build_side(self):
        small = forecast_hash_join(1000.0, 100.0, 1000.0).weighted()
        large = forecast_hash_join(1000.0, 10_000.0, 1000.0).weighted()
        assert small < large

    def test_hash_join_cost_grows_with_probe_side(self):
        few = forecast_hash_join(100.0, 1000.0, 100.0).weighted()
        many = forecast_hash_join(10_000.0, 1000.0, 100.0).weighted()
        assert few < many

    def test_hash_join_cost_grows_with_output(self):
        narrow = forecast_hash_join(1000.0, 1000.0, 100.0).weighted()
        wide = forecast_hash_join(1000.0, 1000.0, 50_000.0).weighted()
        assert narrow < wide

    def test_precomputed_beats_hash_at_any_size(self):
        for rows in (10.0, 1_000.0, 100_000.0):
            assert (
                forecast_precomputed_join(rows, rows).weighted()
                < forecast_hash_join(rows, rows, rows).weighted()
            )

    def test_tree_join_cost_grows_logarithmically_with_inner(self):
        a = forecast_tree_join(1000.0, 1_000.0, 1000.0).weighted()
        b = forecast_tree_join(1000.0, 1_000_000.0, 1000.0).weighted()
        assert a < b
        assert b < 2 * a  # log growth, not linear

    def test_forecast_addition_accumulates(self):
        one = ForecastOps(comparisons=5.0, hashes=2.0)
        two = ForecastOps(comparisons=1.0, moves=4.0)
        total = one + two
        assert total.comparisons == 6.0
        assert total.moves == 4.0
        assert total.hashes == 2.0
        assert total.weighted() == pytest.approx(
            one.weighted() + two.weighted()
        )


class TestWideChains:
    """Past ``MAX_DP_TABLES`` relations the greedy construction orders
    the chain; its plan returns the written order's rows."""

    WIDTH = MAX_DP_TABLES + 1

    def build_chain_db(self) -> MainMemoryDatabase:
        # T0 -> T1 -> ... -> T12 by foreign key; T0, the pointer-owning
        # head, is the smallest, so the greedy start can extend along
        # every edge.
        rng = random.Random(SEED + 13)
        db = MainMemoryDatabase()
        last = self.WIDTH - 1
        db.sql(
            f"CREATE TABLE T{last} (k{last} INT, v INT, "
            f"PRIMARY KEY (k{last}))"
        )
        for i in reversed(range(last)):
            db.sql(
                f"CREATE TABLE T{i} (k{i} INT, "
                f"f{i} INT REFERENCES T{i + 1}(k{i + 1}), PRIMARY KEY (k{i}))"
            )
        for i in reversed(range(self.WIDTH)):
            for k in range(2 + 2 * i):
                if i == last:
                    db.insert(f"T{i}", [k, rng.randrange(5)])
                else:
                    db.insert(f"T{i}", [k, rng.randrange(4 + 2 * i)])
        return db

    def chain_query(self) -> str:
        joins = " ".join(
            f"JOIN T{i + 1} ON f{i} = k{i + 1}" for i in range(self.WIDTH - 1)
        )
        return f"SELECT k0, v FROM T0 {joins} WHERE v > 1"

    def test_greedy_order_matches_written_rows(self, monkeypatch):
        chosen = []
        greedy = Optimizer._greedy_order

        def spy(self, *args):
            order = greedy(self, *args)
            chosen.append(order)
            return order

        monkeypatch.setattr(Optimizer, "_greedy_order", spy)
        db = self.build_chain_db()
        db.configure_optimizer(join_ordering="written")
        written = sorted(db.sql(self.chain_query()).materialize())
        assert chosen == []
        db.configure_optimizer(join_ordering="cost")
        cost = sorted(db.sql(self.chain_query()).materialize())
        assert len(chosen) == 1 and chosen[0] is not None
        order, steps = chosen[0]
        assert len(order) == self.WIDTH and len(steps) == self.WIDTH - 1
        assert written and cost == written
