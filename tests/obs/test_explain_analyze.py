"""EXPLAIN and EXPLAIN ANALYZE surface tests.

EXPLAIN renders the optimizer's plan with estimated rows and never
executes; EXPLAIN ANALYZE executes under a temporary tracer and renders
the span tree with estimated vs. actual rows plus the Section 3.1
operation counters per operator — including the differential contract
that the reported actual rows equal what running the statement returns.
"""

from __future__ import annotations

import re

from repro.obs import ObservabilityConfig
from repro.obs import runtime as obs_runtime
from repro.sql import parser as ast

JOIN_SQL = (
    "SELECT Emp.Name, Dept.Name FROM Emp "
    "JOIN Dept ON Dept = Dept.Id USING hash WHERE Age > 25"
)

ANALYZE_KEYS = (
    "est_rows=",
    "actual_rows=",
    "comparisons=",
    "moves=",
    "hashes=",
    "traversals=",
)


def _root_actual_rows(rendered: str) -> int:
    first_line = rendered.splitlines()[0]
    match = re.search(r"actual_rows=(\d+)", first_line)
    assert match, first_line
    return int(match.group(1))


class TestParser:
    def test_explain_flag_defaults_off(self):
        stmt = ast.parse_statement("EXPLAIN SELECT * FROM Emp")
        assert isinstance(stmt, ast.Explain)
        assert stmt.analyze is False

    def test_explain_analyze_flag(self):
        stmt = ast.parse_statement("EXPLAIN ANALYZE SELECT * FROM Emp")
        assert isinstance(stmt, ast.Explain)
        assert stmt.analyze is True


class TestExplain:
    def test_plan_lines_carry_estimates(self, chain_db):
        rendered = chain_db.sql("EXPLAIN " + JOIN_SQL)
        for line in rendered.splitlines():
            assert "est_rows=" in line, rendered
        assert "actual_rows=" not in rendered

    def test_point_lookup_estimates_one_row(self, chain_db):
        chain_db.sql("SELECT * FROM Emp WHERE Id = 23")  # warm stats
        rendered = chain_db.sql("EXPLAIN SELECT * FROM Emp WHERE Id = 23")
        assert "IndexLookup" in rendered
        assert "(est_rows=1)" in rendered

    def test_never_matching_fk_equality_estimates_zero(self, chain_db):
        # An FK equality on an absent key plans a never-matching scan;
        # EXPLAIN must give it the optimizer's selectivity of 0.
        rendered = chain_db.sql(
            "EXPLAIN SELECT Name FROM Emp WHERE Dept = 999"
        )
        assert rendered.endswith("(est_rows=0)"), rendered
        assert len(chain_db.sql("SELECT Name FROM Emp WHERE Dept = 999")) == 0

    def test_explain_does_not_execute(self, chain_db):
        before = len(chain_db.sql("SELECT * FROM Emp"))
        chain_db.sql("EXPLAIN SELECT * FROM Emp")
        assert obs_runtime.active() is None
        assert len(chain_db.sql("SELECT * FROM Emp")) == before


class TestExplainAnalyze:
    def test_join_output_carries_all_counters(self, chain_db):
        rendered = chain_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        assert rendered.startswith("Query")
        for key in ANALYZE_KEYS:
            assert key in rendered, rendered
        # The hash join's phases surface as indented children.
        assert "hash_join.build" in rendered
        assert "hash_join.probe" in rendered
        assert "Join[hash]" in rendered

    def test_actual_rows_match_direct_execution(self, chain_db):
        direct = chain_db.sql(JOIN_SQL)
        rendered = chain_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        assert _root_actual_rows(rendered) == len(direct) == 3

    def test_estimated_vs_actual_differential(self, chain_db):
        """A range predicate uses the default 1/3 selectivity, so the
        estimate and the actual count legitimately diverge — both must be
        reported on the scan/filter lines for the misestimate to show."""
        sql = "SELECT Name FROM Emp WHERE Age > 25"
        chain_db.sql(sql)  # warm column stats
        rendered = chain_db.sql("EXPLAIN ANALYZE " + sql)
        assert _root_actual_rows(rendered) == 3
        operator_lines = [
            line
            for line in rendered.splitlines()
            if "est_rows=" in line and "actual_rows=" in line
        ]
        assert operator_lines, rendered

    def test_self_activation_leaves_runtime_off(self, chain_db):
        assert obs_runtime.active() is None
        chain_db.sql("EXPLAIN ANALYZE SELECT * FROM Emp")
        assert obs_runtime.active() is None

    def test_restores_configured_observability(self, chain_db):
        obs = chain_db.configure_observability(ObservabilityConfig())
        chain_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        assert obs_runtime.active() is obs
        # The outer EXPLAIN ANALYZE statement is recorded by the
        # configured registry as exactly one query; the inner SELECT ran
        # against the private tracer/registry only.
        snapshot = obs.metrics.snapshot()
        assert snapshot["queries_total"][""] == 1
