"""Tests for OR predicates — the shape of the paper's Query 2."""

import pytest

from repro import MainMemoryDatabase, eq, gt, lt
from repro.query.predicates import Disjunction
from tests.conftest import EMPLOYEES


class TestPredicateAlgebra:
    def test_or_operator_builds_disjunction(self):
        pred = eq("a", 1) | eq("a", 2)
        assert isinstance(pred, Disjunction)
        assert pred.matches(lambda f: 1)
        assert pred.matches(lambda f: 2)
        assert not pred.matches(lambda f: 3)

    def test_mixed_and_or(self):
        pred = (gt("a", 10) & lt("a", 20)) | eq("a", 99)
        assert pred.matches(lambda f: 15)
        assert pred.matches(lambda f: 99)
        assert not pred.matches(lambda f: 30)

    def test_equality_keys_detection(self):
        assert (eq("x", 1) | eq("x", 2)).equality_keys() == ("x", (1, 2))
        assert (eq("x", 1) | eq("y", 2)).equality_keys() is None
        assert (eq("x", 1) | gt("x", 2)).equality_keys() is None

    def test_repr(self):
        assert "OR" in repr(eq("x", 1) | eq("x", 2))


class TestEngineSelection:
    def test_or_on_indexed_field_uses_multi_lookup(self, figure1_db):
        plan = figure1_db.optimizer.plan_selection(
            "Employee", eq("Id", 23) | eq("Id", 44)
        )
        assert "IndexMultiLookup" in plan.explain()
        result = figure1_db.execute(plan)
        assert {d["Name"] for d in result.to_dicts()} == {"Dave", "Yaman"}

    def test_or_deduplicates_refs(self, figure1_db):
        result = figure1_db.select(
            "Employee", eq("Id", 23) | eq("Id", 23)
        )
        assert len(result) == 1

    def test_or_on_unindexed_field_scans(self, figure1_db):
        plan = figure1_db.optimizer.plan_selection(
            "Employee", eq("Age", 24) | eq("Age", 47)
        )
        assert "Scan" in plan.explain()
        result = figure1_db.execute(plan)
        assert {d["Name"] for d in result.to_dicts()} == {"Dave", "Jane"}

    def test_heterogeneous_or_scans(self, figure1_db):
        result = figure1_db.select(
            "Employee", lt("Age", 23) | gt("Age", 50)
        )
        assert {d["Name"] for d in result.to_dicts()} == {"Cindy", "Yaman"}

    def test_inner_or_on_precomputed_join_matches_sql(self, figure1_db):
        # The inner predicate lands in a post-join filter; its OR
        # branches must be qualified with the inner relation like the
        # SQL form's, or 'Name' is ambiguous between the two sides.
        toy_or_shoe = Disjunction((eq("Name", "Toy"), eq("Name", "Shoe")))
        result = figure1_db.join(
            "Employee", "Department", ("Dept_Id", "Id"),
            inner_predicate=toy_or_shoe,
        )
        names = sorted(d["Employee.Name"] for d in result.to_dicts())
        rows = figure1_db.sql(
            "SELECT Employee.Name FROM Employee "
            "JOIN Department ON Dept_Id = Id "
            "WHERE Department.Name = 'Toy' OR Department.Name = 'Shoe'"
        ).materialize()
        assert names == sorted(name for (name,) in rows)
        assert names == ["Cindy", "Dave", "Suzan"]

    def test_or_on_fk_field_rewritten(self, figure1_db):
        result = figure1_db.select(
            "Employee", eq("Dept_Id", 459) | eq("Dept_Id", 409)
        )
        assert {d["Name"] for d in result.to_dicts()} == {
            "Dave", "Suzan", "Cindy",
        }


class TestSQLQuery2:
    def test_paper_query_2_verbatim_shape(self, figure1_db):
        """'Retrieve the names of all employees who work in the Toy or
        Shoe Departments' — one statement, two index lookups plus a
        pointer join."""
        rows = figure1_db.sql(
            "SELECT Employee.Name FROM Employee "
            "JOIN Department ON Dept_Id = Id "
            "WHERE Department.Name = 'Toy' OR Department.Name = 'Shoe'"
        ).materialize()
        assert sorted(rows) == [("Cindy",), ("Dave",), ("Suzan",)]

    def test_single_table_or(self, figure1_db):
        rows = figure1_db.sql(
            "SELECT Name FROM Employee WHERE Id = 23 OR Id = 44"
        ).materialize()
        assert sorted(rows) == [("Dave",), ("Yaman",)]

    def test_and_binds_tighter_than_or(self, figure1_db):
        rows = figure1_db.sql(
            "SELECT Name FROM Employee WHERE Age > 40 AND Id = 44 "
            "OR Age < 23"
        ).materialize()
        assert sorted(rows) == [("Cindy",), ("Yaman",)]

    def test_cross_table_or_over_join(self, figure1_db):
        rows = figure1_db.sql(
            "SELECT Employee.Name FROM Employee "
            "JOIN Department ON Dept_Id = Id "
            "WHERE Age > 50 OR Department.Name = 'Shoe'"
        ).materialize()
        assert sorted(rows) == [("Cindy",), ("Yaman",)]

    def test_or_with_aggregates(self, figure1_db):
        row = figure1_db.sql(
            "SELECT COUNT(*) AS n FROM Employee "
            "WHERE Age < 23 OR Age > 50"
        ).to_dicts()[0]
        assert row["n"] == 2

    def test_or_with_between(self, figure1_db):
        rows = figure1_db.sql(
            "SELECT Name FROM Employee "
            "WHERE Age BETWEEN 22 AND 24 OR Age BETWEEN 47 AND 54"
        ).materialize()
        assert sorted(rows) == [("Cindy",), ("Dave",), ("Jane",), ("Yaman",)]
