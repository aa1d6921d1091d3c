"""Tests for the predicate algebra."""

import pytest

from repro.errors import FingerprintError
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Op,
    Predicate,
    _FKValueComparison,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)


def reader(**fields):
    return lambda name: fields[name]


class TestComparisonMatching:
    def test_eq(self):
        assert eq("Age", 30).matches(reader(Age=30))
        assert not eq("Age", 30).matches(reader(Age=31))

    def test_ne(self):
        assert ne("Age", 30).matches(reader(Age=31))
        assert not ne("Age", 30).matches(reader(Age=30))

    def test_lt_le(self):
        assert lt("Age", 30).matches(reader(Age=29))
        assert not lt("Age", 30).matches(reader(Age=30))
        assert le("Age", 30).matches(reader(Age=30))

    def test_gt_ge(self):
        assert gt("Age", 65).matches(reader(Age=66))
        assert not gt("Age", 65).matches(reader(Age=65))
        assert ge("Age", 65).matches(reader(Age=65))

    def test_between_inclusive(self):
        pred = between("Age", 20, 30)
        assert pred.matches(reader(Age=20))
        assert pred.matches(reader(Age=30))
        assert not pred.matches(reader(Age=31))

    def test_between_requires_high(self):
        with pytest.raises(ValueError):
            Comparison("Age", Op.BETWEEN, 20)

    def test_string_comparison(self):
        assert eq("Name", "Toy").matches(reader(Name="Toy"))
        assert lt("Name", "M").matches(reader(Name="Linen"))


class TestOperatorClassification:
    def test_only_ne_cannot_use_order(self):
        # "Non-equijoins other than 'not equals' can make use of
        # ordering of the data."
        for op in Op:
            if op is Op.NE:
                assert not op.usable_with_order
            else:
                assert op.usable_with_order

    def test_only_eq_is_exact_match(self):
        assert Op.EQ.exact_match
        assert not Op.GE.exact_match
        assert not Op.BETWEEN.exact_match


class TestKeyRanges:
    def test_eq_range(self):
        assert eq("x", 5).key_range() == (5, 5, True, True)

    def test_inequality_ranges(self):
        assert lt("x", 5).key_range() == (None, 5, True, False)
        assert le("x", 5).key_range() == (None, 5, True, True)
        assert gt("x", 5).key_range() == (5, None, False, True)
        assert ge("x", 5).key_range() == (5, None, True, True)

    def test_between_range(self):
        assert between("x", 1, 9).key_range() == (1, 9, True, True)

    def test_ne_has_no_range(self):
        with pytest.raises(ValueError):
            ne("x", 5).key_range()


class TestConjunction:
    def test_and_operator_builds_conjunction(self):
        pred = gt("Age", 20) & lt("Age", 30)
        assert isinstance(pred, Conjunction)
        assert pred.matches(reader(Age=25))
        assert not pred.matches(reader(Age=35))

    def test_nested_conjunction_flattens_comparisons(self):
        pred = Conjunction((gt("a", 1) & lt("a", 5), eq("b", 2)))
        leaves = pred.comparisons()
        assert len(leaves) == 3

    def test_empty_reader_field_raises_keyerror(self):
        with pytest.raises(KeyError):
            eq("Missing", 1).matches(reader(Age=1))

    def test_repr_is_readable(self):
        assert "Age" in repr(gt("Age", 65))
        assert "BETWEEN" in repr(between("Age", 1, 2))
        assert "AND" in repr(gt("a", 1) & lt("a", 5))


class TestQualify:
    def test_qualify_descends_into_every_connective(self):
        pred = (eq("a", 1) | (gt("b", 2) & between("c", 3, 4))).qualify("T")
        assert repr(pred) == (
            "((T.a = 1) OR (T.b > 2) AND (T.c BETWEEN 3 AND 4))"
        )

    def test_qualify_descends_into_fk_value_comparison(self):
        class Target:
            name = "Dept"

        fk = _FKValueComparison(gt("Dept_Id", 409), Target(), "Id")
        qualified = (eq("Age", 30) | fk).qualify("Emp")
        assert qualified.parts[1].comparison.field == "Emp.Dept_Id"
        assert qualified.parts[1].target is fk.target
        assert qualified.relations() == frozenset({"Dept"})

    def test_user_predicate_is_uncacheable_and_unqualified(self):
        class Odd(Predicate):
            def matches(self, read_field):
                return read_field("x") % 2 == 1

        odd = Odd()
        with pytest.raises(FingerprintError):
            (eq("a", 1) & odd).fingerprint()
        assert odd.qualify("T") is odd
        assert odd.relations() == frozenset()
