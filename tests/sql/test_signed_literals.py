"""Signed numeric literals: a leading ``-`` is part of the literal.

The dialect has no arithmetic, so a minus sign can only start a number.
The lexer and the template lifter read it from the same sub-pattern, so
``V = -1`` and ``V = 1`` are one statement template with different
values.
"""

from __future__ import annotations

import pytest

from repro import MainMemoryDatabase
from repro.sql.lexer import SQLSyntaxError, TokenType, tokenize
from repro.sql.template import lift


@pytest.fixture
def db():
    database = MainMemoryDatabase()
    database.sql("CREATE TABLE T (Id INT, V INT, W FLOAT, PRIMARY KEY (Id))")
    database.sql("CREATE INDEX T_V ON T (V)")
    for i in range(6):
        database.sql(f"INSERT INTO T VALUES ({i}, {i - 3}, {i - 2.5})")
    return database


def ids(result):
    return sorted(row["Id"] for row in result.to_dicts())


def test_lexer_reads_the_sign_as_part_of_the_literal():
    tokens = tokenize("V = -12 AND W > -0.5")
    literals = [(t.type, t.value) for t in tokens
                if t.type in (TokenType.INT, TokenType.FLOAT)]
    assert literals == [(TokenType.INT, "-12"), (TokenType.FLOAT, "-0.5")]


def test_select(db):
    assert ids(db.sql("SELECT * FROM T WHERE V = -1")) == [2]
    assert ids(db.sql("SELECT * FROM T WHERE V=-2")) == [1]
    assert ids(db.sql("SELECT * FROM T WHERE W < -1.0")) == [0, 1]


def test_between(db):
    assert ids(db.sql("SELECT * FROM T WHERE V BETWEEN -2 AND 0")) == [1, 2, 3]
    assert ids(
        db.sql("SELECT * FROM T WHERE W BETWEEN -2.5 AND -0.5")
    ) == [0, 1, 2]


def test_insert(db):
    db.sql("INSERT INTO T VALUES (9, -3, -7.25)")
    assert db.sql("SELECT * FROM T WHERE Id = 9").to_dicts() == [
        {"Id": 9, "V": -3, "W": -7.25}
    ]
    assert ids(db.sql("SELECT * FROM T WHERE V = -3")) == [0, 9]


def test_update(db):
    db.sql("UPDATE T SET V = -2 WHERE Id = 5")
    assert ids(db.sql("SELECT * FROM T WHERE V = -2")) == [1, 5]


def test_negative_and_positive_literals_share_a_template_key():
    negative = lift("SELECT * FROM T WHERE V = -1")
    positive = lift("SELECT * FROM T WHERE V = 1")
    assert negative == ("SELECT * FROM T WHERE V = ?i", (-1,))
    assert positive == ("SELECT * FROM T WHERE V = ?i", (1,))
    assert lift("INSERT INTO T VALUES (9, -3, -0.5)") == (
        "INSERT INTO T VALUES (?i, ?i, ?f)", (9, -3, -0.5)
    )


def test_templated_statement_binds_the_sign(db):
    before = len(db.templates)
    assert ids(db.sql("SELECT * FROM T WHERE V = 1")) == [4]
    assert ids(db.sql("SELECT * FROM T WHERE V = -1")) == [2]
    assert len(db.templates) == before + 1
    assert "SELECT * FROM T WHERE V = ?i" in db.templates


def test_negative_limit_is_a_syntax_error(db):
    with pytest.raises(SQLSyntaxError, match="non-negative"):
        db.sql("SELECT * FROM T LIMIT -1")


def test_a_lone_minus_is_still_junk():
    with pytest.raises(SQLSyntaxError, match="unexpected character"):
        tokenize("V = - 1")
