"""Statement templates: the literal lifter, the template store and the
lowered point operations, checked against the plain parse-and-interpret
path they replace."""

from __future__ import annotations

import ast as python_ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MainMemoryDatabase, QueryError
from repro.indexes.ttree import TTreeIndex
from repro.instrument import counters_scope
from repro.obs import ObservabilityConfig
from repro.sql.lexer import SQLSyntaxError, TokenType, tokenize
from repro.sql.parser import parse_statement
from repro.sql.prepared import bind_statement
from repro.sql.template import lift, parse_template
from tests.conftest import build_figure1_db

COUNTERS = ("comparisons", "moves", "hashes", "traversals", "allocations")


# --------------------------------------------------------------------------- #
# the lifter against the lexer
# --------------------------------------------------------------------------- #

identifiers = st.sampled_from(
    ["T0", "T0.c1", "c1", "Id", "a9", "x_1.y2", "Emp.Age", "limit_1", "L5"]
)
ints = st.integers(min_value=0, max_value=10**12).map(str)
floats = st.tuples(
    st.integers(0, 10**6), st.integers(0, 10**6)
).map(lambda pair: f"{pair[0]}.{pair[1]}")
strings = st.text(
    alphabet="ab '1.5;?LIMIT 7\n", max_size=12
).map(lambda body: "'" + body.replace("'", "''") + "'")
signs = st.sampled_from(["", "-"])
literals = st.one_of(
    st.tuples(signs, st.one_of(ints, floats)).map("".join),
    strings,
    st.just("NULL"),
)
gaps = st.sampled_from([" ", "  ", "\n", " \t "])


@st.composite
def conditions(draw):
    def leaf():
        column = draw(identifiers)
        if draw(st.booleans()):
            return (f"{column} BETWEEN {draw(literals)} "
                    f"AND {draw(literals)}")
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "!=", "<>"]))
        return f"{column} {op} {draw(literals)}"

    parts = [leaf()]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(st.sampled_from(["AND", "OR"])))
        parts.append(leaf())
    return " ".join(parts)


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["select", "insert", "update", "delete"]))
    table = draw(st.sampled_from(["T0", "Acct", "t1"]))
    if kind == "select":
        text = f"SELECT * FROM {table}"
        if draw(st.booleans()):
            text += f" WHERE {draw(conditions())}"
        if draw(st.booleans()):
            text += f" ORDER BY {draw(identifiers)}"
        if draw(st.booleans()):
            # One blank character is the spelling the lifter keeps in
            # the key; any other spacing must still round-trip
            # (untemplated).
            text += f" LIMIT{draw(gaps)}{draw(ints)}"
    elif kind == "insert":
        rows = [
            "(" + ", ".join(draw(st.lists(literals, min_size=1, max_size=4)))
            + ")"
            for _ in range(draw(st.integers(1, 3)))
        ]
        text = f"INSERT INTO {table} VALUES " + ", ".join(rows)
    elif kind == "update":
        sets = ", ".join(
            f"{draw(identifiers)} = {draw(literals)}"
            for _ in range(draw(st.integers(1, 2)))
        )
        text = f"UPDATE {table} SET {sets}"
        if draw(st.booleans()):
            text += f" WHERE {draw(conditions())}"
    else:
        text = f"DELETE FROM {table}"
        if draw(st.booleans()):
            text += f" WHERE {draw(conditions())}"
    # Stretch some of the blanks outside string literals.
    pieces = text.split("'")
    gap = draw(gaps)
    pieces[0::2] = [piece.replace(" ", gap) for piece in pieces[0::2]]
    text = "'".join(pieces)
    if draw(st.booleans()):
        text += draw(st.sampled_from([";", " ;", " ; "]))
    return text


def literal_tokens(text):
    """(python value) of every literal token that is not a LIMIT count."""
    tokens = tokenize(text)
    values = []
    for position, token in enumerate(tokens):
        if token.type is TokenType.INT:
            if not tokens[position - 1].is_keyword("LIMIT"):
                values.append(int(token.value))
        elif token.type is TokenType.FLOAT:
            values.append(float(token.value))
        elif token.type is TokenType.STRING:
            values.append(token.value)
    return values


class TestLifter:
    @settings(max_examples=300, deadline=None)
    @given(statements())
    def test_lift_then_bind_is_parse(self, text):
        key, params = lift(text)
        statement, templated = parse_template(text, params)
        # Lifting and re-binding gives exactly the statement the parser
        # reads from the text ...
        assert bind_statement(statement, params) == parse_statement(text)
        # ... no string literal (hence no significant blank) is left in
        # the key, and the statement is templated unless LIMIT is spelt
        # with unusual spacing.
        assert "'" not in key and "  " not in key and "\n" not in key
        tokens = tokenize(text)
        canonical_limit = all(
            following.position - token.position == len("LIMIT ")
            for token, following in zip(tokens, tokens[1:])
            if token.is_keyword("LIMIT")
        )
        assert templated == canonical_limit
        if templated:
            lifted = literal_tokens(text)
            assert list(params) == lifted
            assert [type(p) for p in params] == [type(v) for v in lifted]

    def test_key_format(self):
        key, params = lift(
            "  SELECT Name  FROM T0.x WHERE T0.c1 = 17 AND b = 2.50 "
            "AND c = 'it''s  9' LIMIT 10 ; "
        )
        assert key == (
            "SELECT Name FROM T0.x WHERE T0.c1 = ?i AND b = ?f "
            "AND c = ?s LIMIT 10"
        )
        assert params == (17, 2.5, "it's  9")
        # Identifiers are case-sensitive in this dialect; the key must be.
        assert lift("SELECT * FROM t")[0] != lift("SELECT * FROM T")[0]

    def test_limit_and_ddl_literals_stay_in_the_key(self):
        assert lift("SELECT * FROM T LIMIT 5")[0] != lift(
            "SELECT * FROM T LIMIT 6"
        )[0]
        assert lift("select * from T limit 5") == (
            "select * from T limit 5", ()
        )
        ddl = "CREATE TABLE T1 (c1 INT, c2 TEXT, PRIMARY KEY (c1))"
        assert lift(ddl) == (ddl, ())

    def test_kinds_never_share_a_key(self):
        keys = {
            lift(f"SELECT * FROM T WHERE Id = {literal}")[0]
            for literal in ("1", "1.0", "'1'")
        }
        assert len(keys) == 3

    def test_multi_row_values(self):
        key, params = lift("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert key == "INSERT INTO T VALUES (?i, ?s), (?i, ?s)"
        assert params == (1, "a", 2, "b")


# --------------------------------------------------------------------------- #
# db.sql(text) against run_statement(parse_statement(text))
# --------------------------------------------------------------------------- #


def sql_corpus():
    """Every constant statement text the tests/sql modules send through
    ``.sql(...)``, harvested from their source."""
    texts = []
    for name in ("test_interpreter.py", "test_join_chains.py",
                 "test_or_predicates.py"):
        tree = python_ast.parse((Path(__file__).parent / name).read_text())
        for node in python_ast.walk(tree):
            if (
                isinstance(node, python_ast.Call)
                and isinstance(node.func, python_ast.Attribute)
                and node.func.attr == "sql"
                and node.args
                and isinstance(node.args[0], python_ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                texts.append(node.args[0].value)
    return sorted(set(texts))


POINT_SHAPES = [
    "SELECT * FROM Acct WHERE Id = 17",
    "SELECT * FROM Acct WHERE Id = 4242",
    "INSERT INTO Acct VALUES (4242, 10, 42)",
    "INSERT INTO Acct VALUES (17, 10, 42)",
    "DELETE FROM Acct WHERE Id = 18",
    "DELETE FROM Acct WHERE Id = 4242",
    "UPDATE Acct SET Bal = 77 WHERE Id = 19",
    "UPDATE Acct SET Bal = 'x' WHERE Id = 19",
    "SELECT Bal, Grp FROM Acct WHERE Id = 20",
    "SELECT Nope FROM Acct WHERE Id = 20",
    "SELECT * FROM Acct WHERE Id = 'abc'",
    "SELECT * FROM Acct WHERE Id = 21.0",
    "SELECT * FROM Acct WHERE Grp = 3",
    "SELECT * FROM Acct WHERE Id = 22 LIMIT 1",
    "SELECT * FROM Acct WHERE Id = 22 LIMIT  1",
    "SELECT * FROM Acct WHERE Id = ?i",
    "SELECT * FROM Missing WHERE Id = 1",
    "EXPLAIN SELECT * FROM Acct WHERE Id = 23",
]


def build_world():
    """One database holding the schemas of every tests/sql fixture plus
    the ``oltp_point`` table."""
    db = build_figure1_db()
    for text in (
        "CREATE TABLE Dept (Name TEXT, Id INT, PRIMARY KEY (Id))",
        "CREATE TABLE Emp (Name TEXT, Id INT, Age INT, "
        "Dept INT REFERENCES Dept(Id), PRIMARY KEY (Id))",
        "INSERT INTO Dept VALUES ('Toy', 459), ('Shoe', 409), ('Linen', 411)",
        "INSERT INTO Emp VALUES ('Dave', 23, 24, 459), "
        "('Suzan', 12, 27, 459), ('Yaman', 44, 54, 411), "
        "('Jane', 43, 47, 411), ('Cindy', 22, 22, 409)",
        "CREATE TABLE Region (Id INT, Name TEXT, PRIMARY KEY (Id))",
        "CREATE TABLE Customer (Id INT, Name TEXT, "
        "Region INT REFERENCES Region(Id), PRIMARY KEY (Id))",
        "CREATE TABLE OrderLine (Id INT, "
        "Customer INT REFERENCES Customer(Id), Amount INT, "
        "PRIMARY KEY (Id))",
        "INSERT INTO Region VALUES (1, 'north'), (2, 'south')",
        "INSERT INTO Customer VALUES (10, 'alice', 1), (11, 'bob', 2), "
        "(12, 'carol', 1)",
        "INSERT INTO OrderLine VALUES (100, 10, 5), (101, 11, 7), "
        "(102, 12, 9), (103, 10, 3)",
        "CREATE TABLE Acct (Id INT, Bal INT, Grp INT, PRIMARY KEY (Id))",
    ):
        db._sql_interpreter.run_statement(parse_statement(text))
    for key in range(0, 300, 1):
        db.insert("Acct", [key, key * 3, key % 7])
    return db


def outcome(run):
    """What a statement did: its counters and its result or exception,
    in a comparable form."""
    with counters_scope() as counters:
        try:
            result = run()
        except Exception as exc:
            observed = ("raised", type(exc), str(exc))
        else:
            if hasattr(result, "materialize"):
                columns = (
                    result.descriptor.column_names
                    if hasattr(result, "descriptor")
                    else None
                )
                observed = ("rows", columns, result.materialize())
            elif isinstance(result, str) and "ANALYZE" in result.upper():
                observed = ("text",)  # carries wall-clock
            else:
                observed = ("value", result)
    return observed, tuple(getattr(counters, name) for name in COUNTERS)


def reference(db, text):
    return db._sql_interpreter.run_statement(parse_statement(text))


@pytest.mark.parametrize("text", sql_corpus() + POINT_SHAPES)
def test_sql_matches_parse_and_interpret(text):
    """Miss, then hit: the same rows or the same exception, and the same
    five counters, as interpreting the parsed text."""
    templated, plain = build_world(), build_world()
    for _ in range(2):
        expected = outcome(lambda: reference(plain, text))
        observed = outcome(lambda: templated.sql(text))
        if "EXPLAIN ANALYZE" in text.upper() and observed[0][0] != "raised":
            assert observed[0][0] == expected[0][0]
        else:
            assert observed == expected


def test_corpus_is_harvested():
    corpus = sql_corpus()
    assert len(corpus) > 40
    assert any("JOIN" in text for text in corpus)
    assert any(text.startswith("UPDATE") for text in corpus)


def test_point_stream_matches_parse_and_interpret():
    """The five ``oltp_point`` statement shapes, interleaved: every
    statement after the first of its shape runs lowered."""
    templated, plain = build_world(), build_world()
    rng = random.Random(7)
    live = list(range(300))
    for step in range(600):
        kind = rng.choice(["select"] * 6 + ["insert", "delete", "update"])
        key = rng.choice(live)
        if kind == "select":
            text = f"SELECT * FROM Acct WHERE Id = {key}"
        elif kind == "insert":
            key = 1000 + step
            live.append(key)
            text = f"INSERT INTO Acct VALUES ({key}, {step}, {key % 7})"
        elif kind == "delete":
            live.remove(key)
            text = f"DELETE FROM Acct WHERE Id = {key}"
        else:
            text = f"UPDATE Acct SET Bal = {step} WHERE Id = {key}"
        assert outcome(lambda: templated.sql(text)) == outcome(
            lambda: reference(plain, text)
        )
    stats = templated.templates.stats()
    assert stats["hits"] >= 590
    lowered = [t for _, t in templated.templates.items() if t.lowered]
    assert len(lowered) == 4


# --------------------------------------------------------------------------- #
# what is lowered, what is bound
# --------------------------------------------------------------------------- #


def template_of(db, text):
    return dict(db.templates.items())[lift(text)[0]]


class TestLoweringRules:
    def test_point_shapes_are_lowered(self):
        db = build_world()
        for text in POINT_SHAPES[:9:2]:
            db.sql(text)
            assert template_of(db, text).lowered is not None, text

    def test_foreign_key_equality_is_bound(self):
        db = build_world()
        text = "SELECT Name FROM Emp WHERE Dept = 459"
        rows = db.sql(text).materialize()
        assert sorted(rows) == [("Dave",), ("Suzan",)]
        assert template_of(db, text).lowered is None
        assert sorted(db.sql(
            "SELECT Name FROM Emp WHERE Dept = 411"
        ).materialize()) == [("Jane",), ("Yaman",)]

    def test_type_mismatched_literal_is_bound(self):
        db = build_world()
        text = "SELECT * FROM Acct WHERE Id = 'abc'"
        with pytest.raises(TypeError):
            db.sql(text)
        assert template_of(db, text).lowered is None

    def test_residual_range_and_join_are_bound(self):
        db = build_world()
        for text in (
            "SELECT * FROM Acct WHERE Id = 5 AND Bal = 15",
            "SELECT * FROM Acct WHERE Id > 5",
            "SELECT * FROM Acct WHERE Grp = 3",
            "SELECT DISTINCT Grp FROM Acct WHERE Id = 5",
            "SELECT * FROM Emp JOIN Dept ON Dept = Dept.Id WHERE Emp.Id = 23",
        ):
            db.sql(text)
            assert template_of(db, text).lowered is None, text

    def test_result_cache_and_observability_take_the_bound_path(self):
        db = build_world()
        text = "SELECT * FROM Acct WHERE Id = 5"
        db.sql(text)
        assert template_of(db, text).lowered is not None
        db.configure_cache()
        db.sql(text)
        db.sql(text)
        assert db.cache_stats()["result"]["hits"] == 1
        db.configure_cache(None)
        obs = db.configure_observability(ObservabilityConfig())
        try:
            db.sql(text)
            assert obs.last_query_span() is not None
            probes = obs.metrics.snapshot()["index_probes_total"]
            assert sum(probes.values()) == 1
        finally:
            db.configure_observability(
                ObservabilityConfig(tracing=False, metrics=False)
            )

    def test_placeholder_text_is_rejected_and_not_stored(self):
        db = build_world()
        db.sql("SELECT * FROM Acct WHERE Id = 5")
        size = len(db.templates)
        for text, error in (
            ("SELECT * FROM Acct WHERE Id = ?", QueryError),
            ("SELECT * FROM Acct WHERE Id = 5 AND Bal = ?", QueryError),
            ("SELECT * FROM Acct WHERE Id = ?i", SQLSyntaxError),
        ):
            with pytest.raises(error):
                db.sql(text)
        assert len(db.templates) == size
        # A ? inside a string is data; it runs, untemplated.
        assert len(db.sql("SELECT * FROM Emp WHERE Name = 'who?'")) == 0
        assert len(db.templates) == size

    def test_ddl_is_not_stored(self):
        db = MainMemoryDatabase()
        db.sql("CREATE TABLE T (a INT, b INT)")
        db.sql("CREATE INDEX b_idx ON T (b)")
        assert len(db.templates) == 0


# --------------------------------------------------------------------------- #
# invalidation by the schema epoch
# --------------------------------------------------------------------------- #


class TestSchemaEpoch:
    def test_dml_does_not_move_the_epoch(self):
        db = build_world()
        epoch = db.catalog.schema_epoch
        db.sql("INSERT INTO Acct VALUES (9000, 1, 1)")
        db.sql("UPDATE Acct SET Bal = 2 WHERE Id = 9000")
        db.sql("DELETE FROM Acct WHERE Id = 9000")
        assert db.catalog.schema_epoch == epoch

    def test_index_ddl_recompiles_tree_to_hash_to_scan(self):
        db = build_world()
        text = "SELECT * FROM Acct WHERE Grp = 3"
        expected = sorted(db.sql(text).materialize())
        assert template_of(db, text).lowered is None  # a scan

        db.sql("CREATE INDEX grp_tree ON Acct (Grp) USING ttree")
        with counters_scope() as tree:
            assert sorted(db.sql(text).materialize()) == expected
        assert template_of(db, text).lowered is not None
        assert tree.hashes == 0 and tree.comparisons > 0

        db.sql("CREATE INDEX grp_hash ON Acct (Grp) USING chained_hash")
        with counters_scope() as hashed:
            assert sorted(db.sql(text).materialize()) == expected
        assert hashed.hashes > 0

        db.sql("DROP INDEX grp_hash ON Acct")
        db.sql("DROP INDEX grp_tree ON Acct")
        assert sorted(db.sql(text).materialize()) == expected
        assert template_of(db, text).lowered is None
        assert db.templates.stats()["invalidations"] >= 3

    def test_drop_and_recreate_table(self):
        db = MainMemoryDatabase()
        db.sql("CREATE TABLE T (a INT, b INT)")
        db.sql("INSERT INTO T VALUES (1, 2)")
        assert db.sql("SELECT * FROM T WHERE a = 1").materialize() == [(1, 2)]
        db.sql("DROP TABLE T")
        db.sql("CREATE TABLE T (b TEXT, a INT, PRIMARY KEY (a))")
        db.sql("INSERT INTO T VALUES ('x', 1)")
        assert db.sql("SELECT * FROM T WHERE a = 1").materialize() == [
            ("x", 1)
        ]

    def test_crash_and_recover(self):
        db = MainMemoryDatabase(durable=True)
        db.sql("CREATE TABLE T (a INT, b INT)")
        for key in range(50):
            db.sql(f"INSERT INTO T VALUES ({key}, {key})")
        assert len(db.sql("SELECT * FROM T WHERE a = 7")) == 1
        stale = template_of(db, "SELECT * FROM T WHERE a = 7")
        db.crash()
        db.recover()
        # Only the rebuilt index learns of a row inserted now.
        db.insert("T", [1000, 1])
        assert db.sql("SELECT * FROM T WHERE a = 1000").materialize() == [
            (1000, 1)
        ]
        assert template_of(db, "SELECT * FROM T WHERE a = 7") is not stale

    def test_prepared_statement_follows_the_epoch(self):
        db = build_world()
        statement = db.prepare("SELECT * FROM Acct WHERE Grp = ?")
        assert statement.lowered is None
        expected = sorted(statement.execute(3).materialize())
        db.sql("CREATE INDEX grp_tree ON Acct (Grp)")
        assert sorted(statement.execute(3).materialize()) == expected
        assert statement.lowered is not None


# --------------------------------------------------------------------------- #
# late binding, metrics
# --------------------------------------------------------------------------- #


def test_wrappers_installed_after_warm_up_are_reached(monkeypatch):
    """The e2e tracer wraps class attributes after the caches are warm;
    a cached lowered operation must still go through them."""
    db = build_world()
    db.sql("SELECT * FROM Acct WHERE Id = 5")
    db.sql("INSERT INTO Acct VALUES (5000, 1, 1)")
    db.sql("DELETE FROM Acct WHERE Id = 5000")
    calls = []

    def wrap(owner, name):
        original = vars(owner)[name]

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    wrap(TTreeIndex, "search_all")
    wrap(MainMemoryDatabase, "insert")
    wrap(MainMemoryDatabase, "delete")
    db.sql("SELECT * FROM Acct WHERE Id = 6")
    db.sql("INSERT INTO Acct VALUES (5001, 1, 1)")
    db.sql("DELETE FROM Acct WHERE Id = 5001")
    assert calls == ["search_all", "insert", "search_all", "delete"]


def test_template_requests_are_published():
    db = build_world()
    obs = db.configure_observability(ObservabilityConfig())
    try:
        db.sql("SELECT * FROM Acct WHERE Id = 5")
        db.sql("SELECT * FROM Acct WHERE Id = 6")
        db.sql("CREATE INDEX grp_tree ON Acct (Grp)")
        db.sql("SELECT * FROM Acct WHERE Id = 7")
        requests = obs.metrics.snapshot()["cache_requests_total"]
        assert requests["layer=template,outcome=hit"] == 1
        assert requests["layer=template,outcome=stale"] == 1
        # The two first sightings, and the DDL (compiled, never stored).
        assert requests["layer=template,outcome=miss"] == 2
        report = db.observability_report()
        assert report.count("SELECT * FROM Acct WHERE Id = ?i") == 1
    finally:
        db.configure_observability(
            ObservabilityConfig(tracing=False, metrics=False)
        )
