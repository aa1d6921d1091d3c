"""Golden facts about plan trees: fingerprints, dependency sets,
descriptors and EXPLAIN text, pinned byte for byte.

The plan fingerprint is the result cache's reuse key and the relation
set its staleness check, so a refactor of how plan nodes compute them
must not move either by one bit.  The recorded values cover every plan
of the batch differential suite's hand-built mix and the plans of a
fixed SQL corpus under both ``written`` and ``cost`` join ordering.

Re-record (only when a change is *meant* to alter a fact) with::

    PYTHONPATH=src python tests/query/test_plan_golden.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro import MainMemoryDatabase
from repro.sql.parser import parse_statement

GOLDEN = Path(__file__).with_name("golden_plan_facts.json")

SETUP = [
    "CREATE TABLE Department (Name TEXT, Id INT, PRIMARY KEY (Id))",
    "CREATE TABLE Employee (Name TEXT, Id INT, Age INT, "
    "Dept_Id INT REFERENCES Department (Id), PRIMARY KEY (Id))",
    "INSERT INTO Department VALUES ('Toy', 459), ('Shoe', 409), "
    "('Linen', 411), ('Paint', 455)",
    "INSERT INTO Employee VALUES ('Dave', 23, 24, 459), "
    "('Suzan', 12, 27, 459), ('Yaman', 44, 54, 411), "
    "('Jane', 43, 47, 411), ('Cindy', 22, 22, 409)",
    "CREATE TABLE Label (lid INT, country INT, PRIMARY KEY (lid))",
    "CREATE TABLE Artist (rid INT, label INT REFERENCES Label(lid), "
    "PRIMARY KEY (rid))",
    "CREATE TABLE Album (aid INT, artist INT REFERENCES Artist(rid), "
    "year INT, PRIMARY KEY (aid))",
    "CREATE TABLE Track (tid INT, album INT REFERENCES Album(aid), "
    "genre INT, PRIMARY KEY (tid))",
]

#: Statements whose plan facts *and* EXPLAIN text are pinned.
CORPUS = [
    "SELECT * FROM Employee",
    "SELECT Name FROM Employee WHERE Id = 23",
    "SELECT Name FROM Employee WHERE Id = 23 OR Id = 44",
    "SELECT Name FROM Employee WHERE Age > 25",
    "SELECT Name FROM Employee WHERE Age BETWEEN 22 AND 30 AND Id != 12",
    "SELECT Name FROM Employee WHERE Age < 30 OR Age > 50",
    "SELECT Name FROM Employee WHERE Dept_Id = 459",
    "SELECT Name FROM Employee WHERE Dept_Id > 409",
    "SELECT DISTINCT Age FROM Employee",
    "SELECT Employee.Name, Department.Name FROM Employee "
    "JOIN Department ON Dept_Id = Id WHERE Age > 25",
    "SELECT Employee.Name FROM Employee JOIN Department ON Dept_Id = Id "
    "WHERE Department.Name = 'Toy' OR Department.Name = 'Shoe'",
    "SELECT * FROM Employee JOIN Department ON Dept_Id = Id "
    "WHERE Dept_Id > 409",
    "SELECT * FROM Employee JOIN Department ON Age < Id USING nested_loops",
    "SELECT * FROM Department JOIN Department ON Id = Id USING hash",
    "SELECT * FROM Track JOIN Album ON album = aid JOIN Artist ON artist "
    "= rid WHERE genre = 2",
    "SELECT * FROM Track JOIN Album ON album = aid JOIN Artist ON artist "
    "= rid JOIN Label ON Artist.label = Label.lid WHERE country = 1",
    "SELECT Track.tid, Artist.rid FROM Track JOIN Album ON album = aid "
    "JOIN Artist ON artist = rid WHERE genre = 1 AND rid > 3",
    "SELECT DISTINCT genre FROM Track JOIN Album ON album = aid "
    "JOIN Artist ON artist = rid WHERE rid < 6 OR year > 1985",
]

#: Statements whose plan facts are pinned but whose EXPLAIN text is not
#: (an FK equality on an absent key plans a never-matching scan).
FACTS_ONLY = [
    "SELECT Name FROM Employee WHERE Dept_Id = 999",
]

ORDERINGS = ("written", "cost")


def build_db(ordering: str) -> MainMemoryDatabase:
    db = MainMemoryDatabase()
    for statement in SETUP:
        db.sql(statement)
    rng = random.Random(19860528)
    for l in range(5):
        db.insert("Label", [l, l % 3])
    for r in range(12):
        db.insert("Artist", [r, rng.randrange(5)])
    for a in range(60):
        db.insert("Album", [a, rng.randrange(12), 1980 + rng.randrange(10)])
    for t in range(300):
        db.insert("Track", [t, rng.randrange(60), rng.randrange(4)])
    db.configure_optimizer(join_ordering=ordering)
    return db


def plan_facts(plan, catalog) -> dict:
    return {
        "fingerprint": repr(plan.fingerprint()),
        "relations": sorted(plan.relations()),
        "columns": list(plan.descriptor(catalog).column_names),
    }


def sql_facts(ordering: str) -> dict:
    db = build_db(ordering)
    interpreter = db._sql_interpreter
    out = {}
    for text in CORPUS + FACTS_ONLY:
        plan = interpreter._build_core_plan(parse_statement(text))
        facts = plan_facts(plan, db.catalog)
        if text in CORPUS:
            facts["explain"] = db.sql("EXPLAIN " + text)
        out[text] = facts
    return out


def mix_facts() -> list:
    from tests.query.test_batch_differential import _plan_mix, db

    database = db.__wrapped__()
    return [
        dict(plan_facts(plan, database.catalog), explain=plan.explain())
        for plan in _plan_mix()
    ]


def record() -> dict:
    return {
        "plan_mix": mix_facts(),
        "sql": {ordering: sql_facts(ordering) for ordering in ORDERINGS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_plan_mix_facts_unchanged(golden):
    assert mix_facts() == golden["plan_mix"]


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_sql_corpus_facts_unchanged(golden, ordering):
    recorded = golden["sql"][ordering]
    current = sql_facts(ordering)
    assert sorted(current) == sorted(recorded)
    for text in current:
        assert current[text] == recorded[text], text


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
