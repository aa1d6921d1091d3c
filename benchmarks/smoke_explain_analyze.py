"""CI smoke: EXPLAIN ANALYZE and the zero-overhead observability contract.

Two guarantees are asserted over a Graph 2-style SQL mix (60% searches /
20% inserts / 20% deletes, the paper's representative workload ratio):

1. **EXPLAIN ANALYZE works in both states.**  Every SELECT shape of the
   mix renders an annotated span tree — estimated rows, actual rows, and
   the Section 3.1 counters per operator — whether observability is off
   (the statement self-activates a temporary tracer) or on.

2. **Zero overhead on the counted ops.**  The paper compiled its
   counters out for the timed runs; our analogue is that tracing must
   never change what the counters *measure*.  The same read-only query
   set is executed with observability off and then fully on (tracing +
   metrics), and the total operation counts must be identical — hooks
   attribute existing counts to spans, they never add counts.

Run directly (``python benchmarks/smoke_explain_analyze.py``) or via
pytest; CI runs it as a dedicated step.
"""

from __future__ import annotations

try:
    from benchmarks.harness import bench_rng, scaled
except ImportError:  # pragma: no cover - direct execution
    from harness import bench_rng, scaled

from repro.engine.database import MainMemoryDatabase
from repro.instrument import counters_scope
from repro.obs import ObservabilityConfig

_DEPARTMENTS = 20
_EMPLOYEES = scaled(3_000)  # 300 by default

#: The SELECT shapes of the mix (60%): scan, index lookups, range, join.
SELECTS = [
    "SELECT * FROM Employee WHERE Id = 42",
    "SELECT Name FROM Employee WHERE Age BETWEEN 30 AND 34",
    "SELECT Name FROM Employee WHERE Age = 21 OR Age = 63",
    "SELECT Employee.Name, Department.Name FROM Employee "
    "JOIN Department ON Dept_Id = Id WHERE Age > 60",
    "SELECT Department.Name, count(*) AS n FROM Employee "
    "JOIN Department ON Dept_Id = Id WHERE Age < 30 "
    "GROUP BY Department.Name",
    "SELECT DISTINCT Age FROM Employee WHERE Age < 25",
]

#: Six annotations every EXPLAIN ANALYZE line set must include.
REQUIRED_KEYS = (
    "est_rows=", "actual_rows=", "comparisons=", "moves=", "hashes=",
    "traversals=",
)


def _build_db() -> MainMemoryDatabase:
    rng = bench_rng()
    db = MainMemoryDatabase()
    db.sql("CREATE TABLE Department (Name TEXT, Id INT, PRIMARY KEY (Id))")
    db.sql(
        "CREATE TABLE Employee (Name TEXT, Id INT, Age INT, "
        "Dept_Id INT REFERENCES Department(Id), PRIMARY KEY (Id))"
    )
    for dept in range(_DEPARTMENTS):
        db.insert("Department", [f"Dept{dept:02d}", dept])
    for emp in range(_EMPLOYEES):
        db.insert(
            "Employee",
            [f"Emp{emp:05d}", emp, rng.randint(18, 65),
             rng.randrange(_DEPARTMENTS)],
        )
    db.sql("CREATE INDEX emp_age ON Employee (Age)")
    return db


def _run_mix(db: MainMemoryDatabase, rounds: int = 10) -> None:
    """Graph 2-style 60/20/20 mix: 6 selects, 2 inserts, 2 deletes per
    round (inserts and deletes pair up, so the data set is stable)."""
    next_id = _EMPLOYEES + 1_000_000
    for round_no in range(rounds):
        for text in SELECTS:
            db.sql(text)
        fresh = next_id + 2 * round_no
        db.sql(f"INSERT INTO Employee VALUES ('T1', {fresh}, 40, 1)")
        db.sql(f"INSERT INTO Employee VALUES ('T2', {fresh + 1}, 41, 2)")
        db.sql(f"DELETE FROM Employee WHERE Id = {fresh}")
        db.sql(f"DELETE FROM Employee WHERE Id = {fresh + 1}")


def _selects_total_ops(db: MainMemoryDatabase) -> int:
    """The five Section-3.1 counters summed.  (``OpCounters.total()``
    would add the bookkeeping events too — ``plans_built``,
    ``sql_tokens``, cache hits — and those follow the path: under
    observability a point lookup takes the statement-level path and is
    planned, with it off the cached lowered operation runs unplanned.)"""
    with counters_scope() as counters:
        for text in SELECTS:
            db.sql(text)
    return (
        counters.comparisons + counters.moves + counters.hashes
        + counters.traversals + counters.allocations
    )


def _assert_analyze_output(db: MainMemoryDatabase, label: str) -> None:
    for text in SELECTS:
        rendered = db.sql("EXPLAIN ANALYZE " + text)
        for key in REQUIRED_KEYS:
            assert key in rendered, (
                f"[{label}] missing {key!r} in EXPLAIN ANALYZE of "
                f"{text!r}:\n{rendered}"
            )
        assert rendered.startswith("Query"), rendered


def main() -> None:
    db = _build_db()

    # -- observability OFF -------------------------------------------------
    _run_mix(db)  # the mix itself works untraced (and warms stats caches)
    _assert_analyze_output(db, "obs off")
    ops_off = _selects_total_ops(db)

    # -- observability ON --------------------------------------------------
    obs = db.configure_observability(ObservabilityConfig())
    _run_mix(db)
    _assert_analyze_output(db, "obs on")
    ops_on = _selects_total_ops(db)

    assert ops_on == ops_off, (
        f"tracing changed the counted ops: off={ops_off} on={ops_on}"
    )

    # The mix was recorded: every statement shows up in the registry.
    exported = obs.export_prometheus()
    assert "queries_total" in exported
    assert "query_latency_seconds_bucket" in exported
    span = obs.last_query_span()
    assert span is not None and span.kind == "query"

    # -- back OFF: hooks return to no-ops ---------------------------------
    db.configure_observability(
        ObservabilityConfig(tracing=False, metrics=False)
    )
    ops_off_again = _selects_total_ops(db)
    assert ops_off_again == ops_off, (
        f"disabling observability changed the counted ops: "
        f"{ops_off} -> {ops_off_again}"
    )
    print(
        f"EXPLAIN ANALYZE smoke OK: {len(SELECTS)} query shapes, "
        f"total select ops {ops_off} identical with observability "
        "off/on/off"
    )


def test_explain_analyze_smoke():
    main()


if __name__ == "__main__":
    main()
