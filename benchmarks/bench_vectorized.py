"""Batch engine vs. tuple engine on the Graph-2-style query mix.

The paper's Graph 2 mixes index operations 60/20/20 (search/insert/
delete).  This benchmark lifts that mix one level up, to whole queries
— 60% selections, 20% joins, 20% projections with duplicate
elimination — and runs the identical plan trees through both execution
engines:

* the tuple-at-a-time reference :class:`~repro.query.executor.Executor`;
* the batch :class:`~repro.query.vectorized.BatchExecutor` (compiled
  predicates, partitioned hash join, dereference-cached keys, each
  operator over its child's whole row list).

Reported per engine: wall-clock, the Section 3.1 weighted cost, raw
comparison/traversal/hash counts and the batch engine's
``deref_saved_traversals`` (physical dereferences avoided by the
per-operator cache).  The run asserts identical result rows per query
and counter equivalence on every non-hash path; the wall-clock speedup
of the batch engine is reported, not gated (the end-to-end benchmark,
``benchmarks/e2e``, is where time is judged).
"""

from __future__ import annotations

import time

try:
    from benchmarks.harness import (
        SeriesCollector,
        bench_rng,
        measure,
        scaled,
    )
except ImportError:  # pragma: no cover - direct execution
    from harness import SeriesCollector, bench_rng, measure, scaled

from repro import Field, FieldType, MainMemoryDatabase
from repro.instrument import counters_scope
from repro.query.plan import FilterNode, JoinNode, ProjectNode, ScanNode
from repro.query.predicates import between, eq, ge, gt, le, lt

N_OUTER = scaled(30000)  # 3,000 by default
N_INNER = scaled(3000)  # 300 by default
N_QUERIES = 30  # 18 selections / 6 joins / 6 projections
VALUE_SPACE = 500  # join/dedup columns carry heavy duplicates
TIMING_ROUNDS = 3  # wall-clock is the best of these


def build_db() -> MainMemoryDatabase:
    rng = bench_rng()
    db = MainMemoryDatabase()
    db.create_relation(
        "Orders",
        [
            Field("Id", FieldType.INT),
            Field("Qty", FieldType.INT),
            Field("Price", FieldType.INT),
        ],
        primary_key="Id",
    )
    db.create_relation(
        "Parts",
        [Field("Id", FieldType.INT), Field("Qty", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(N_OUTER):
        db.insert(
            "Orders",
            [i, rng.randrange(VALUE_SPACE), rng.randrange(10_000)],
        )
    for i in range(N_INNER):
        db.insert("Parts", [i, rng.randrange(VALUE_SPACE)])
    return db


def query_mix():
    """The 60/20/20 plan list (identical trees for both engines).

    Joins and duplicate elimination use the *hash* methods — the
    methods the paper itself concludes are superior in memory (and the
    ones a query optimizer over this catalog picks); the sort-based
    variants are exercised by :func:`sort_path_plans` in the
    differential check, where their counter-equivalence is the claim
    (their wall-clock is dominated by the shared instrumented
    quicksort, identical in both engines by construction).
    """
    rng = bench_rng()
    selections = []
    for i in range(18):
        low = rng.randrange(VALUE_SPACE // 2)
        high = low + rng.randrange(50, 200)
        shape = i % 3
        if shape == 0:
            # Conjunctive range scan (compiled cascade vs. AST walk).
            selections.append(
                ScanNode("Orders", gt("Qty", low) & lt("Qty", high))
            )
        elif shape == 1:
            # Disjunctive scan over price bands + BETWEEN.
            selections.append(
                ScanNode(
                    "Orders",
                    between("Qty", low, high)
                    | ge("Price", 9_000)
                    | le("Price", 500),
                )
            )
        else:
            # Explicit Filter node over a bare scan (filter path).
            selections.append(
                FilterNode(
                    ScanNode("Orders"),
                    gt("Price", 1_000) & lt("Price", 9_000) & eq("Qty", low),
                )
            )
    joins = []
    for i in range(6):
        # Predicated outer scan feeding a hash probe — the common
        # select-then-join shape.
        low = rng.randrange(VALUE_SPACE // 2)
        joins.append(
            JoinNode(
                ScanNode("Orders", gt("Qty", low)),
                ScanNode("Parts"),
                "Qty",
                "Qty",
                "hash",
            )
        )
    projections = [
        ProjectNode(
            ScanNode("Orders"),
            ("Qty",),
            deduplicate=True,
            dedup_method="hash",
        )
        for _ in range(6)
    ]
    mix = selections + joins + projections
    assert len(mix) == N_QUERIES
    rng.shuffle(mix)
    return mix


def sort_path_plans():
    """Sort-based join/dedup plans, differential-checked but untimed.

    These paths reuse the paper's instrumented quicksort in both
    engines (the batch engine only swaps in cached key extractors), so
    the interesting property is exact counter equivalence, not
    wall-clock.
    """
    return [
        JoinNode(
            ScanNode("Orders"), ScanNode("Parts"), "Qty", "Qty", "sort_merge"
        ),
        JoinNode(
            ScanNode("Orders"),
            ScanNode("Parts"),
            "Qty",
            "Qty",
            "nested_loops",
        ),
        ProjectNode(
            ScanNode("Orders"),
            ("Qty",),
            deduplicate=True,
            dedup_method="sort_scan",
        ),
    ]


def _uses_hash_kernel(plan) -> bool:
    """Does any node run a batch hash kernel (join or dedup)?

    Those are the two paths outside the strict counter-equivalence
    contract: their counts are elementwise *bounded above* by the tuple
    engine's instead of equal.
    """
    if isinstance(plan, JoinNode):
        if plan.op == "=" and plan.method == "hash":
            return True
        return _uses_hash_kernel(plan.left) or _uses_hash_kernel(plan.right)
    if (
        isinstance(plan, ProjectNode)
        and plan.deduplicate
        and plan.dedup_method == "hash"
    ):
        return True
    child = getattr(plan, "child", None)
    return child is not None and _uses_hash_kernel(child)


def run_mix(db, plans):
    executor = db.executor
    for plan in plans:
        executor.execute(plan)


def differential_check(db, plans):
    """Identical rows per query; counter equivalence off the hash path."""
    checked_equal = 0
    for plan in plans:
        db.configure_execution(engine="tuple")
        with counters_scope() as ct:
            tuple_result = db.executor.execute(plan)
        db.configure_execution(engine="batch")
        with counters_scope() as cb:
            batch_result = db.executor.execute(plan)
        assert tuple_result.rows() == batch_result.rows(), plan
        if not _uses_hash_kernel(plan):
            t = ct.snapshot().as_dict()
            b = cb.snapshot().as_dict()
            b.pop("deref_saved_traversals", None)
            assert t == b, (plan, t, b)
            checked_equal += 1
    return checked_equal


def main() -> None:
    db = build_db()
    plans = query_mix()
    equal_paths = differential_check(db, plans + sort_path_plans())

    series = SeriesCollector(
        f"Batch vs. tuple engine - query mix 60/20/20, "
        f"|Orders|={N_OUTER}, |Parts|={N_INNER}",
        "engine",
        [
            "seconds",
            "cost",
            "comparisons",
            "traversals",
            "hashes",
            "deref_saved",
        ],
    )
    seconds_by_engine = {}
    for engine in ("tuple", "batch"):
        db.configure_execution(engine=engine)
        best = None
        counters = None
        for _ in range(TIMING_ROUNDS):
            _, snap, elapsed = measure(lambda: run_mix(db, plans))
            if best is None or elapsed < best:
                best = elapsed
                counters = snap
        seconds_by_engine[engine] = best
        series.add(
            engine,
            seconds=best,
            cost=counters.weighted_cost(),
            comparisons=counters.comparisons,
            traversals=counters.traversals,
            hashes=counters.hashes,
            deref_saved=counters.extra.get("deref_saved_traversals", 0),
        )

    speedup = seconds_by_engine["tuple"] / seconds_by_engine["batch"]
    series.publish(
        "vectorized_query_mix",
        extra={
            "speedup": round(speedup, 3),
            "queries": N_QUERIES,
            "mix": {"selections": 18, "joins": 6, "projections": 6},
            "differential_checked": N_QUERIES + len(sort_path_plans()),
            "differential_equal_paths": equal_paths,
        },
    )
    checked = N_QUERIES + len(sort_path_plans())
    print(
        f"speedup: {speedup:.2f}x; "
        f"{equal_paths}/{checked} checked plans counter-equivalent "
        f"(rest use hash kernels, bounded above)"
    )


if __name__ == "__main__":
    main()
