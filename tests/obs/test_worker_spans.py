"""Cross-process trace harvest: worker span trees grafted under the
dispatching ``<op>.morsel`` spans.

The contract under test, in three parts:

* **zero overhead / exactness** — the five Section 3.1 counter totals
  of a statement are bit-identical off/on/off (observability disabled,
  enabled, disabled again) at every worker count, and identical to the
  scalar batch engine (``workers=1``);
* **grafting** — with tracing active, every parallelised morsel's span
  carries exactly one grafted ``worker`` child whose counters equal the
  morsel's merged packed counts; and
* **fault round-trip** — a chaos-seeded run annotates the retried
  morsel's span with the injected fault events, proving the annotations
  survive the worker→coordinator hop.
"""

from __future__ import annotations

import pytest

from repro import MainMemoryDatabase
from repro.fault import FaultPolicy
from repro.instrument import counters_scope
from repro.obs import ObservabilityConfig

QUERIES = (
    "SELECT id FROM t WHERE v = 3",
    "SELECT id FROM t WHERE v > 2 AND v < 9",
    "SELECT DISTINCT v FROM t",
    "SELECT t.id, u.tag FROM t JOIN u ON v = k USING hash",
)


def _build_db(workers: int) -> MainMemoryDatabase:
    db = MainMemoryDatabase()
    db.sql("CREATE TABLE t (id INT, v INT)")
    db.sql("CREATE TABLE u (k INT, tag INT)")
    for start in range(0, 3000, 500):
        values = ", ".join(
            f"({i}, {i % 17})" for i in range(start, start + 500)
        )
        db.sql(f"INSERT INTO t VALUES {values}")
    values = ", ".join(f"({i}, {i * 10})" for i in range(17))
    db.sql(f"INSERT INTO u VALUES {values}")
    db.configure_execution(
        engine="batch", workers=workers, pool="inline", morsel_size=256
    )
    return db


def _totals(db) -> list:
    out = []
    for sql in QUERIES:
        with counters_scope() as counters:
            db.sql(sql)
        out.append(
            (
                counters.comparisons,
                counters.moves,
                counters.hashes,
                counters.traversals,
                counters.allocations,
            )
        )
    return out


class TestOffOnOffEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_totals_identical_off_on_off(self, workers):
        db = _build_db(workers)
        off_before = _totals(db)
        db.configure_observability(ObservabilityConfig())
        on = _totals(db)
        db.configure_observability(
            ObservabilityConfig(tracing=False, metrics=False)
        )
        off_after = _totals(db)
        assert off_before == on == off_after

    def test_totals_identical_across_worker_counts(self):
        baseline = _totals(_build_db(1))
        for workers in (2, 4):
            db = _build_db(workers)
            assert _totals(db) == baseline
            db.configure_observability(ObservabilityConfig())
            assert _totals(db) == baseline


class TestWorkerSpanGraft:
    def test_worker_spans_grafted_under_morsel_spans(self):
        db = _build_db(2)
        obs = db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        root = obs.last_query_span()
        morsels = root.find_all("morsel")
        workers = root.find_all("worker")
        assert morsels and len(workers) == len(morsels)
        for morsel in morsels:
            grafted = [c for c in morsel.children if c.kind == "worker"]
            assert len(grafted) == 1
            # The graft is structural: the morsel's counters come from
            # the packed-count merge, the worker child reports the same
            # work, so the totals agree exactly.
            assert (
                grafted[0].counters.as_dict() == morsel.counters.as_dict()
            )
            assert "worker_pid" in morsel.attrs
            assert morsel.attrs["queue_wait"] >= 0.0

    def test_morsel_rollup_matches_operator_span(self):
        db = _build_db(2)
        obs = db.configure_observability(ObservabilityConfig())
        db.sql("SELECT id FROM t WHERE v = 3")
        root = obs.last_query_span()
        scan = root.find("Scan")
        morsels = [c for c in scan.children if c.kind == "morsel"]
        assert morsels
        summed = sum(m.counters.comparisons for m in morsels)
        assert summed == scan.counters.comparisons

    def test_worker_breakdown_in_explain_analyze(self):
        db = _build_db(2)
        text = db.sql("EXPLAIN ANALYZE SELECT id FROM t WHERE v = 3")
        assert "worker.scan_filter" in text
        assert "Per-worker morsel breakdown:" in text

    def test_telemetry_mode_without_tracer_grafts_nothing(self):
        db = _build_db(2)
        obs = db.configure_observability(
            ObservabilityConfig(tracing=False)
        )
        db.sql("SELECT id FROM t WHERE v = 3")
        assert obs.last_query_span() is None
        # Telemetry still flowed: the scheduler saw every morsel.
        assert db.scheduler_stats()["workers"]


class TestFaultAnnotationRoundTrip:
    def test_injected_fault_annotates_morsel_span(self):
        db = _build_db(2)
        obs = db.configure_observability(ObservabilityConfig())
        db.configure_faults(
            seed=7,
            policies=[
                FaultPolicy("pool.worker", action="error", one_shot=True)
            ],
        )
        with counters_scope() as counters:
            rows = db.sql("SELECT id FROM t WHERE v = 3")
        root = obs.last_query_span()
        annotated = [
            span
            for span in root.find_all("morsel")
            if "fault_events" in span.attrs
        ]
        assert len(annotated) == 1
        assert annotated[0].attrs["fault_events"] == ["error"]
        assert annotated[0].attrs["retries"] == 1
        # The retried morsel contributed its counts exactly once.
        clean = _build_db(2)
        with counters_scope() as expected:
            assert len(clean.sql("SELECT id FROM t WHERE v = 3")) == len(rows)
        assert (
            counters.comparisons,
            counters.moves,
            counters.hashes,
            counters.traversals,
            counters.allocations,
        ) == (
            expected.comparisons,
            expected.moves,
            expected.hashes,
            expected.traversals,
            expected.allocations,
        )
