"""Unit tests for the vectorized package: config, deref, compile, kernels."""

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.instrument import counters_scope
from repro.query.plan import ScanNode
from repro.query.predicates import between, gt, lt
from repro.query.vectorized import (
    DEREF_SAVED_COUNTER,
    BatchExecutor,
    ExecutionConfig,
    row_extractor,
)
from repro.query.vectorized.compile import compile_predicate
from repro.query.vectorized.deref import RowFieldAccess, ScanFieldAccess
from repro.query.vectorized.kernels import (
    PartitionedHashTable,
    _fit_partitions,
    build_hash_table,
    dedup_hash_rows,
    probe_hash_table,
)


@pytest.fixture()
def db():
    database = MainMemoryDatabase()
    database.create_relation(
        "T",
        [Field("Id", FieldType.INT), Field("V", FieldType.INT)],
        primary_key="Id",
    )
    for i in range(20):
        database.insert("T", [i, i % 5])
    return database


def _refs(database):
    relation = database.catalog.relation("T")
    return relation, list(relation.any_index().scan())


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.engine == "tuple"
        assert config.workers == 1

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            ExecutionConfig(engine="columnar")

    def test_batch_size_validated(self):
        # Every node runs over its child's whole row list: there is no
        # batch size to set.
        with pytest.raises(TypeError):
            ExecutionConfig(batch_size=256)

    def test_executor_batch_size_validated(self, db):
        with pytest.raises(TypeError):
            BatchExecutor(db.catalog, batch_size=256)


class TestConfigureExecution:
    def test_no_args_restores_tuple(self, db):
        db.configure_execution(engine="batch")
        executor = db.configure_execution()
        assert executor.engine_name == "tuple"
        assert db.execution_config.engine == "tuple"

    def test_config_and_kwargs_conflict(self, db):
        with pytest.raises(ValueError):
            db.configure_execution(ExecutionConfig(), engine="batch")

    def test_config_object_applies(self, db):
        executor = db.configure_execution(
            ExecutionConfig(engine="batch")
        )
        assert executor.engine_name == "batch"
        assert type(executor) is BatchExecutor


def _scan_rows(database):
    result = database.executor.execute(ScanNode("T"))
    return result.descriptor, result.rows()


class TestDerefCache:
    def test_hit_skips_physical_work_and_tallies(self, db):
        descriptor, rows = _scan_rows(db)
        extract = row_extractor(descriptor, "V")
        with counters_scope() as counters:
            first = [extract(row) for row in rows]
            second = [extract(row) for row in rows]
            extract.flush()
        assert first == second
        snap = counters.snapshot()
        # One logical traversal per call either way...
        assert snap.traversals == 2 * len(rows)
        # ...but the second pass was served from the memo.
        assert snap.extra[DEREF_SAVED_COUNTER] == len(rows)

    def test_flush_is_idempotent(self, db):
        descriptor, rows = _scan_rows(db)
        extract = row_extractor(descriptor, "V")
        with counters_scope() as counters:
            extract(rows[0])
            extract(rows[0])
            extract.flush()
            extract.flush()
        assert counters.snapshot().extra[DEREF_SAVED_COUNTER] == 1


class TestCompiledPredicates:
    def test_scan_mask_counts_no_traversals(self, db):
        relation, refs = _refs(db)
        mask = compile_predicate(gt("V", 2), ScanFieldAccess(relation))
        with counters_scope() as counters:
            flags = mask(refs)
        assert flags == [v % 5 > 2 for v in range(20)]
        snap = counters.snapshot()
        assert snap.comparisons == len(refs)
        assert snap.traversals == 0

    def test_between_counts_two_comparisons(self, db):
        relation, refs = _refs(db)
        mask = compile_predicate(
            between("V", 1, 3), ScanFieldAccess(relation)
        )
        with counters_scope() as counters:
            flags = mask(refs)
        assert flags == [1 <= v % 5 <= 3 for v in range(20)]
        assert counters.snapshot().comparisons == 2 * len(refs)

    def test_conjunction_short_circuits(self, db):
        relation, refs = _refs(db)
        predicate = gt("V", 1) & lt("V", 4)
        mask = compile_predicate(predicate, ScanFieldAccess(relation))
        with counters_scope() as counters:
            flags = mask(refs)
        assert flags == [1 < v % 5 < 4 for v in range(20)]
        survivors = sum(1 for v in range(20) if v % 5 > 1)
        # Second conjunct is charged only for first-part survivors.
        assert counters.snapshot().comparisons == len(refs) + survivors

    def test_filter_mask_counts_traversals(self, db):
        relation, refs = _refs(db)
        from repro.query.executor import filter_column_resolver

        result = db.executor.execute(ScanNode("T"))
        access = RowFieldAccess(
            result.descriptor, filter_column_resolver(result.descriptor)
        )
        mask = compile_predicate(gt("V", 2), access)
        rows = result.rows()
        with counters_scope() as counters:
            mask(rows)
        snap = counters.snapshot()
        assert snap.comparisons == len(rows)
        assert snap.traversals == len(rows)


class TestKernels:
    def test_partition_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            PartitionedHashTable(3)

    def test_fit_partitions(self):
        assert _fit_partitions(0, 8) == 1
        assert _fit_partitions(1, 8) == 1
        assert _fit_partitions(5, 8) == 4
        assert _fit_partitions(500, 8) == 8

    def test_probe_emits_lifo_matches(self):
        rows = [("a", 1), ("b", 1), ("c", 2)]
        table = build_hash_table(rows, [row[1] for row in rows])
        out = probe_hash_table(table, [("x", 1)], [1])
        assert out == [("x", 1, "b", 1), ("x", 1, "a", 1)]

    def test_dedup_keeps_first_occurrence(self):
        rows = [("a", 1), ("b", 2), ("c", 1), ("d", 3), ("e", 2)]
        out = dedup_hash_rows(rows, [row[1] for row in rows])
        assert out == [("a", 1), ("b", 2), ("d", 3)]


class TestObservabilityIntegration:
    def test_explain_analyze_under_batch_engine(self, db):
        db.configure_execution(engine="batch")
        rendered = db.sql("EXPLAIN ANALYZE SELECT * FROM T WHERE V > 2")
        text = str(rendered)
        assert "Scan" in text
