"""Validation tests for ``db.configure_execution`` and ExecutionConfig.

Bad settings must raise :class:`repro.errors.ConfigError` *before* any
plan runs, and the error type must remain catchable both as the
library's :class:`repro.errors.ReproError` root and as the plain
``ValueError`` older callers expect.
"""

from dataclasses import fields

import pytest

from repro import Field, FieldType, MainMemoryDatabase
from repro.errors import ConfigError, ReproError
from repro.query.executor import Executor
from repro.query.vectorized import POOL_MODES, ExecutionConfig


@pytest.fixture()
def db():
    database = MainMemoryDatabase()
    database.create_relation(
        "R", [Field("Id", FieldType.INT)], primary_key="Id"
    )
    database.insert("R", [1])
    return database


class TestErrorHierarchy:
    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestInvalidSettings:
    def test_unknown_engine(self, db):
        with pytest.raises(ConfigError, match="unknown execution engine"):
            db.configure_execution(engine="columnar")

    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, "16", True])
    def test_bad_batch_size(self, db, bad):
        # batch_size is retired (each batch operator takes its child's
        # whole row list): no value of it is accepted any more.
        with pytest.raises(TypeError, match="batch_size"):
            db.configure_execution(engine="batch", batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -1, -8, 1.5, "4", False])
    def test_bad_workers(self, db, bad):
        with pytest.raises(ConfigError, match="workers"):
            db.configure_execution(engine="batch", workers=bad)

    @pytest.mark.parametrize("bad", [0, -1, "big", True])
    def test_bad_morsel_size(self, db, bad):
        with pytest.raises(ConfigError, match="morsel_size"):
            db.configure_execution(engine="batch", morsel_size=bad)

    def test_unknown_pool_mode(self, db):
        with pytest.raises(ConfigError, match="pool mode"):
            db.configure_execution(engine="batch", workers=2, pool="thread")

    def test_auto_pool_mode_is_retired(self, db):
        with pytest.raises(ConfigError, match=r"\('process', 'inline'\)"):
            db.configure_execution(engine="batch", workers=2, pool="auto")

    def test_transport_keywords_are_retired(self, db):
        # The shm morsel transport and the two-phase parallel index
        # build are gone; their settings are no longer accepted.
        with pytest.raises(TypeError):
            db.configure_execution(engine="batch", transport="shm")
        with pytest.raises(TypeError):
            ExecutionConfig(engine="batch", shm_threshold_rows=128)
        with pytest.raises(TypeError):
            db.catalog.relation("R").create_index("ix", "Id", parallel=True)

    def test_workers_require_batch_engine(self, db):
        with pytest.raises(ConfigError, match="engine='batch'"):
            db.configure_execution(engine="tuple", workers=2)

    def test_config_object_and_keywords_conflict(self, db):
        with pytest.raises(ConfigError, match="not both"):
            db.configure_execution(
                ExecutionConfig(engine="batch"), workers=2
            )

    def test_invalid_config_leaves_executor_untouched(self, db):
        db.configure_execution(engine="batch")
        before = db.executor
        with pytest.raises(ConfigError):
            db.configure_execution(engine="nope")
        assert db.executor is before
        assert db.sql("SELECT Id FROM R").to_dicts() == [{"Id": 1}]


class TestValidSettings:
    def test_default_restores_tuple_engine(self, db):
        db.configure_execution(engine="batch")
        db.configure_execution()
        assert type(db.executor) is Executor
        assert db.execution_config.engine == "tuple"

    def test_workers_alone_implies_batch(self, db):
        db.configure_execution(workers=2, pool="inline")
        assert db.execution_config.engine == "batch"
        assert db.execution_config.workers == 2
        db.configure_execution()

    def test_config_object_round_trips(self, db):
        config = ExecutionConfig(
            engine="batch", workers=2, pool="inline"
        )
        db.configure_execution(config)
        assert db.execution_config is config
        db.configure_execution()

    def test_defaults(self):
        config = ExecutionConfig()
        assert config.engine == "tuple"
        assert config.workers == 1
        assert config.pool == "process"
        assert POOL_MODES == ("process", "inline")
        assert len(fields(ExecutionConfig)) == 5


class TestEnvironmentDefaults:
    def test_env_engine_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ENGINE", "batch")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        monkeypatch.setenv("REPRO_EXEC_POOL", "inline")
        database = MainMemoryDatabase()
        try:
            assert database.execution_config.engine == "batch"
            assert database.execution_config.workers == 2
            assert database.execution_config.pool == "inline"
        finally:
            database.configure_execution()

    def test_no_env_keeps_tuple_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_ENGINE", raising=False)
        database = MainMemoryDatabase()
        assert type(database.executor) is Executor
