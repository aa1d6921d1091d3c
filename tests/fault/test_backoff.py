"""Retry sites retry at once: no backoff schedule exists.

Restart's transient-read retry, morsel re-dispatch and replication
hops all retry immediately, and no configuration surface accepts a
retry schedule.
"""

import time

import pytest

from repro.fault import FaultPolicy
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.query.vectorized import ExecutionConfig
from repro.recovery.restart import RecoveryManager
from tests.conftest import build_figure1_db


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


class TestSchedule:
    def test_default_policy_never_sleeps(self, monkeypatch):
        # A transient read fault heals on an immediate re-read.
        db = build_figure1_db(durable=True)
        db.checkpoint()
        db.crash()
        db.configure_faults(
            seed=1,
            policies=[
                FaultPolicy("disk.read", action="corrupt", one_shot=True)
            ],
        )

        def no_sleep(seconds):
            raise AssertionError(f"restart slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        stats = db.recover()
        assert stats.read_retries == 1
        assert stats.fully_recovered
        with pytest.raises(TypeError):
            RecoveryManager(db.catalog, backoff=object())


class TestWiring:
    def test_execution_config_accepts_a_retry_backoff(self):
        # Morsel retries re-dispatch immediately; the pacing keyword is
        # retired from both the facade and ExecutionConfig.
        db = build_figure1_db(durable=False)
        before = db.execution_config
        policy = object()
        with pytest.raises(TypeError):
            db.configure_execution(
                engine="batch", workers=2, pool="inline",
                retry_backoff=policy,
            )
        with pytest.raises(TypeError):
            ExecutionConfig(engine="batch", retry_backoff=policy)
        assert db.execution_config is before

    def test_execution_config_rejects_non_policy(self):
        db = build_figure1_db(durable=False)
        with pytest.raises(TypeError):
            db.configure_execution(engine="batch", retry_backoff="fast")
