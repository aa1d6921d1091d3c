"""The shared retry schedule: deterministic exponential backoff.

Restart's transient-read retry loop draws its waits from one
:class:`BackoffPolicy` (morsel re-dispatch and replication hops retry
immediately).  The schedule is a pure function
of ``(policy, attempt)`` — jitter comes from a CRC over the policy seed
and attempt number, never a shared RNG stream — so chaos replays sleep
the exact same schedule regardless of how retries interleave, and the
default ``base=0.0`` policy never sleeps at all.
"""

import pytest

from repro.errors import ConfigError
from repro.fault import NO_BACKOFF, BackoffPolicy, parse_fault_spec
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.query.vectorized import ExecutionConfig
from tests.conftest import build_figure1_db


@pytest.fixture(autouse=True)
def clean_runtime():
    yield
    fault_runtime.deactivate()
    obs_runtime.deactivate()


class TestSchedule:
    def test_exponential_growth_clamped_at_max(self):
        policy = BackoffPolicy(base=0.001, factor=2.0, max_delay=0.004)
        assert policy.delays(5) == [0.001, 0.002, 0.004, 0.004, 0.004]

    def test_default_policy_never_sleeps(self):
        assert NO_BACKOFF.delay(0) == 0.0
        assert NO_BACKOFF.delay(50) == 0.0
        assert NO_BACKOFF.sleep(3) == 0.0

    def test_schedule_is_deterministic_across_instances(self):
        first = BackoffPolicy(
            base=0.001, factor=3.0, max_delay=0.1, jitter=0.5, seed=77
        )
        second = BackoffPolicy(
            base=0.001, factor=3.0, max_delay=0.1, jitter=0.5, seed=77
        )
        assert first.delays(8) == second.delays(8)

    def test_jitter_stays_within_the_configured_fraction(self):
        policy = BackoffPolicy(
            base=0.001, factor=2.0, max_delay=0.01, jitter=0.25, seed=5
        )
        plain = BackoffPolicy(base=0.001, factor=2.0, max_delay=0.01)
        for attempt in range(10):
            raw = plain.delay(attempt)
            jittered = policy.delay(attempt)
            assert raw * 0.75 <= jittered <= raw * 1.25

    def test_different_seeds_shift_the_jitter(self):
        kwargs = dict(base=0.001, factor=2.0, max_delay=1.0, jitter=0.5)
        a = BackoffPolicy(seed=1, **kwargs).delays(12)
        b = BackoffPolicy(seed=2, **kwargs).delays(12)
        assert a != b

    def test_sleep_returns_the_waited_delay(self):
        policy = BackoffPolicy(base=0.0005, factor=1.0)
        assert policy.sleep(0) == pytest.approx(0.0005)


class TestValidation:
    def test_negative_base_rejected(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base=-0.1)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base=0.001, factor=0.5)

    def test_jitter_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base=0.001, jitter=1.5)


class TestSpecParsing:
    def test_backoff_clause_builds_the_policy(self):
        config = parse_fault_spec(
            "seed=9;backoff:base=0.001,factor=3,max=0.5,jitter=0.25"
        )
        assert config.backoff == BackoffPolicy(
            base=0.001, factor=3.0, max_delay=0.5, jitter=0.25, seed=9
        )

    def test_backoff_seed_defaults_to_injector_seed(self):
        config = parse_fault_spec("seed=123;backoff:base=0.01")
        assert config.backoff.seed == 123

    def test_explicit_backoff_seed_wins(self):
        config = parse_fault_spec("seed=123;backoff:base=0.01,seed=7")
        assert config.backoff.seed == 7

    def test_unknown_backoff_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("backoff:warp=9")


class TestWiring:
    def test_configure_faults_feeds_recovery_backoff(self):
        db = build_figure1_db(durable=True)
        policy = BackoffPolicy(base=0.0001, factor=2.0, max_delay=0.001)
        db.configure_faults(seed=1, backoff=policy)
        assert db.recovery.backoff == policy
        # Resetting faults restores the no-sleep default.
        db.configure_faults()
        assert db.recovery.backoff == NO_BACKOFF

    def test_execution_config_accepts_a_retry_backoff(self):
        # Morsel retries re-dispatch immediately; the pacing keyword is
        # retired from both the facade and ExecutionConfig.
        db = build_figure1_db(durable=False)
        before = db.execution_config
        policy = BackoffPolicy(base=0.0001)
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
