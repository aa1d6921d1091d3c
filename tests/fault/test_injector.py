"""The fault injector core: policies, seeded replay, configuration."""

import pytest

from repro import MainMemoryDatabase
from repro.errors import ConfigError, InjectedFaultError
from repro.fault import FAULT_POINTS, FaultInjector, FaultPolicy
from repro.fault import runtime as fault_runtime


class TestPolicyValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy("disk.format")

    def test_unsupported_action_rejected(self):
        # log.append supports error/corrupt, never torn.
        with pytest.raises(ConfigError):
            FaultPolicy("log.append", action="torn")

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            FaultPolicy("disk.read", probability=1.5)
        with pytest.raises(ConfigError):
            FaultPolicy("disk.read", probability=-0.1)

    def test_negative_every_nth_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy("disk.read", every_nth=-1)

    def test_bad_max_fires_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy("disk.read", max_fires=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy("disk.read", action="latency", latency=-1.0)

    def test_every_point_declares_actions(self):
        for point, actions in FAULT_POINTS.items():
            assert actions, point
            for action in actions:
                FaultPolicy(point, action=action)  # must all validate


class TestFiring:
    def test_error_action_raises_typed(self):
        injector = FaultInjector(policies=[FaultPolicy("disk.read")])
        with pytest.raises(InjectedFaultError) as err:
            injector.fire("disk.read")
        assert err.value.point == "disk.read"
        assert err.value.action == "error"

    def test_site_actions_are_returned(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.write", action="torn")]
        )
        assert injector.fire("disk.write") == "torn"

    def test_latency_returns_marker(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.read", action="latency", latency=0.0)]
        )
        assert injector.fire("disk.read") == "latency"

    def test_one_shot_fires_once(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  one_shot=True)]
        )
        assert injector.fire("disk.write") == "corrupt"
        assert injector.fire("disk.write") is None
        assert injector.fires["disk.write"] == 1

    def test_every_nth_pattern(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  every_nth=3)]
        )
        fired = [
            injector.fire("disk.write") == "corrupt" for _ in range(7)
        ]
        assert fired == [True, False, False, True, False, False, True]

    def test_max_fires_budget(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  max_fires=2)]
        )
        actions = [injector.fire("disk.write") for _ in range(4)]
        assert actions == ["corrupt", "corrupt", None, None]

    def test_match_filter(self):
        injector = FaultInjector(
            policies=[
                FaultPolicy(
                    "disk.read",
                    action="corrupt",
                    match={"relation": "Employee"},
                )
            ]
        )
        assert injector.fire("disk.read", relation="Department") is None
        assert injector.fire("disk.read", relation="Employee") == "corrupt"

    def test_hits_counted_without_policies(self):
        injector = FaultInjector()
        assert injector.fire("disk.read") is None
        assert injector.fire("disk.read") is None
        assert injector.hits["disk.read"] == 2
        assert injector.fires == {}

    def test_events_record_context(self):
        injector = FaultInjector(
            policies=[FaultPolicy("disk.write", action="corrupt")]
        )
        injector.fire("disk.write", relation="R", partition=3)
        (event,) = injector.events
        assert event.point == "disk.write"
        assert event.action == "corrupt"
        assert event.context == {"relation": "R", "partition": 3}

    def test_earlier_policy_wins_shared_point(self):
        injector = FaultInjector(
            policies=[
                FaultPolicy("disk.write", action="torn", one_shot=True),
                FaultPolicy("disk.write", action="corrupt"),
            ]
        )
        assert injector.fire("disk.write") == "torn"
        assert injector.fire("disk.write") == "corrupt"


class TestSeededReplay:
    def _sequence(self, injector, n=60):
        return [
            injector.fire("disk.write") == "corrupt" for _ in range(n)
        ]

    def test_reset_replays_exactly(self):
        injector = FaultInjector(
            seed=123,
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  probability=0.5)],
        )
        first = self._sequence(injector)
        assert any(first) and not all(first)  # genuinely probabilistic
        injector.reset()
        assert self._sequence(injector) == first
        assert injector.hits["disk.write"] == 60

    def test_same_seed_same_sequence(self):
        make = lambda: FaultInjector(
            seed=7,
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  probability=0.3)],
        )
        assert self._sequence(make()) == self._sequence(make())

    def test_different_seed_different_sequence(self):
        seq = {}
        for seed in (1, 2):
            injector = FaultInjector(
                seed=seed,
                policies=[FaultPolicy("disk.write", action="corrupt",
                                      probability=0.5)],
            )
            seq[seed] = tuple(self._sequence(injector, 100))
        assert seq[1] != seq[2]

    def test_full_probability_draws_no_randomness(self):
        # probability=1.0 policies must not consume RNG, so mixing them
        # in does not perturb the seeded sequence of the others.
        plain = FaultInjector(
            seed=5,
            policies=[FaultPolicy("disk.write", action="corrupt",
                                  probability=0.5)],
        )
        mixed = FaultInjector(
            seed=5,
            policies=[
                FaultPolicy("disk.read", action="corrupt"),
                FaultPolicy("disk.write", action="corrupt",
                            probability=0.5),
            ],
        )
        expected = self._sequence(plain)
        got = []
        for _ in range(60):
            mixed.fire("disk.read")  # deterministic, no draw
            got.append(mixed.fire("disk.write") == "corrupt")
        assert got == expected

    def test_report_shape(self):
        injector = FaultInjector(
            seed=9, policies=[FaultPolicy("disk.write", action="corrupt")]
        )
        injector.fire("disk.write")
        report = injector.report()
        assert report["seed"] == 9
        assert report["fires"] == {"disk.write": 1}
        assert report["events"][0]["point"] == "disk.write"


class TestRuntimeSlot:
    def test_inactive_by_default(self):
        assert fault_runtime.active() is None
        # The hook contract: with no injector, fire is a cheap no-op.
        assert fault_runtime.fire("disk.read", relation="R") is None

    def test_activate_deactivate(self):
        injector = FaultInjector()
        previous = fault_runtime.activate(injector)
        try:
            assert previous is None
            assert fault_runtime.active() is injector
        finally:
            fault_runtime.deactivate()
        assert fault_runtime.active() is None


class TestConfigureFaults:
    def test_returns_and_activates_injector(self):
        db = MainMemoryDatabase()
        injector = db.configure_faults(
            seed=3, policies=[FaultPolicy("disk.read", action="corrupt")]
        )
        assert injector is db.fault_injector
        assert fault_runtime.active() is injector
        assert injector.seed == 3

    def test_disable_restores_noop(self):
        db = MainMemoryDatabase()
        db.configure_faults(policies=[FaultPolicy("disk.read")])
        assert fault_runtime.active() is not None
        assert db.configure_faults() is None
        assert fault_runtime.active() is None
        assert db.fault_injector is None

    def test_spec_keyword(self):
        # The one-line spec syntax is retired: faults are configured
        # with FaultPolicy objects only.
        db = MainMemoryDatabase()
        with pytest.raises(TypeError):
            db.configure_faults(spec="seed=9;disk.read:action=corrupt")
        with pytest.raises(TypeError):
            db.configure_faults(seed=1, backoff=object())
        assert db.fault_injector is None
        assert fault_runtime.active() is None
        injector = db.configure_faults(
            seed=9, policies=[FaultPolicy("disk.read", action="corrupt")]
        )
        assert injector.seed == 9

    def test_config_and_kwargs_exclusive(self):
        # FaultConfig is retired: seed and policies are keyword-only,
        # so a positional config object is refused, alone or with them.
        db = MainMemoryDatabase()
        policies = [FaultPolicy("disk.read")]
        with pytest.raises(TypeError):
            db.configure_faults((1, policies))
        with pytest.raises(TypeError):
            db.configure_faults((1, policies), seed=1)
        with pytest.raises(TypeError):
            db.configure_faults(1, policies)
        assert db.fault_injector is None
        assert fault_runtime.active() is None

    def test_env_hook(self, monkeypatch):
        # The environment hook is retired: setting it installs nothing.
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=11;disk.read:action=corrupt,once=1"
        )
        db = MainMemoryDatabase()
        assert db.fault_injector is None
        assert fault_runtime.active() is None

    def test_disabling_leaves_other_dbs_injector(self):
        # A db that never installed the active injector must not tear
        # down another's when it disables its own (absent) faults.
        owner = MainMemoryDatabase()
        other = MainMemoryDatabase()
        injector = owner.configure_faults(
            policies=[FaultPolicy("disk.read", action="corrupt")]
        )
        other.configure_faults()
        assert fault_runtime.active() is injector
        owner.configure_faults()
        assert fault_runtime.active() is None
