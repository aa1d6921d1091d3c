"""The deterministic fault injector: named points, seeded policies.

A :class:`FaultInjector` owns a set of :class:`FaultPolicy` entries
keyed by *fault point* — a dotted name for one failure site in the
engine (see :data:`FAULT_POINTS` for the catalog).  Instrumented sites
call :func:`repro.fault.runtime.fire` with their point name; when a
policy triggers, the site either receives an action string to act on
(``"corrupt"``, ``"torn"``, ``"kill"``) or an
:class:`~repro.errors.InjectedFaultError` is raised on its behalf
(``"error"``).

Determinism: the injector draws from one ``random.Random(seed)``.
Because the engine itself is deterministic, a fixed seed plus a fixed
workload produces the exact same sequence of ``fire`` calls — and
therefore the exact same faults — on every run.  :meth:`reset` rewinds
the RNG and the hit counters so the same injector can replay a run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, InjectedFaultError
from repro.obs import runtime as obs_runtime

#: The fault-point catalog: every injectable site and the actions its
#: hook understands.  ``error`` (raise :class:`InjectedFaultError`) and
#: ``latency`` (sleep, then proceed) are handled by the injector itself;
#: the remaining actions are interpreted by the hook site.
FAULT_POINTS: Dict[str, Tuple[str, ...]] = {
    # SimulatedDisk.read_partition: error | corrupt (flip a byte in the
    # *returned* copy — a transient read fault, the stored image stays
    # good) | latency.
    "disk.read": ("error", "corrupt", "latency"),
    # SimulatedDisk.write_partition: error | torn (persist only a prefix
    # of the frame — discovered later as TornWriteError) | corrupt
    # (persist with a flipped payload byte — discovered later as
    # CorruptImageError) | latency.
    "disk.write": ("error", "torn", "corrupt", "latency"),
    # StableLogBuffer.append: error | corrupt (record sealed with a bad
    # checksum, surfacing as CorruptLogRecordError at replay).
    "log.append": ("error", "corrupt"),
    # LogDevice.propagate, per partition batch: error | latency —
    # crashing between absorb and propagation.
    "log.flush": ("error", "latency"),
    # One morsel dispatch: error (the task fails with InjectedFaultError)
    # | kill (process pools: the worker process exits hard; inline: the
    # task dies with InjectedFaultError) | latency.
    "pool.worker": ("error", "kill", "latency"),
    # One whole scheduler.run() process dispatch: error (the pool is
    # treated as broken and the run falls back inline).
    "pool.dispatch": ("error",),
    # RecoveryManager.checkpoint_all, per partition: error — a crash
    # window with some partitions checkpointed and some not.
    "checkpoint.partition": ("error", "latency"),
    # LogShipper, per shipped batch (promotion's suffix replay included):
    # error (the hop fails; the batch stays in the outbox and retries
    # at once) | corrupt (flip a byte in the framed batch — the
    # replica's unframe rejects it whole, proving the checksummed wire)
    # | latency.
    "repl.ship": ("error", "corrupt", "latency"),
    # ReplicaApplier.apply_batch, per batch: error (the apply fails
    # before the watermark advances; the re-shipped batch deduplicates
    # by LSN so records land exactly once) | latency.
    "repl.apply": ("error", "latency"),
}


@dataclass
class FaultPolicy:
    """When and how one fault point misbehaves.

    Triggering combines the selectors: the policy is *eligible* on a hit
    when its ``every_nth``/``one_shot``/``max_fires`` budget allows, and
    then fires with ``probability`` (an RNG draw is only made for
    probabilities below 1.0, keeping full-probability policies
    replayable without consuming randomness).
    """

    point: str
    action: str = "error"
    probability: float = 1.0
    #: Fire on every Nth hit of the point (1st, N+1th, ... when N > 0).
    every_nth: int = 0
    one_shot: bool = False
    max_fires: Optional[int] = None
    #: Sleep duration for ``action="latency"``.
    latency: float = 0.0
    #: Optional context filter: the policy only applies when every
    #: (key, value) pair matches the ``fire(**context)`` kwargs.
    match: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ConfigError(
                f"unknown fault point {self.point!r}; "
                f"catalog: {sorted(FAULT_POINTS)}"
            )
        if self.action not in FAULT_POINTS[self.point]:
            raise ConfigError(
                f"fault point {self.point!r} does not support action "
                f"{self.action!r}; supported: {FAULT_POINTS[self.point]}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be within [0, 1], got {self.probability!r}"
            )
        if self.every_nth < 0:
            raise ConfigError(
                f"every_nth must be >= 0, got {self.every_nth!r}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(
                f"max_fires must be >= 1, got {self.max_fires!r}"
            )
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One triggered fault, for replay assertions and reports."""

    point: str
    action: str
    #: 1-based hit index of the point at which the fault fired.
    hit: int
    context: Dict[str, Any] = field(default_factory=dict)


class _PolicyState:
    """A policy plus its mutable firing bookkeeping."""

    __slots__ = ("policy", "hits", "fires")

    def __init__(self, policy: FaultPolicy) -> None:
        self.policy = policy
        self.hits = 0
        self.fires = 0

    def expired(self) -> bool:
        policy = self.policy
        if policy.one_shot and self.fires >= 1:
            return True
        return policy.max_fires is not None and self.fires >= policy.max_fires


class FaultInjector:
    """Seeded, replayable fault decisions for every registered point."""

    def __init__(
        self, seed: int = 0, policies: Sequence[FaultPolicy] = ()
    ) -> None:
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self._states: Dict[str, List[_PolicyState]] = {}
        #: Total hits per point, fired or not (1-based in events).
        self.hits: Dict[str, int] = {}
        #: Total fires per point.
        self.fires: Dict[str, int] = {}
        self.events: List[FaultEvent] = []
        for policy in policies:
            self.add(policy)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #

    def add(self, policy: FaultPolicy) -> FaultPolicy:
        """Register one policy; earlier policies win on shared points."""
        self._states.setdefault(policy.point, []).append(_PolicyState(policy))
        return policy

    def reset(self) -> None:
        """Rewind for exact replay: reseed the RNG, zero all counters."""
        self.rng = random.Random(self.seed)
        self.hits.clear()
        self.fires.clear()
        self.events.clear()
        for states in self._states.values():
            for state in states:
                state.hits = 0
                state.fires = 0

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #

    def fire(self, point: str, **context: Any) -> Optional[str]:
        """One hit of ``point``; returns the triggered action or None.

        ``error`` actions raise :class:`InjectedFaultError` here;
        ``latency`` sleeps here and returns ``"latency"``; any other
        triggered action is returned for the hook site to interpret.
        """
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        for state in self._states.get(point, ()):
            if state.expired():
                continue
            policy = state.policy
            if policy.match is not None and any(
                context.get(key) != value
                for key, value in policy.match.items()
            ):
                continue
            state.hits += 1
            if policy.every_nth and (state.hits - 1) % policy.every_nth:
                continue
            if policy.probability < 1.0 and (
                self.rng.random() >= policy.probability
            ):
                continue
            state.fires += 1
            self.fires[point] = self.fires.get(point, 0) + 1
            self._record(point, policy.action, hit, context)
            if policy.action == "latency":
                if policy.latency:
                    time.sleep(policy.latency)
                return "latency"
            if policy.action == "error":
                raise InjectedFaultError(point, "error")
            return policy.action
        return None

    def _record(
        self, point: str, action: str, hit: int, context: Dict[str, Any]
    ) -> None:
        self.events.append(FaultEvent(point, action, hit, dict(context)))
        obs = obs_runtime.active()
        if obs is not None:
            obs.metric_inc(
                "fault_injections_total", point=point, action=action
            )
            tracer = obs.tracer
            if tracer is not None:
                span = tracer.current()
                if span is not None:
                    span.attrs.setdefault("fault_events", []).append(
                        {"point": point, "action": action, "hit": hit}
                    )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def report(self) -> Dict[str, Any]:
        """Hits, fires, and the event list — the chaos run's receipt."""
        return {
            "seed": self.seed,
            "hits": dict(self.hits),
            "fires": dict(self.fires),
            "events": [
                {"point": e.point, "action": e.action, "hit": e.hit}
                for e in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = sorted(self._states)
        return f"FaultInjector(seed={self.seed}, points={points})"
