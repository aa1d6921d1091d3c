"""Deterministic fault injection (DESIGN.md section 3.10).

The subsystem has three parts:

* :mod:`~repro.fault.injector` — :class:`FaultInjector`, the seeded
  decision engine over the named fault points of :data:`FAULT_POINTS`,
  with per-point :class:`FaultPolicy` entries (probability, every-Nth,
  one-shot, bounded fires, latency);
* :mod:`~repro.fault.config` — :class:`FaultConfig`, the seed plus
  the policy set;
* :mod:`~repro.fault.runtime` — the process-wide active-injector slot
  the engine's hooks consult.  When no injector is active every hook is
  a single global load returning None (the same zero-overhead contract
  as the observability hooks).

Activate via ``db.configure_faults(seed=..., policies=[...])`` (or a
:class:`FaultConfig`); faults then surface as typed
errors (:class:`~repro.errors.InjectedFaultError`,
:class:`~repro.errors.CorruptImageError`,
:class:`~repro.errors.TornWriteError`) or as degraded-path behaviour
(morsel retries, pool reforks, quarantined partitions) that the
self-healing machinery must absorb.
"""

from repro.fault.config import FaultConfig
from repro.fault.injector import (
    FAULT_POINTS,
    FaultEvent,
    FaultInjector,
    FaultPolicy,
)

__all__ = [
    "FAULT_POINTS",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultPolicy",
]
