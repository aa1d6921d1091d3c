"""Fault-injection configuration and the fault spec syntax.

``db.configure_faults`` accepts a :class:`FaultConfig`, or the same
information as a compact one-line spec (``configure_faults(spec=...)``)
so chaos scripts can switch faults on with a single string::

    seed=42;pool.worker:action=error,prob=0.2,max=3;disk.read:action=corrupt,every=5

Grammar: ``;``-separated clauses.  A ``seed=N`` clause seeds the RNG;
a ``backoff:<key>=<value>,...`` clause builds the shared retry
:class:`~repro.fault.backoff.BackoffPolicy` (keys: ``base``,
``factor``, ``max_delay``/``max``, ``jitter``, ``seed`` — the backoff
seed defaults to the injector seed); every other clause is
``<point>:<key>=<value>,...`` building one
:class:`~repro.fault.injector.FaultPolicy`.  Recognised policy keys:
``action``, ``prob``/``probability``, ``every``/``every_nth``,
``once`` (``1``/``0``), ``max``/``max_fires``, ``latency``.  Malformed
specs raise :class:`~repro.errors.ConfigError` at configuration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.fault.backoff import BackoffPolicy
from repro.fault.injector import FaultPolicy

#: Spec keys -> FaultPolicy field names.
_KEY_ALIASES = {
    "action": "action",
    "prob": "probability",
    "probability": "probability",
    "every": "every_nth",
    "every_nth": "every_nth",
    "once": "one_shot",
    "one_shot": "one_shot",
    "max": "max_fires",
    "max_fires": "max_fires",
    "latency": "latency",
}

_INT_FIELDS = {"every_nth", "max_fires"}
_FLOAT_FIELDS = {"probability", "latency"}
_BOOL_FIELDS = {"one_shot"}

#: Backoff-clause keys -> BackoffPolicy field names.
_BACKOFF_ALIASES = {
    "base": "base",
    "factor": "factor",
    "max": "max_delay",
    "max_delay": "max_delay",
    "jitter": "jitter",
    "seed": "seed",
}


@dataclass(frozen=True)
class FaultConfig:
    """Seed plus the policy set; an empty policy set means "disabled".

    ``backoff`` optionally carries the retry schedule restart's
    transient-read retry sleeps between attempts; ``None`` keeps the
    immediate-retry default.
    """

    seed: int = 0
    policies: Tuple[FaultPolicy, ...] = field(default_factory=tuple)
    backoff: Optional[BackoffPolicy] = None

    @property
    def enabled(self) -> bool:
        return bool(self.policies)


def _parse_value(name: str, raw: str):
    try:
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
        if name in _BOOL_FIELDS:
            return raw not in ("0", "false", "no", "")
    except ValueError:
        raise ConfigError(
            f"bad value {raw!r} for fault spec key {name!r}"
        ) from None
    return raw


def _parse_backoff_clause(body: str, injector_seed: int) -> BackoffPolicy:
    """Parse the ``backoff:key=value,...`` clause of a fault spec."""
    fields = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, __, raw = item.partition("=")
        key = key.strip()
        if key not in _BACKOFF_ALIASES:
            raise ConfigError(
                f"unknown backoff spec key {key!r}; recognised: "
                f"{sorted(set(_BACKOFF_ALIASES))}"
            )
        name = _BACKOFF_ALIASES[key]
        try:
            fields[name] = int(raw) if name == "seed" else float(raw)
        except ValueError:
            raise ConfigError(
                f"bad value {raw!r} for backoff spec key {key!r}"
            ) from None
    fields.setdefault("seed", injector_seed)
    return BackoffPolicy(**fields)


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse a fault spec string into a :class:`FaultConfig`."""
    seed = 0
    policies = []
    backoff_body: Optional[str] = None
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ConfigError(
                    f"bad seed in fault spec: {clause!r}"
                ) from None
            continue
        if clause == "backoff" or clause.startswith("backoff:"):
            # Deferred: the backoff seed defaults to the injector seed,
            # which a later clause may still set.
            backoff_body = clause.partition(":")[2]
            continue
        point, sep, body = clause.partition(":")
        point = point.strip()
        if not point:
            raise ConfigError(f"fault spec clause names no point: {clause!r}")
        fields = {}
        if sep:
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                key, eq, raw = item.partition("=")
                key = key.strip()
                if key not in _KEY_ALIASES:
                    raise ConfigError(
                        f"unknown fault spec key {key!r} in {clause!r}; "
                        f"recognised: {sorted(set(_KEY_ALIASES))}"
                    )
                name = _KEY_ALIASES[key]
                fields[name] = (
                    _parse_value(name, raw.strip()) if eq else True
                )
        policies.append(FaultPolicy(point=point, **fields))
    backoff = (
        _parse_backoff_clause(backoff_body, seed)
        if backoff_body is not None
        else None
    )
    return FaultConfig(seed=seed, policies=tuple(policies), backoff=backoff)
