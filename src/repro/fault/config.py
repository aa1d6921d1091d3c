"""Fault-injection configuration.

``db.configure_faults`` accepts a :class:`FaultConfig`, or its two
fields as keywords (``seed=``, ``policies=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.fault.injector import FaultPolicy


@dataclass(frozen=True)
class FaultConfig:
    """Seed plus the policy set; an empty policy set means "disabled"."""

    seed: int = 0
    policies: Tuple[FaultPolicy, ...] = field(default_factory=tuple)

    @property
    def enabled(self) -> bool:
        return bool(self.policies)
