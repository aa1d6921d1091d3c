"""Exponential backoff with seeded jitter for restart's read retries.

Restart's transient-read retry loop sleeps a :class:`BackoffPolicy`
schedule between attempts (the morsel scheduler and the replication
shipper retry immediately): exponential growth from ``base`` by
``factor``, clamped at ``max_delay``, with a deterministic jitter
fraction derived from the policy seed and the attempt number — *not*
from a shared RNG stream — so the delay sequence is a pure function of
``(seed, attempt)``.  Chaos replays under a fixed seed therefore sleep
the exact same schedule, and the fault injector's own RNG is never
consumed.

The default policy (``base=0.0``) never sleeps: retries stay as fast as
before, tests stay fast, and the zero-overhead contract holds — a
retry loop that never fails never even computes a delay.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError

#: Cap on the exponential schedule; a retry loop should heal or give up
#: long before a single wait reaches this.
DEFAULT_MAX_DELAY = 1.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic exponential backoff: ``base * factor**attempt``.

    ``attempt`` is 0-based (the wait *after* the first failure is
    ``delay(0)``).  ``jitter`` widens each delay by a deterministic
    fraction in ``[-jitter, +jitter]`` derived from ``(seed, attempt)``
    — no shared RNG stream, so concurrent retry sites cannot perturb
    each other's schedules and replays are exact.  ``base=0.0`` (the
    default) disables sleeping entirely while keeping the retry budget
    semantics of the call sites unchanged.
    """

    base: float = 0.0
    factor: float = 2.0
    max_delay: float = DEFAULT_MAX_DELAY
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, (int, float)) or isinstance(
            self.base, bool
        ) or self.base < 0:
            raise ConfigError(
                f"backoff base must be a non-negative number, "
                f"got {self.base!r}"
            )
        if not isinstance(self.factor, (int, float)) or isinstance(
            self.factor, bool
        ) or self.factor < 1.0:
            raise ConfigError(
                f"backoff factor must be >= 1, got {self.factor!r}"
            )
        if not isinstance(self.max_delay, (int, float)) or isinstance(
            self.max_delay, bool
        ) or self.max_delay < 0:
            raise ConfigError(
                f"backoff max_delay must be non-negative, "
                f"got {self.max_delay!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"backoff jitter must be within [0, 1], got {self.jitter!r}"
            )

    def _jitter_fraction(self, attempt: int) -> float:
        """A deterministic value in [-jitter, +jitter] for one attempt.

        CRC32 over the (seed, attempt) pair is stable across processes
        and Python versions (unlike ``hash``) and costs nothing
        measurable next to a sleep.
        """
        if not self.jitter:
            return 0.0
        digest = zlib.crc32(b"%d:%d" % (self.seed, attempt))
        unit = (digest % 10_000) / 10_000.0  # [0, 1)
        return (2.0 * unit - 1.0) * self.jitter

    def delay(self, attempt: int) -> float:
        """The wait (seconds) after failure number ``attempt`` (0-based)."""
        if self.base <= 0.0:
            return 0.0
        raw = self.base * (self.factor ** max(0, int(attempt)))
        raw = min(raw, self.max_delay)
        return max(0.0, raw * (1.0 + self._jitter_fraction(attempt)))

    def delays(self, attempts: int) -> List[float]:
        """The full schedule for ``attempts`` failures — test/debug aid."""
        return [self.delay(i) for i in range(max(0, attempts))]

    def sleep(self, attempt: int) -> float:
        """Sleep the computed delay; returns it (0.0 slept nothing)."""
        wait = self.delay(attempt)
        if wait > 0.0:
            time.sleep(wait)
        return wait


#: The do-nothing schedule call sites fall back to when unconfigured.
NO_BACKOFF = BackoffPolicy()
