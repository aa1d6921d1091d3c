"""Replication configuration (DESIGN.md section 3.14).

``db.configure_replication`` accepts a :class:`ReplicationConfig` (or
its fields as keywords) and establishes a warm replica fed by shipping
the change-accumulation log.  ``REPRO_REPLICATION=1`` attaches a
replica with the default config to every durable database in the
process (the CI replication lane runs the whole suite replicated this
way); explicit ``configure_replication`` calls still override.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Bounded apply lag: once this many records sit unacknowledged in the
#: shipper's outbox, the next enqueue triggers an automatic ship.
DEFAULT_MAX_LAG_RECORDS = 512

#: Records per shipped batch.
DEFAULT_BATCH_RECORDS = 256

#: Attempts per shipping hop before the hop is abandoned (best-effort
#: enqueue) or raised (explicit flush/promotion).
DEFAULT_SHIP_ATTEMPTS = 3


@dataclass(frozen=True)
class ReplicationConfig:
    """How the warm replica is fed.

    ``max_lag_records`` is the bounded apply-lag watermark; crossing it
    auto-ships.  ``retry_attempts`` bounds each shipping hop; attempts
    follow one another immediately.
    """

    max_lag_records: int = DEFAULT_MAX_LAG_RECORDS
    batch_records: int = DEFAULT_BATCH_RECORDS
    retry_attempts: int = DEFAULT_SHIP_ATTEMPTS

    def __post_init__(self) -> None:
        for name in ("max_lag_records", "batch_records", "retry_attempts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or (
                value < 1
            ):
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
