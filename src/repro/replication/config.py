"""Replication configuration (DESIGN.md section 3.14).

``db.configure_replication`` accepts a :class:`ReplicationConfig` (or
its fields as keywords) and establishes a warm replica fed by shipping
the change-accumulation log.  The ``REPRO_REPLICATION`` environment
variable selects a channel mode for every durable database in the
process (the CI failover lane runs the whole suite replicated this
way); explicit ``configure_replication`` calls still override.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Where the replica applier runs.  ``inline`` models the replica
#: in-process (the same way :class:`~repro.recovery.disk.SimulatedDisk`
#: models a disk) — deterministic, fork-free, the default; ``process``
#: runs it in a forked worker process connected by a pipe.
CHANNEL_MODES = ("inline", "process")

#: How batch bytes reach the replica.  ``pickle`` sends them through
#: the channel directly; ``shm`` moves any batch at least
#: ``repro.query.parallel.shm.MIN_BLOB_BYTES`` long through a named
#: shared-memory segment (the PR 8 blob path) and ships only the
#: descriptor.
SHIP_TRANSPORTS = ("pickle", "shm")

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

    channel: str = "inline"
    transport: str = "pickle"
    max_lag_records: int = DEFAULT_MAX_LAG_RECORDS
    batch_records: int = DEFAULT_BATCH_RECORDS
    retry_attempts: int = DEFAULT_SHIP_ATTEMPTS

    def __post_init__(self) -> None:
        if self.channel not in CHANNEL_MODES:
            raise ConfigError(
                f"unknown replication channel {self.channel!r}; "
                f"choose one of {CHANNEL_MODES}"
            )
        if self.transport not in SHIP_TRANSPORTS:
            raise ConfigError(
                f"unknown replication transport {self.transport!r}; "
                f"choose one of {SHIP_TRANSPORTS}"
            )
        if not isinstance(self.max_lag_records, int) or isinstance(
            self.max_lag_records, bool
        ) or self.max_lag_records < 1:
            raise ConfigError(
                f"max_lag_records must be a positive integer, "
                f"got {self.max_lag_records!r}"
            )
        if not isinstance(self.batch_records, int) or isinstance(
            self.batch_records, bool
        ) or self.batch_records < 1:
            raise ConfigError(
                f"batch_records must be a positive integer, "
                f"got {self.batch_records!r}"
            )
        if not isinstance(self.retry_attempts, int) or isinstance(
            self.retry_attempts, bool
        ) or self.retry_attempts < 1:
            raise ConfigError(
                f"retry_attempts must be a positive integer, "
                f"got {self.retry_attempts!r}"
            )
