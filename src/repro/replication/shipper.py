"""The log shipper: tails the accumulation log, ships checksummed batches.

A :class:`LogShipper` is registered as a sink on the primary's
:class:`~repro.recovery.log_device.LogDevice` — every record
``absorb()`` moves into the change-accumulation log is also enqueued
here.  The outbox drains in LSN order as CRC32-framed batches into
the :class:`~repro.replication.replica.ReplicaApplier`, with
acknowledged epochs/sequence numbers and
a bounded apply-lag watermark: once the outbox exceeds
:data:`MAX_LAG_RECORDS` the next enqueue auto-ships (best effort — a
replica outage must never stall the primary's commit path).

Every shipping hop is fault-aware: the ``repl.ship`` and ``repl.apply``
points both fire *here*, before the replica applies — the shipper is the
one place a hop's seeded fault decisions are drawn, so chaos runs replay
exactly.
Failed hops retry immediately, up to :data:`SHIP_ATTEMPTS` times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import (
    CorruptBatchError,
    InjectedFaultError,
    ReplicationError,
)
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.replication.batch import ShippedBatch, corrupt_bytes, encode_batch
from repro.replication.replica import ReplicaApplier

#: Bounded apply lag: once this many records sit unacknowledged in the
#: shipper's outbox, the next enqueue triggers an automatic ship.
MAX_LAG_RECORDS = 512

#: Records per shipped batch.
BATCH_RECORDS = 256

#: Attempts per shipping hop before the hop is abandoned (best-effort
#: enqueue) or raised (explicit flush/promotion).  The coordinator's
#: bootstrap image reads take the same budget.
SHIP_ATTEMPTS = 3


class LogShipper:
    """Ships accumulated log records to the replica, in order, with acks."""

    def __init__(
        self,
        replica: ReplicaApplier,
        epoch: int = 1,
    ) -> None:
        self.replica = replica
        self.epoch = int(epoch)
        #: Unacknowledged records, LSN order (the apply lag).
        self.outbox: List[Any] = []
        #: Highest LSN the replica has acknowledged applying.
        self.acked_lsn = 0
        self.seq = 0
        self.batches_shipped = 0
        self.records_shipped = 0
        self.ship_retries = 0
        self.ship_errors = 0
        self.rejected_batches = 0

    # ------------------------------------------------------------------ #
    # the sink side
    # ------------------------------------------------------------------ #

    @property
    def lag_records(self) -> int:
        """How many records sit shipped-but-unacknowledged or unshipped."""
        return len(self.outbox)

    def enqueue(self, records) -> None:
        """Accept newly absorbed records; auto-ship past the lag bound.

        This runs on the primary's commit path (via the LogDevice sink),
        so the auto-ship is strictly best effort: a failing replica
        leaves the records queued and the primary unharmed.
        """
        self.outbox.extend(records)
        self._publish_lag()
        if len(self.outbox) > MAX_LAG_RECORDS:
            self.ship(best_effort=True)

    # ------------------------------------------------------------------ #
    # shipping
    # ------------------------------------------------------------------ #

    def ship(self, best_effort: bool = False) -> int:
        """Drain the outbox as batches; returns records acknowledged.

        ``best_effort=True`` (the commit-path auto-ship) swallows a
        fully exhausted retry budget and leaves the remainder queued;
        the explicit :meth:`flush` raises instead.
        """
        shipped = 0
        while self.outbox:
            batch_records = self.outbox[:BATCH_RECORDS]
            if not self._ship_one(batch_records, best_effort):
                break
            shipped += len(batch_records)
            del self.outbox[: len(batch_records)]
            self.acked_lsn = max(
                self.acked_lsn, batch_records[-1].lsn
            )
        self._publish_lag()
        return shipped

    def flush(self) -> int:
        """Ship everything queued; raises if the replica cannot take it."""
        shipped = self.ship(best_effort=False)
        if self.outbox:
            raise ReplicationError(
                f"replication flush left {len(self.outbox)} records "
                f"unacknowledged after {SHIP_ATTEMPTS} attempts"
            )
        return shipped

    def _ship_one(self, records, best_effort: bool) -> bool:
        """One batch to the replica, with retries; True on ack."""
        self.seq += 1
        batch = ShippedBatch(
            epoch=self.epoch, seq=self.seq, records=tuple(records)
        )
        data = encode_batch(batch)
        last_error: Optional[Exception] = None
        for attempt in range(SHIP_ATTEMPTS):
            if attempt:
                self.ship_retries += 1
            wire = data
            try:
                # Both replication fault points draw their seeded
                # decisions here, never in the replica.
                action = fault_runtime.fire(
                    "repl.ship", seq=batch.seq, records=len(records)
                )
                if action == "corrupt":
                    wire = corrupt_bytes(data)
                fault_runtime.fire("repl.apply", seq=batch.seq)
                ack = self.replica.apply_batch(wire)
            except CorruptBatchError as exc:
                # The replica rejected the frame whole — nothing
                # applied; re-encode is pointless (the corruption was
                # injected on the wire), resend the good bytes.
                self.rejected_batches += 1
                self.ship_errors += 1
                last_error = exc
                continue
            except (InjectedFaultError, ReplicationError) as exc:
                self.ship_errors += 1
                last_error = exc
                continue
            self.batches_shipped += 1
            self.records_shipped += len(records)
            self.epoch = max(self.epoch, ack["epoch"])
            return True
        if best_effort:
            return False
        raise last_error

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def _publish_lag(self) -> None:
        obs = obs_runtime.active()
        if obs is not None and obs.metrics is not None:
            obs.metrics.gauge(
                "replication_lag_records",
                "Log records not yet acknowledged by the replica",
            ).set(len(self.outbox))

    def state(self) -> Dict[str, Any]:
        """Shipper-side counters for ``db.replication_state()``."""
        return {
            "epoch": self.epoch,
            "lag_records": len(self.outbox),
            "acked_lsn": self.acked_lsn,
            "batches_shipped": self.batches_shipped,
            "records_shipped": self.records_shipped,
            "ship_retries": self.ship_retries,
            "ship_errors": self.ship_errors,
            "rejected_batches": self.rejected_batches,
        }
