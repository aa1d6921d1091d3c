"""The warm replica: a catalog copy kept current by applied log records.

A :class:`ReplicaApplier` holds partition images only — "warm" means
the data is in memory, decoded and merge-current, while indexes are
deliberately *not* maintained: exactly like the paper's restart path,
indexes rebuild from the partitions at promotion time.  That keeps
steady-state replication cost proportional to the update stream (one
:func:`~repro.recovery.log_device.apply_record` per shipped record)
and zero for reads.

Exactly-once apply: the applier tracks an applied-LSN watermark and
skips any record at or below it, so a batch re-shipped after a lost
acknowledgement deduplicates instead of double-applying.  All apply
work runs inside an isolated
:func:`~repro.instrument.counters_scope`, charging nothing to the
primary's Section 3.1 operation totals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CorruptImageError,
    ReplicationEpochError,
    ReplicationError,
)
from repro.instrument import counters_scope
from repro.recovery.framing import frame, unframe
from repro.recovery.log_device import apply_record
from repro.replication.batch import decode_batch
from repro.storage.partition import Partition, PartitionConfig

PartitionKey = Tuple[str, int]


class ReplicaApplier:
    """Applies shipped batches to a warm set of partition images."""

    def __init__(
        self,
        configs: Optional[Dict[str, Tuple[int, int]]] = None,
        epoch: int = 1,
    ) -> None:
        #: Per-relation (slot_capacity, heap_capacity) for partitions the
        #: replica must create itself (an insert into a partition born
        #: after bootstrap).
        self.configs: Dict[str, Tuple[int, int]] = dict(configs or {})
        self.epoch = int(epoch)
        #: Warm partition images, in arrival order — bootstrap order
        #: first (the primary disk's key order), then creation order.
        #: Promotion adopts them in this order, matching the order a
        #: primary restart would reload from disk.
        self.partitions: Dict[PartitionKey, Partition] = {}
        #: Exactly-once watermark: the highest LSN applied.
        self.applied_lsn = 0
        self.records_applied = 0
        self.records_skipped = 0
        self.batches_applied = 0
        self.batches_rejected = 0

    # ------------------------------------------------------------------ #
    # bootstrap / registration
    # ------------------------------------------------------------------ #

    def register_relation(self, name: str, config: Tuple[int, int]) -> None:
        """Learn a relation's partition sizing (new DDL on the primary)."""
        self.configs[name] = tuple(config)

    def load_image(self, relation: str, partition_id: int, framed: bytes) -> None:
        """Install one CRC32-framed partition image (bootstrap path)."""
        payload = unframe(framed, context=f"{relation}[{partition_id}] image")
        self.partitions[(relation, partition_id)] = Partition.from_bytes(
            payload
        )

    def _partition_for(self, record) -> Partition:
        key = (record.relation, record.partition_id)
        partition = self.partitions.get(key)
        if partition is None:
            # A partition born after bootstrap: its first shipped record
            # is an insert into a fresh, empty image — the same starting
            # point the primary's base-image write established on disk.
            sizing = self.configs.get(record.relation)
            config = PartitionConfig(*sizing) if sizing else PartitionConfig()
            partition = Partition(record.partition_id, config)
            self.partitions[key] = partition
        return partition

    # ------------------------------------------------------------------ #
    # apply
    # ------------------------------------------------------------------ #

    def apply_batch(self, data: bytes) -> Dict[str, Any]:
        """Decode, verify, and apply one shipped batch; returns the ack.

        Raises :class:`~repro.errors.CorruptBatchError` when the frame
        or a record checksum fails (nothing applies), and
        :class:`~repro.errors.ReplicationEpochError` for a batch from a
        stale epoch (fencing).  Records at or below the applied-LSN
        watermark are skipped — exactly-once under re-shipping.
        """
        try:
            batch = decode_batch(data)
        except ReplicationError:
            self.batches_rejected += 1
            raise
        if batch.epoch < self.epoch:
            self.batches_rejected += 1
            raise ReplicationEpochError(
                f"batch seq={batch.seq} carries stale epoch "
                f"{batch.epoch} (replica epoch is {self.epoch})"
            )
        self.epoch = batch.epoch
        applied = 0
        skipped = 0
        # Replica work must not perturb the primary's operation totals:
        # apply_record charges count_move per replayed mutation, so the
        # whole application runs in an isolated counter scope.
        with counters_scope():
            for record in sorted(batch.records, key=lambda r: r.lsn):
                if record.lsn <= self.applied_lsn:
                    skipped += 1
                    continue
                apply_record(self._partition_for(record), record)
                self.applied_lsn = record.lsn
                applied += 1
        self.records_applied += applied
        self.records_skipped += skipped
        self.batches_applied += 1
        return {
            "ok": True,
            "epoch": self.epoch,
            "seq": batch.seq,
            "applied": applied,
            "skipped": skipped,
            "watermark": self.applied_lsn,
        }

    # ------------------------------------------------------------------ #
    # images out (promotion + heal)
    # ------------------------------------------------------------------ #

    def image(self, relation: str, partition_id: int) -> bytes:
        """One partition's current image, CRC32-framed for the hop back."""
        key = (relation, partition_id)
        partition = self.partitions.get(key)
        if partition is None:
            raise CorruptImageError(
                f"replica holds no image for {relation}[{partition_id}]"
            )
        with counters_scope():
            payload = partition.to_bytes()
        return frame(payload)

    def snapshot(self) -> List[Tuple[PartitionKey, bytes]]:
        """Every partition image, framed, in adoption order."""
        with counters_scope():
            return [
                (key, frame(partition.to_bytes()))
                for key, partition in self.partitions.items()
            ]

    def state(self) -> Dict[str, Any]:
        """Replica-side counters, for ``db.replication_state()``."""
        return {
            "epoch": self.epoch,
            "watermark": self.applied_lsn,
            "partitions": len(self.partitions),
            "records_applied": self.records_applied,
            "records_skipped": self.records_skipped,
            "batches_applied": self.batches_applied,
            "batches_rejected": self.batches_rejected,
        }
