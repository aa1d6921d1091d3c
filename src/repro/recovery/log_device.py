"""The active log device with its change-accumulation log.

"During normal operation, the log device reads the updates of committed
transactions from the stable log buffer and updates the disk copy of the
database.  The log device holds a change accumulation log, so it does not
need to update the disk version of the database every time a partition is
modified."

The device accumulates committed records per partition and propagates them
to the disk copy lazily (:meth:`LogDevice.propagate`).  At restart, the
records still pending for a partition are merged into its disk image "on
the fly" (:meth:`LogDevice.load_partition_with_merge`).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import HeapOverflowError, RecoveryError
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.recovery.disk import SimulatedDisk
from repro.recovery.log import LogRecord, StableLogBuffer, verify_record
from repro.storage.partition import Partition

PartitionKey = Tuple[str, int]


def apply_record(partition: Partition, record: LogRecord) -> None:
    """Replay one physical log record against a partition image.

    Update replays that exhaust the image's bump-allocated heap trigger a
    compaction and retry — tuple slots never move, so replay determinism
    is preserved.

    Records sealed with a checksum are verified first: a record damaged
    between append and application raises
    :class:`~repro.errors.CorruptLogRecordError` *before* touching the
    partition, so a bad record never half-applies.
    """
    try:
        verify_record(record)
    except RecoveryError:
        obs_runtime.metric_inc(
            "checksum_failures_total",
            device="log",
            kind="CorruptLogRecordError",
        )
        raise
    payload = record.payload
    if record.kind == "insert":
        try:
            partition.insert_at(payload["slot"], payload["values"])
        except HeapOverflowError:
            partition.compact()
            partition.insert_at(payload["slot"], payload["values"])
    elif record.kind == "update":
        try:
            partition.update_field(
                payload["slot"], payload["position"], payload["value"]
            )
        except HeapOverflowError:
            partition.compact()
            partition.update_field(
                payload["slot"], payload["position"], payload["value"]
            )
    elif record.kind == "delete":
        partition.delete(payload["slot"])
    elif record.kind == "forward":
        partition.set_forwarding(payload["slot"], payload["target"])
    else:
        raise RecoveryError(f"unknown log record kind {record.kind!r}")


class LogDevice:
    """Drains the stable buffer and maintains the disk copy."""

    def __init__(self, disk: SimulatedDisk, stable_log: StableLogBuffer) -> None:
        self.disk = disk
        self.stable_log = stable_log
        self._mutex = threading.Lock()
        self._accumulation: Dict[PartitionKey, List[LogRecord]] = {}
        self.records_absorbed = 0
        self.records_propagated = 0
        #: Absorb observers (the replication log shipper).  Empty — the
        #: default — costs one falsy check per absorb; the recovery wire
        #: stays byte-identical with replication off.
        self._sinks: List = []

    def add_sink(self, sink) -> None:
        """Register a callable fed every newly absorbed record batch."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Unregister a sink (tolerates one already removed)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # normal operation
    # ------------------------------------------------------------------ #

    def absorb(self) -> int:
        """Pull committed records from the stable buffer into the
        change-accumulation log.  Returns how many were absorbed."""
        records = self.stable_log.drain_committed()
        with self._mutex:
            for record in records:
                key = (record.relation, record.partition_id)
                self._accumulation.setdefault(key, []).append(record)
            self.records_absorbed += len(records)
        obs_runtime.metric_inc("log_records_absorbed_total", len(records))
        if records and self._sinks:
            # Replication taps the accumulation log here: every record
            # that enters it is also offered to each registered sink.
            for sink in list(self._sinks):
                sink(records)
        return len(records)

    def propagate(self, max_partitions: Optional[int] = None) -> int:
        """Apply accumulated records to the disk copy.

        Processes up to ``max_partitions`` partitions (all, when None) —
        the background behaviour of the paper's log device.  Returns the
        number of records applied.
        """
        with self._mutex:
            keys = list(self._accumulation)
            if max_partitions is not None:
                keys = keys[:max_partitions]
            batches = {key: self._accumulation.pop(key) for key in keys}
        applied = 0
        written = 0
        injector = fault_runtime.active()
        try:
            for key in list(batches):
                relation, partition_id = key
                if injector is not None:
                    # The crash window between absorb and propagation:
                    # an injected flush fault aborts here, and the
                    # except clause below requeues everything not yet
                    # written — a crash at this point loses nothing.
                    injector.fire(
                        "log.flush",
                        relation=relation,
                        partition=partition_id,
                    )
                records = batches[key]
                image = self.disk.read_partition(relation, partition_id)
                partition = Partition.from_bytes(image)
                for record in sorted(records, key=lambda r: r.lsn):
                    apply_record(partition, record)
                self.disk.write_partition(
                    relation, partition_id, partition.to_bytes()
                )
                batches[key] = []
                applied += len(records)
                written += 1
        except Exception:
            # Propagation is partition-atomic: fully-written partitions
            # keep their fresh images, everything else returns to the
            # accumulation log for the next propagate (or for restart's
            # on-the-fly merge).
            with self._mutex:
                for key, pending in batches.items():
                    if pending:
                        self._accumulation.setdefault(key, []).extend(
                            pending
                        )
                self.records_propagated += applied
            raise
        with self._mutex:
            self.records_propagated += applied
        obs_runtime.metric_inc("log_records_propagated_total", applied)
        obs_runtime.metric_inc("log_partition_writes_total", written)
        return applied

    # ------------------------------------------------------------------ #
    # restart support
    # ------------------------------------------------------------------ #

    def pending_for(self, relation: str, partition_id: int) -> List[LogRecord]:
        """Unpropagated records for one partition (copy, LSN order)."""
        with self._mutex:
            records = list(self._accumulation.get((relation, partition_id), ()))
        return sorted(records, key=lambda r: r.lsn)

    def discard_pending(self, relation: str, partition_id: int) -> int:
        """Drop accumulated records for a partition that was just
        checkpointed — its fresh disk image already reflects them.
        Returns the number of records discarded."""
        with self._mutex:
            records = self._accumulation.pop((relation, partition_id), [])
            self.records_propagated += len(records)
            return len(records)

    def pending_count(self) -> int:
        """Total unpropagated records across all partitions."""
        with self._mutex:
            return sum(len(v) for v in self._accumulation.values())

    def all_pending(self) -> List[LogRecord]:
        """Every unpropagated record, LSN order (replication bootstrap)."""
        with self._mutex:
            records = [
                record
                for batch in self._accumulation.values()
                for record in batch
            ]
        return sorted(records, key=lambda r: r.lsn)

    def load_partition_with_merge(
        self, relation: str, partition_id: int
    ) -> Partition:
        """Restart path: disk image + pending log records, merged on the
        fly.

        "Each partition that participates in the working set is read from
        the disk copy of the database.  The log device is checked for any
        updates to that partition that have not yet been propagated to
        the disk copy.  Any updates that exist are merged with the
        partition on the fly and the updated partition is placed in
        memory."

        The merged records are consumed (they are now reflected in
        memory and will be re-propagated from the reloaded state by the
        next checkpoint).
        """
        image = self.disk.read_partition(relation, partition_id)
        partition = Partition.from_bytes(image)
        with self._mutex:
            records = self._accumulation.pop((relation, partition_id), [])
        try:
            for record in sorted(records, key=lambda r: r.lsn):
                apply_record(partition, record)
        except Exception:
            # The merge failed (e.g. a corrupt record): nothing was
            # consumed.  Requeue so a retry — or the quarantine report —
            # still sees every pending record.
            with self._mutex:
                self._accumulation.setdefault(
                    (relation, partition_id), []
                ).extend(records)
            raise
        obs_runtime.metric_inc("log_restart_merges_total", 1)
        obs_runtime.metric_inc(
            "log_restart_records_merged_total", len(records)
        )
        if records:
            # The memory copy is now newer than the disk image; write the
            # merged image back so the disk copy converges too.
            self.disk.write_partition(
                relation, partition_id, partition.to_bytes()
            )
            with self._mutex:
                self.records_propagated += len(records)
        return partition

    def survive_crash(self) -> "LogDevice":
        """The log device and its accumulation log survive a crash of
        main memory (it is a separate device in Figure 2)."""
        return self
