"""Crash restart: working set first, background reload after.

"Given the size of memory, applications that depend on the DBMS will
probably not be able to afford to wait for the entire database to be
reloaded ...  we are developing an approach that will allow normal
processing to continue immediately ...  Once the working set has been read
in, the MM-DBMS should be able to run at close to its normal rate while
the remainder of the database is read in by a background process."

Restart is also where storage integrity faults surface: partition images
are CRC32-framed on the simulated disk, so a damaged image raises a
typed :class:`~repro.errors.CorruptImageError` /
:class:`~repro.errors.TornWriteError` at the read boundary.  Two
degraded paths absorb them:

* **transient-read retry** — a read whose *returned* bytes fail the
  checksum (the stored image is fine) heals on a bounded re-read;
* **partial restart** — ``restart(partial=True)`` quarantines partitions
  whose *stored* image is damaged into
  :attr:`RestartStats.quarantined` and brings the rest of the database
  up consistent, instead of the all-or-nothing failure of the default
  mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    CorruptImageError,
    CorruptLogRecordError,
    RecoveryError,
)
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.recovery.disk import SimulatedDisk
from repro.recovery.log import StableLogBuffer
from repro.recovery.log_device import LogDevice
from repro.storage.catalog import Catalog

PartitionKey = Tuple[str, int]

#: Total read attempts per partition during restart: the first read plus
#: one retry, which heals any single transient read fault.
READ_ATTEMPTS = 2


@dataclass
class RestartStats:
    """What one restart did, in the paper's units (partitions = tracks)."""

    working_set_partitions: int = 0
    background_partitions: int = 0
    log_records_merged: int = 0
    #: Reads retried after a transient integrity failure.
    read_retries: int = 0
    #: Partitions whose stored image stayed damaged after retries, with
    #: the error that condemned them (``partial=True`` restarts only).
    quarantined: List[Tuple[PartitionKey, str]] = field(default_factory=list)

    @property
    def total_partitions(self) -> int:
        """All partitions reloaded."""
        return self.working_set_partitions + self.background_partitions

    @property
    def fully_recovered(self) -> bool:
        """Whether every partition on disk made it back into memory."""
        return not self.quarantined

    def quarantine_report(self) -> Dict[str, List[Tuple[int, str]]]:
        """Quarantined partitions grouped per relation — the recoverable
        to-do list a partial restart hands the operator."""
        report: Dict[str, List[Tuple[int, str]]] = {}
        for (relation, partition_id), reason in self.quarantined:
            report.setdefault(relation, []).append((partition_id, reason))
        return report


class RecoveryManager:
    """Checkpointing, crash simulation, and two-phase restart."""

    def __init__(
        self,
        catalog: Catalog,
        disk: SimulatedDisk = None,
        stable_log: StableLogBuffer = None,
    ) -> None:
        self.catalog = catalog
        self.disk = disk if disk is not None else SimulatedDisk()
        self.stable_log = (
            stable_log if stable_log is not None else StableLogBuffer()
        )
        self.log_device = LogDevice(self.disk, self.stable_log)
        self._pending_background: List[PartitionKey] = []
        #: Whether the background reload inherits partial semantics.
        self._partial = False
        #: Stats object background reload keeps appending to.
        self._last_stats: Optional[RestartStats] = None

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint_all(self) -> int:
        """Full checkpoint: every partition of every relation.

        Returns the number of partitions written.  New partitions created
        since the last checkpoint get their base image here; the engine
        also checkpoints each new partition eagerly so that log replay
        always has a base image.

        The ``checkpoint.partition`` fault point fires before each
        partition write — an injected error models a crash mid-checkpoint
        with some partitions freshly imaged and some not.  That window is
        safe by construction: a partition is only imaged *atomically
        with* discarding its pending records, so every partition either
        has (new image, no pending) or (old image, pending records), and
        restart merges both shapes to the same committed state.
        """
        self.log_device.absorb()
        injector = fault_runtime.active()
        written = 0
        for relation_name, partition in self.catalog.all_partitions():
            if injector is not None:
                injector.fire(
                    "checkpoint.partition",
                    relation=relation_name,
                    partition=partition.id,
                )
            self.disk.write_partition(
                relation_name, partition.id, partition.to_bytes()
            )
            self.log_device.discard_pending(relation_name, partition.id)
            written += 1
        return written

    # ------------------------------------------------------------------ #
    # crash + restart
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Simulate loss of main memory.

        Relations lose their partitions and indexes; the disk copy, the
        stable log buffer (battery-backed), and the log device's
        change-accumulation log survive.
        """
        self.stable_log.survive_crash()
        self.log_device.survive_crash()
        for relation in self.catalog:
            relation._partitions.clear()
            relation._count = 0
            # The whole memory image is gone; per-partition quarantine
            # marks from an earlier partial restart are moot.
            relation.clear_quarantined()

    def restart(
        self,
        working_set: Optional[Sequence[PartitionKey]] = None,
        partial: bool = False,
    ) -> RestartStats:
        """Reload the working set and queue the rest for background load.

        ``working_set`` lists (relation, partition id) pairs the current
        transactions need; None means "everything now".  After this
        returns, working-set relations are usable (indexes rebuilt);
        call :meth:`background_reload_step` until it returns 0 to finish.

        ``partial=True`` keeps going when a partition's stored image is
        damaged: the partition is quarantined into
        :attr:`RestartStats.quarantined` (and the per-relation
        :meth:`RestartStats.quarantine_report`), and every healthy
        partition comes up consistent.  The default re-raises the first
        integrity error, preserving all-or-nothing semantics.
        """
        # Anything still sitting committed-but-undrained moves to the
        # change-accumulation log first.
        self.log_device.absorb()
        stats = RestartStats()
        self._partial = partial
        self._last_stats = stats
        all_keys = self.disk.partition_keys()
        if working_set is None:
            wanted: List[PartitionKey] = list(all_keys)
        else:
            wanted = [key for key in working_set if key in set(all_keys)]
            missing = set(working_set) - set(all_keys)
            if missing:
                raise RecoveryError(
                    f"working set names unknown partitions: {sorted(missing)}"
                )
        loaded: Set[PartitionKey] = set()
        for relation_name, partition_id in wanted:
            if self._reload_one(relation_name, partition_id, stats):
                stats.working_set_partitions += 1
                loaded.add((relation_name, partition_id))
        skip = loaded | {key for key, __ in stats.quarantined}
        self._pending_background = [
            key for key in all_keys if key not in skip
        ]
        # Indexes must reflect whatever is in memory so the working-set
        # relations are immediately queryable.
        self._rebuild_touched_indexes(loaded)
        return stats

    def _reload_one(
        self,
        relation_name: str,
        partition_id: int,
        stats: RestartStats,
    ) -> bool:
        """Reload one partition; False when it had to be quarantined.

        Integrity failures are retried up to :data:`READ_ATTEMPTS` total
        reads — a *transient* read fault (the stored image is fine, the
        returned bytes were damaged in flight) heals on the re-read.  A
        persistently damaged image either quarantines (partial mode) or
        re-raises.
        """
        relation = self.catalog.relation(relation_name)
        pending = len(self.log_device.pending_for(relation_name, partition_id))
        last_error: Optional[RecoveryError] = None
        for attempt in range(READ_ATTEMPTS):
            try:
                partition = self.log_device.load_partition_with_merge(
                    relation_name, partition_id
                )
                break
            except (CorruptImageError, CorruptLogRecordError) as exc:
                # Image damage may be transient (a bad read) and is
                # worth the re-read; a corrupt log record fails the
                # retry deterministically and lands in quarantine.
                last_error = exc
                if attempt + 1 < READ_ATTEMPTS:
                    stats.read_retries += 1
                    obs_runtime.metric_inc(
                        "recovery_read_retries_total",
                        relation=relation_name,
                    )
        else:
            if not self._partial:
                raise last_error
            stats.quarantined.append(
                ((relation_name, partition_id), str(last_error))
            )
            relation.mark_quarantined(partition_id, str(last_error))
            obs_runtime.metric_inc(
                "recovery_quarantined_partitions_total",
                relation=relation_name,
            )
            return False
        relation.adopt_partition(partition)
        stats.log_records_merged += pending
        return True

    def _rebuild_touched_indexes(self, keys: Set[PartitionKey]) -> None:
        touched_relations = {name for name, __ in keys}
        for name in touched_relations:
            self.catalog.relation(name).rebuild_indexes()

    def background_reload_step(self, batch: int = 1) -> int:
        """Reload up to ``batch`` remaining partitions ("read in by a
        background process").  Returns how many were loaded; 0 when done.

        Inherits the partial/all-or-nothing mode of the :meth:`restart`
        that queued the work, quarantining into the same stats object.
        """
        stats = (
            self._last_stats if self._last_stats is not None else RestartStats()
        )
        loaded: Set[PartitionKey] = set()
        count = 0
        for __ in range(batch):
            if not self._pending_background:
                break
            relation_name, partition_id = self._pending_background.pop(0)
            if self._reload_one(relation_name, partition_id, stats):
                stats.background_partitions += 1
                loaded.add((relation_name, partition_id))
                count += 1
        if loaded:
            self._rebuild_touched_indexes(loaded)
        return count

    @property
    def background_remaining(self) -> int:
        """Partitions still queued for background reload."""
        return len(self._pending_background)

    @property
    def last_restart_stats(self) -> Optional[RestartStats]:
        """The stats of the most recent restart (still accumulating
        while the background reload drains), or None."""
        return self._last_stats

    def finish_background_reload(self) -> int:
        """Drain the background queue completely."""
        total = 0
        while True:
            step = self.background_reload_step(batch=16)
            if step == 0:
                return total
            total += step
