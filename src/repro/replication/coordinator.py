"""Failover: establish a warm replica, promote it, heal from it.

The :class:`FailoverCoordinator` owns one primary's replication state:

* :meth:`establish` bootstraps the replica from the disk copy (images
  plus the unpropagated accumulation-log suffix) and taps the log
  device so every subsequently absorbed record ships;
* :meth:`promote` is failover: replay the unacknowledged log suffix,
  swap the replica's partition images into the catalog (bumping every
  ``Relation.version`` so plan/result caches invalidate), rebuild
  indexes, re-point the morsel scheduler's catalog registry, and fence
  the old epoch;
* :meth:`heal_quarantined` is online partition repair: a partition a
  partial restart condemned is fetched from the replica — whose image
  already reflects the full shipped log — and atomically swapped in,
  repairing the disk copy too, with no full restart.

The replica lives in-process, the same way
:class:`~repro.recovery.disk.SimulatedDisk` models the disk: the
coordinator and the shipper call the :class:`ReplicaApplier` directly.
Every image and batch still crosses as CRC32-framed bytes, so damage
on any hop surfaces as a typed error.  Promotion is explicit
(``db.demote()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CorruptImageError,
    RecoveryError,
    ReplicationError,
    TornWriteError,
)
from repro.obs import runtime as obs_runtime
from repro.recovery.framing import frame, unframe
from repro.replication import shipper as shipping
from repro.replication.replica import ReplicaApplier
from repro.replication.shipper import LogShipper
from repro.storage.partition import Partition

PartitionKey = Tuple[str, int]


@dataclass
class PromotionStats:
    """What one failover did."""

    reason: str = ""
    epoch: int = 0
    partitions_restored: int = 0
    records_replayed: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class HealStats:
    """What one online repair pass did."""

    partitions_healed: int = 0
    records_replayed: int = 0
    healed: List[PartitionKey] = field(default_factory=list)
    elapsed_seconds: float = 0.0


class FailoverCoordinator:
    """Wires one database's log device to a warm replica."""

    def __init__(self, db) -> None:
        self.db = db
        self.replica: Optional[ReplicaApplier] = None
        self.shipper: Optional[LogShipper] = None
        self.state = "idle"
        self.failovers = 0
        self.partition_heals = 0
        self.last_promotion: Optional[PromotionStats] = None
        self.last_heal: Optional[HealStats] = None
        self._sink_installed = False
        #: Relation names the replica knows about (config registration).
        self._known_relations: set = set()

    # ------------------------------------------------------------------ #
    # bootstrap
    # ------------------------------------------------------------------ #

    def _read_image(self, relation: str, partition_id: int) -> bytes:
        """One disk image, framed for the hop, retrying transient reads."""
        manager = self.db.recovery
        last_error: Optional[RecoveryError] = None
        for __ in range(shipping.SHIP_ATTEMPTS):
            try:
                return frame(
                    manager.disk.read_partition(relation, partition_id)
                )
            except (CorruptImageError, TornWriteError) as exc:
                last_error = exc
        raise ReplicationError(
            f"cannot bootstrap replica image for "
            f"{relation}[{partition_id}]: {last_error}"
        )

    def establish(self) -> "FailoverCoordinator":
        """Bootstrap the replica and start shipping.

        The replica starts from the disk copy: every stored partition
        image, plus the accumulation log's unpropagated suffix seeded
        into the shipper's outbox and flushed.  Relations with no disk
        image yet are checkpointed first so replay has a base.
        """
        manager = self.db._require_durable()
        device = manager.log_device
        device.absorb()
        if not manager.disk.partition_keys() and any(
            relation.partitions for relation in self.db.catalog
        ):
            # Nothing imaged yet (a fresh durable database that was
            # loaded before replication came on): take the base images.
            manager.checkpoint_all()
        configs: Dict[str, Tuple[int, int]] = {}
        for relation in self.db.catalog:
            configs[relation.name] = (
                relation.partition_config.slot_capacity,
                relation.partition_config.heap_capacity,
            )
        self._known_relations = set(configs)
        self.replica = ReplicaApplier(configs, epoch=1)
        for relation_name, partition_id in manager.disk.partition_keys():
            self.replica.load_image(
                relation_name,
                partition_id,
                self._read_image(relation_name, partition_id),
            )
        self.shipper = LogShipper(self.replica, epoch=1)
        # The suffix absorbed before the tap was installed still needs
        # shipping: seed it and drain (best effort — establishment must
        # not fail on a flaky first hop; flush() calls catch up later).
        pending = device.all_pending()
        if pending:
            self.shipper.outbox.extend(pending)
            self.shipper.ship(best_effort=True)
        device.add_sink(self._sink)
        self._sink_installed = True
        self.state = "active"
        return self

    def _sink(self, records) -> None:
        """The log-device tap: every absorbed record batch lands here."""
        self._sync_relations()
        self.shipper.enqueue(records)

    def _sync_relations(self) -> None:
        """Teach the replica about relations created after establish."""
        if len(self._known_relations) == len(self.db.catalog):
            return
        for relation in self.db.catalog:
            if relation.name not in self._known_relations:
                self.replica.register_relation(
                    relation.name,
                    (
                        relation.partition_config.slot_capacity,
                        relation.partition_config.heap_capacity,
                    ),
                )
                self._known_relations.add(relation.name)

    # ------------------------------------------------------------------ #
    # failover
    # ------------------------------------------------------------------ #

    def promote(self, reason: str = "demoted") -> PromotionStats:
        """Fail over to the replica; the catalog adopts its images.

        Replays the unacknowledged log suffix first (the ``repl.ship`` /
        ``repl.apply`` fault points fire on every hop of that replay),
        then swaps every replica partition into the catalog — clearing
        quarantine marks, bumping relation versions, rebuilding indexes
        — re-points the morsel scheduler's catalog registry, and bumps
        the replication epoch so any straggler batch from the demoted
        primary is fenced.
        """
        if self.state != "active":
            raise ReplicationError(
                f"cannot promote from state {self.state!r}"
            )
        started = time.perf_counter()
        manager = self.db._require_durable()
        device = manager.log_device
        device.absorb()
        # Replay the unacknowledged suffix.  This is the promotion's
        # correctness step: the replica must reach the last committed
        # record before its images become the database.
        replayed = len(self.shipper.outbox)
        self.shipper.flush()
        snapshot = self.replica.snapshot()
        stats = PromotionStats(reason=reason, records_replayed=replayed)
        for relation in self.db.catalog:
            relation._partitions.clear()
            relation._count = 0
            relation.clear_quarantined()
        touched = []
        for (relation_name, __), framed in snapshot:
            payload = unframe(
                framed, context=f"promoted image {relation_name}"
            )
            relation = self.db.catalog.relation(relation_name)
            relation.adopt_partition(Partition.from_bytes(payload))
            if relation_name not in touched:
                touched.append(relation_name)
            stats.partitions_restored += 1
        for relation_name in touched:
            self.db.catalog.relation(relation_name).rebuild_indexes()
        # Re-point the morsel scheduler's registry: worker forks must
        # resolve morsels against the promoted catalog, not the dead
        # primary's fingerprints.
        scheduler = getattr(self.db.executor, "scheduler", None)
        if scheduler is not None:
            from repro.query.parallel import tasks

            tasks.register_catalog(scheduler.token, self.db.catalog)
        # Fence the old epoch: a straggler batch stamped with the
        # pre-promotion epoch now raises ReplicationEpochError.
        new_epoch = self.shipper.epoch + 1
        self.shipper.epoch = new_epoch
        self.replica.epoch = new_epoch
        stats.epoch = new_epoch
        # The promoted database is whole: pending background reloads and
        # quarantine reports from any earlier partial restart are moot.
        manager._pending_background = []
        last = manager.last_restart_stats
        if last is not None:
            last.quarantined.clear()
        device.remove_sink(self._sink)
        self._sink_installed = False
        self.state = "promoted"
        self.failovers += 1
        stats.elapsed_seconds = time.perf_counter() - started
        self.last_promotion = stats
        obs_runtime.metric_inc("failovers_total", reason=reason)
        return stats

    # ------------------------------------------------------------------ #
    # online partition repair
    # ------------------------------------------------------------------ #

    def heal_quarantined(self) -> HealStats:
        """Repair every quarantined partition from the replica, online.

        The replica's image already reflects the full shipped log, so a
        heal is: flush the suffix, fetch the image, adopt it (clearing
        the quarantine mark), rewrite the disk copy (repairing the
        damaged stored image), and drop the now-reflected accumulation
        records.  ``quarantine_report()`` drains to empty with no full
        restart.
        """
        if self.state != "active":
            raise ReplicationError(
                f"cannot heal from state {self.state!r}; "
                "replication is not active"
            )
        started = time.perf_counter()
        manager = self.db._require_durable()
        device = manager.log_device
        device.absorb()
        self.shipper.flush()
        stats = HealStats()
        last = manager.last_restart_stats
        quarantined = list(last.quarantined) if last is not None else []
        touched = []
        for (relation_name, partition_id), __ in quarantined:
            framed = self.replica.image(relation_name, partition_id)
            payload = unframe(
                framed,
                context=f"healed image {relation_name}[{partition_id}]",
            )
            partition = Partition.from_bytes(payload)
            relation = self.db.catalog.relation(relation_name)
            relation.adopt_partition(partition)  # clears the mark
            # Repair the disk copy too: the stored image was the damage.
            manager.disk.write_partition(
                relation_name, partition_id, partition.to_bytes()
            )
            stats.records_replayed += device.discard_pending(
                relation_name, partition_id
            )
            if relation_name not in touched:
                touched.append(relation_name)
            stats.partitions_healed += 1
            stats.healed.append((relation_name, partition_id))
            self.partition_heals += 1
            obs_runtime.metric_inc(
                "partition_heals_total", relation=relation_name
            )
        for relation_name in touched:
            self.db.catalog.relation(relation_name).rebuild_indexes()
        if last is not None and quarantined:
            healed = set(stats.healed)
            last.quarantined = [
                entry for entry in last.quarantined if entry[0] not in healed
            ]
            manager._pending_background = [
                key
                for key in manager._pending_background
                if key not in healed
            ]
        stats.elapsed_seconds = time.perf_counter() - started
        self.last_heal = stats
        return stats

    # ------------------------------------------------------------------ #
    # introspection / teardown
    # ------------------------------------------------------------------ #

    def replication_state(self) -> Dict[str, Any]:
        """One dict for reports: shipper + replica + coordinator state."""
        state: Dict[str, Any] = {
            "state": self.state,
            "failovers": self.failovers,
            "partition_heals": self.partition_heals,
        }
        if self.shipper is not None:
            state["shipper"] = self.shipper.state()
        if self.replica is not None and self.state == "active":
            state["replica"] = self.replica.state()
        return state

    def close(self) -> None:
        """Detach the sink: nothing ships after this."""
        if self._sink_installed:
            self.db.recovery.log_device.remove_sink(self._sink)
            self._sink_installed = False
        if self.state != "promoted":
            self.state = "closed"
