"""Exception hierarchy for the MM-DBMS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema definition or schema lookup is invalid."""


class StorageError(ReproError):
    """A storage-layer operation failed (partition, heap, tuple access)."""


class PartitionFullError(StorageError):
    """A partition has no free slot for a new tuple."""


class HeapOverflowError(StorageError):
    """A partition's variable-length heap has no room for a value."""


class DanglingPointerError(StorageError):
    """A :class:`~repro.storage.tuples.TupleRef` points at a deleted slot."""


class IndexError_(ReproError):
    """Base class for index-structure errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class DuplicateKeyError(IndexError_):
    """An insert violated a unique-index constraint."""


class KeyNotFoundError(IndexError_):
    """A delete or lookup referenced a key that is not in the index."""


class UnsupportedOperationError(IndexError_):
    """The index does not support the requested operation.

    For example, range scans on hash indexes, or updates on a read-only
    array index used during a merge join.
    """


class ConfigError(ReproError, ValueError):
    """An engine/runtime configuration value is invalid.

    Raised at configuration time (``db.configure_execution`` and the
    config dataclasses behind it) so that a bad engine name or a
    nonsensical batch/worker count fails fast instead of deep inside
    the engine.  Also a :class:`ValueError` so callers that predate the
    dedicated class keep working.
    """


class QueryError(ReproError):
    """A query-processing operation was mis-specified."""


class FingerprintError(ReproError):
    """A plan holds a node, predicate or literal that has no canonical
    fingerprint; the plan is executable but not cacheable."""


class PlanError(QueryError):
    """A query plan is structurally invalid."""


class TransactionError(ReproError):
    """A transaction-layer failure."""


class DeadlockError(TransactionError):
    """The lock manager detected a deadlock; the transaction must abort."""


class LockTimeoutError(TransactionError):
    """A lock request could not be granted within its bound."""


class TransactionAborted(TransactionError):
    """Operation attempted on a transaction that has already aborted."""


class RecoveryError(ReproError):
    """The recovery subsystem failed to restore a consistent database."""


class CorruptImageError(RecoveryError):
    """A partition image failed its CRC32 integrity check.

    Raised at the I/O boundary (:class:`~repro.recovery.disk.SimulatedDisk`
    reads and :meth:`~repro.storage.partition.Partition.from_bytes`), so
    corruption surfaces as a typed, catchable error instead of an
    unpickling crash deep inside restart.
    """


class TornWriteError(CorruptImageError):
    """A partition image is shorter than its frame header declares.

    The signature of a write interrupted mid-partition — the paper's
    partition is "the unit of both recovery and disk I/O", so a torn
    write tears exactly one partition image.
    """


class CorruptLogRecordError(RecoveryError):
    """A log record's content no longer matches its append-time checksum."""


class ShardUnavailableError(ReproError):
    """A statement routed to a quarantined or failed partition.

    Raised at the relation's partition-lookup boundary when a partial
    restart quarantined the partition's damaged image — the typed,
    retryable signal ("heal or re-restart, then retry") instead of a
    generic :class:`KeyError` / :class:`CorruptImageError` surfacing
    from deep inside recovery.  Carries the relation, partition id, and
    the reason the partition was condemned.
    """

    def __init__(self, relation: str, partition_id: int, reason: str) -> None:
        super().__init__(
            f"partition {relation}[{partition_id}] is unavailable "
            f"(quarantined: {reason}); heal it from a replica or finish "
            f"recovery before retrying"
        )
        self.relation = relation
        self.partition_id = partition_id
        self.reason = reason


class ReplicationError(ReproError):
    """A replication-layer operation failed (shipping, apply, failover)."""


class CorruptBatchError(ReplicationError):
    """A shipped record batch failed its frame or record checksum.

    The replica rejects the whole batch — nothing half-applies — and the
    shipper re-encodes and re-ships from its outbox.
    """


class ReplicationEpochError(ReplicationError):
    """A batch carried a stale replication epoch (fencing).

    After a promotion the epoch advances; a batch from a demoted primary
    still shipping under the old epoch is rejected, never applied.
    """


class ReplicaUnavailableError(ReplicationError):
    """No replica is configured, or its channel is down."""


class InjectedFaultError(ReproError):
    """A fault deliberately raised by the fault-injection subsystem.

    Carries the fault ``point`` (e.g. ``"disk.read"``) and ``action``
    so handlers and tests can tell injected failures from organic ones.
    """

    def __init__(self, point: str, action: str = "error") -> None:
        super().__init__(f"injected fault at {point!r} (action={action})")
        self.point = point
        self.action = action

    def __reduce__(self):
        # Keep point/action intact across the worker-to-parent pickle
        # round-trip of ProcessPoolExecutor results.
        return (type(self), (self.point, self.action))


class PoisonedMorselError(QueryError):
    """A morsel kept failing after its retry budget, including the final
    inline re-execution — the failure is the morsel's, not the pool's."""

    def __init__(self, kind: str, index: int, cause: str) -> None:
        super().__init__(
            f"morsel {index} of {kind!r} task failed after exhausting its "
            f"retry budget (last error: {cause})"
        )
        self.kind = kind
        self.index = index
        self.cause = cause


class CatalogError(ReproError):
    """A catalog lookup failed or a name clashed."""
