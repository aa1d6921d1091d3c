"""Log-shipped warm replicas with failover (DESIGN.md section 3.14).

The paper's recovery design (Section 5) keeps a disk copy current by
propagating a change-accumulation log.  This package points the same
log at a second *memory* copy: a :class:`ReplicaApplier` holds warm
partition images that a :class:`LogShipper` keeps current by shipping
checksummed record batches, and a :class:`FailoverCoordinator` turns
that warm copy into the database on primary failure (promotion) or
into a partition donor when a partial restart quarantines damage
(online heal).

Zero overhead when off: nothing here is imported, and the log device's
sink list stays empty, until ``db.configure_replication()`` runs.
"""

from repro.replication.batch import (
    ShippedBatch,
    corrupt_bytes,
    decode_batch,
    encode_batch,
)
from repro.replication.coordinator import (
    FailoverCoordinator,
    HealStats,
    PromotionStats,
)
from repro.replication.replica import ReplicaApplier
from repro.replication.shipper import LogShipper

__all__ = [
    "FailoverCoordinator",
    "HealStats",
    "LogShipper",
    "PromotionStats",
    "ReplicaApplier",
    "ShippedBatch",
    "corrupt_bytes",
    "decode_batch",
    "encode_batch",
]
