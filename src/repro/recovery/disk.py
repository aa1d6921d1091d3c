"""The simulated disk copy of the database.

The paper's MM-DBMS keeps a full copy of the database on disk (Figure 2);
partitions — "on the order of one or two disk tracks" — are the unit of
both recovery and disk I/O.  This module simulates that disk as a mapping
from (relation, partition id) to a serialized partition image, counting
reads and writes so the recovery benchmarks can report I/O in the paper's
own unit.

Every stored image is CRC32-framed (:mod:`repro.recovery.framing`), so
torn writes and corruption surface as typed
:class:`~repro.errors.TornWriteError` /
:class:`~repro.errors.CorruptImageError` at the read boundary instead of
unpickling crashes deep inside restart.  The ``disk.read`` and
``disk.write`` fault points inject exactly those failure modes on
demand; byte accounting stays in *payload* bytes, so framing changes no
benchmark numbers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.errors import RecoveryError
from repro.fault import runtime as fault_runtime
from repro.obs import runtime as obs_runtime
from repro.recovery.framing import HEADER_SIZE, frame, unframe

PartitionKey = Tuple[str, int]


class SimulatedDisk:
    """A block store of checksum-framed partition images with I/O
    accounting."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._images: Dict[PartitionKey, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def write_partition(
        self, relation: str, partition_id: int, image: bytes
    ) -> None:
        """Store (overwrite) one partition image.

        The image is framed with its length and CRC32.  The
        ``disk.write`` fault point can tear the write (persist only a
        prefix of the frame) or corrupt it (flip one payload byte) —
        both silently, discovered at the next read, exactly like the
        real failure modes they simulate.
        """
        framed = frame(image)
        injector = fault_runtime.active()
        if injector is not None:
            action = injector.fire(
                "disk.write", relation=relation, partition=partition_id
            )
            if action == "torn":
                # Keep the header plus half the payload: long enough to
                # parse the declared length, short enough to be torn.
                framed = framed[: HEADER_SIZE + max(0, len(image) // 2)]
            elif action == "corrupt":
                corrupt = bytearray(framed)
                corrupt[-1] ^= 0xFF
                framed = bytes(corrupt)
        with self._mutex:
            self._images[(relation, partition_id)] = framed
            self.writes += 1
            self.bytes_written += len(image)

    def read_partition(self, relation: str, partition_id: int) -> bytes:
        """Fetch one partition image; raises if absent or damaged.

        Integrity failures raise the typed frame errors.  The
        ``disk.read`` fault point's ``corrupt`` action flips a byte in
        the *returned copy only* — a transient read fault (bad DMA, bit
        flip on the bus) that a retry of the read heals.
        """
        with self._mutex:
            try:
                framed = self._images[(relation, partition_id)]
            except KeyError:
                raise RecoveryError(
                    f"disk copy has no image for {relation}[{partition_id}]"
                ) from None
            self.reads += 1
        injector = fault_runtime.active()
        if injector is not None:
            action = injector.fire(
                "disk.read", relation=relation, partition=partition_id
            )
            if action == "corrupt" and len(framed) > HEADER_SIZE:
                transient = bytearray(framed)
                transient[-1] ^= 0xFF
                framed = bytes(transient)
        context = f"{relation}[{partition_id}]"
        try:
            image = unframe(framed, context)
        except RecoveryError as exc:
            obs_runtime.metric_inc(
                "checksum_failures_total",
                device="disk",
                kind=type(exc).__name__,
            )
            raise
        with self._mutex:
            self.bytes_read += len(image)
        return image

    def has_partition(self, relation: str, partition_id: int) -> bool:
        """Whether an image exists for the partition."""
        with self._mutex:
            return (relation, partition_id) in self._images

    def delete_partition(self, relation: str, partition_id: int) -> None:
        """Drop one image (relation drop)."""
        with self._mutex:
            self._images.pop((relation, partition_id), None)

    def partition_keys(self) -> List[PartitionKey]:
        """All stored (relation, partition id) keys."""
        with self._mutex:
            return list(self._images)

    def total_bytes(self) -> int:
        """Total payload size of the disk copy (frame headers excluded)."""
        with self._mutex:
            return sum(
                max(0, len(img) - HEADER_SIZE)
                for img in self._images.values()
            )

    def damage_partition(
        self, relation: str, partition_id: int, mode: str = "corrupt"
    ) -> None:
        """Damage one *stored* image in place (test/chaos helper).

        ``mode="corrupt"`` flips a payload byte; ``mode="torn"``
        truncates the frame mid-payload.  Unlike the ``disk.read``
        transient fault, this damage persists until the partition is
        rewritten — the shape of real media decay.
        """
        with self._mutex:
            key = (relation, partition_id)
            try:
                framed = self._images[key]
            except KeyError:
                raise RecoveryError(
                    f"disk copy has no image for {relation}[{partition_id}]"
                ) from None
            if mode == "torn":
                self._images[key] = framed[
                    : HEADER_SIZE + max(0, (len(framed) - HEADER_SIZE) // 2)
                ]
            else:
                damaged = bytearray(framed)
                damaged[-1] ^= 0xFF
                self._images[key] = bytes(damaged)

    def reset_counters(self) -> None:
        """Zero the I/O counters (benchmark hygiene)."""
        with self._mutex:
            self.reads = 0
            self.writes = 0
            self.bytes_read = 0
            self.bytes_written = 0
