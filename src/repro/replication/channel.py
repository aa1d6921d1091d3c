"""Replication channels: how requests reach the replica applier.

Two channel shapes implement one request contract —
``request(op, payload) -> result``:

* :class:`InlineChannel` holds the applier in-process, the same way
  :class:`~repro.recovery.disk.SimulatedDisk` models the disk: fully
  deterministic, fork-free, and the default.  With the ``shm``
  transport it still routes large apply payloads through a real
  shared-memory segment round-trip, so the blob path is exercised even
  inline.
* :class:`ProcessChannel` forks a worker process that owns the applier
  and serves requests over a pipe — a genuinely separate address space,
  the shape a real warm standby has.  A dead or wedged worker surfaces
  as :class:`~repro.errors.ReplicaUnavailableError`.

Channels are pure transport: no fault point fires here.  All seeded
fault decisions (``repl.ship``, ``repl.apply``) are drawn parent-side
in the :class:`~repro.replication.shipper.LogShipper`, keeping the
injector's RNG stream in one process — the same discipline the morsel
scheduler uses for ``pool.worker``.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict

from repro.errors import ReplicationError, ReplicaUnavailableError
from repro.query.parallel import shm
from repro.replication.replica import ReplicaApplier


def process_channel_available() -> bool:
    """Process channels need the fork start method (worker inherits code)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _maybe_via_shm(payload: Any, use_shm: bool, stats: Dict[str, int]) -> Any:
    """Route a large bytes payload through a shared-memory segment.

    Returns either the original payload or a blob descriptor; the
    caller is responsible for unlinking the segment after the request
    completes (the descriptor's name is element 1).
    """
    if (
        use_shm
        and isinstance(payload, bytes)
        and len(payload) >= shm.MIN_BLOB_BYTES
        and shm.available()
    ):
        descriptor = shm.write_blob(payload)
        stats["shipped_via_shm"] = stats.get("shipped_via_shm", 0) + 1
        return descriptor
    return payload


def _resolve_payload(payload: Any) -> Any:
    """Blob descriptors decode back to bytes on the replica side."""
    if shm.is_blob(payload):
        return shm.read_blob(payload)
    return payload


class InlineChannel:
    """The applier lives in this process; requests are direct calls."""

    def __init__(
        self, applier: ReplicaApplier, use_shm: bool = False
    ) -> None:
        self.applier = applier
        self.use_shm = use_shm
        self.stats: Dict[str, int] = {"requests": 0}
        self.closed = False

    def request(self, op: str, payload: Any = None) -> Any:
        if self.closed:
            raise ReplicaUnavailableError(
                "replication channel is closed"
            )
        self.stats["requests"] += 1
        wire = payload
        if op == "apply":
            wire = _maybe_via_shm(payload, self.use_shm, self.stats)
        try:
            return self.applier.handle(op, _resolve_payload(wire))
        finally:
            if shm.is_blob(wire):
                shm.arena().unlink(wire[1])

    def close(self) -> None:
        self.closed = True


def _replica_main(conn, bootstrap: Dict[str, Any]) -> None:
    """The forked replica process: serve requests until ``stop``."""
    applier = ReplicaApplier.from_bootstrap(bootstrap)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        if op == "stop":
            conn.send(("ok", True))
            break
        try:
            result = applier.handle(op, _resolve_payload(payload))
            conn.send(("ok", result))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send(("error", exc))
            except Exception:  # pragma: no cover - unpicklable error
                conn.send(
                    ("error", ReplicationError(f"replica failure: {exc!r}"))
                )
    conn.close()


class ProcessChannel:
    """The applier lives in a forked worker; requests cross a pipe."""

    def __init__(
        self, bootstrap: Dict[str, Any], use_shm: bool = False
    ) -> None:
        if not process_channel_available():
            raise ReplicationError(
                "process replication channel needs the fork start method; "
                "use channel='inline' on this platform"
            )
        self.use_shm = use_shm
        self.stats: Dict[str, int] = {"requests": 0}
        self.closed = False
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_replica_main,
            args=(child_conn, bootstrap),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def request(self, op: str, payload: Any = None) -> Any:
        if self.closed or not self._proc.is_alive():
            raise ReplicaUnavailableError(
                "replica process is not running"
            )
        self.stats["requests"] += 1
        wire = payload
        if op == "apply":
            wire = _maybe_via_shm(payload, self.use_shm, self.stats)
        try:
            self._conn.send((op, wire))
            status, result = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ReplicaUnavailableError(
                f"replica process dropped the channel: {exc!r}"
            ) from exc
        finally:
            if shm.is_blob(wire):
                shm.arena().unlink(wire[1])
        if status == "error":
            raise result
        return result

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._conn.send(("stop", None))
            self._conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            pass
        self._conn.close()
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():  # pragma: no cover - wedged replica
            self._proc.terminate()
            self._proc.join(timeout=5.0)
