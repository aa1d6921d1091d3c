"""Shared-memory byte carrier: tracked named segments.

A byte blob is copied into a named ``multiprocessing.shared_memory``
segment and only a tiny descriptor tuple — segment name and byte
count — crosses a pipe.  :func:`write_rows` / :func:`read_rows` carry
a packed morsel (``(row_width, int64 bytes)``, see
:mod:`~repro.query.parallel.transport`) the same way.  No engine path
calls this module; it stays only because the end-to-end tracer
(``benchmarks/e2e/trace.py``) wraps ``write_rows``, ``read_rows`` and
``write_blob`` by name.

Writing and reading are pure transport: they charge no Section 3.1
counters, and the bytes read are the bytes written.

**Lifecycle.**  Every segment is created through the process-local
:class:`ShmArena`, which records its name and unlinks whatever this
process still owns at interpreter exit.  Forked children inherit the
parent's registry copy-on-write; every arena method first discards the
registry when it belongs to another pid, so a child can never unlink
the parent's live segments.  Reader attaches are tracker-silent (see
:func:`_quiet_tracker`): every segment produces exactly one
register/unregister pair, from the process that created it.

Platforms without ``multiprocessing.shared_memory`` report
:func:`available` false and callers keep their bytes on the pipe.
"""

from __future__ import annotations

import atexit
import itertools
import os
from contextlib import contextmanager
from typing import Any, Set, Tuple

try:  # pragma: no cover - import success is the normal case
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: Descriptor tag: ``(BLOB_TAG, segment, nbytes)``.  A plain tuple —
#: cheap to pickle, trivially distinguishable from a bytes payload.
BLOB_TAG = "shm:blob"

#: Minimum blob size worth a segment: below one page the fixed
#: shm_open/mmap round-trip costs more than pickling the bytes would.
MIN_BLOB_BYTES = 4096


def available() -> bool:
    """Can this platform back shared-memory segments?"""
    return shared_memory is not None


_seq = itertools.count(1)


@contextmanager
def _quiet_tracker():
    """Suppress resource-tracker messages for the enclosed block.

    CPython registers a segment with the resource tracker on *every*
    attach, not just on create, and forked processes share one tracker
    whose pipe interleaves messages from everyone.  If readers sent
    their own register/unregister pairs, those would race the creator's
    messages and the tracker would log KeyError tracebacks for
    perfectly balanced lifecycles.  Only the creator's create and
    unlink talk to the tracker.
    """
    if resource_tracker is None:  # pragma: no cover - platform-dependent
        yield
        return
    register = resource_tracker.register
    unregister = resource_tracker.unregister
    resource_tracker.register = lambda *args, **kwargs: None
    resource_tracker.unregister = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = register
        resource_tracker.unregister = unregister


class ShmArena:
    """Tracks the segments this process created and still owns.

    One arena per process (see :func:`arena`); forked children inherit
    the parent's instance copy-on-write and disown its entries on first
    touch — a child must never unlink the parent's live segments.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._owned: Set[str] = set()

    def _disown_foreign(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # Forked child: the inherited registry names the parent's
            # segments.  Abandon them (the parent unlinks its own) and
            # adopt this pid.
            self._pid = pid
            self._owned = set()

    def create(self, nbytes: int):
        """A fresh named segment of at least ``nbytes`` bytes."""
        if shared_memory is None:  # pragma: no cover - gated by available()
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self._disown_foreign()
        seg = shared_memory.SharedMemory(
            name=f"repro-{os.getpid()}-{next(_seq)}",
            create=True,
            size=max(1, nbytes),
        )
        self._owned.add(seg.name)
        return seg

    def unlink(self, name: str) -> None:
        """Unlink ``name`` (tolerating an already-gone segment)."""
        self._disown_foreign()
        owned = name in self._owned
        self._owned.discard(name)
        if shared_memory is None:  # pragma: no cover
            return
        try:
            with _quiet_tracker():
                seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        seg.close()
        try:
            if owned:
                seg.unlink()
            else:
                # Not registered by this process: an unregister would
                # be unbalanced tracker chatter.
                with _quiet_tracker():
                    seg.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass

    def active_segments(self) -> int:
        """How many created segments this process has not yet unlinked."""
        self._disown_foreign()
        return len(self._owned)

    def drain(self) -> int:
        """Unlink everything still owned; returns how many (atexit)."""
        self._disown_foreign()
        names = list(self._owned)
        for name in names:
            self.unlink(name)
        return len(names)


_ARENA = ShmArena()


def arena() -> ShmArena:
    """The process-local arena."""
    return _ARENA


@atexit.register
def _drain_at_exit() -> None:  # pragma: no cover - interpreter shutdown
    try:
        _ARENA.drain()
    except Exception:
        pass


def attach(name: str):
    """Attach an existing segment by name (read side).

    Readers never own the unlink, so the attach is kept invisible to
    the resource tracker (see :func:`_quiet_tracker`).
    """
    if shared_memory is None:  # pragma: no cover - gated by available()
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    with _quiet_tracker():
        return shared_memory.SharedMemory(name=name)


def write_blob(blob: bytes) -> Tuple[Any, ...]:
    """Copy ``blob`` into a fresh arena-owned segment; returns a descriptor.

    The caller unlinks the segment (``arena().unlink(descriptor[1])``)
    once every reader is done with it.
    """
    seg = _ARENA.create(len(blob))
    try:
        seg.buf[:len(blob)] = blob
    except BaseException:
        seg.close()
        _ARENA.unlink(seg.name)
        raise
    seg.close()
    return (BLOB_TAG, seg.name, len(blob))


def read_blob(descriptor: Tuple[Any, ...]) -> bytes:
    """The bytes a blob descriptor names."""
    __, name, nbytes = descriptor
    seg = attach(name)
    try:
        return bytes(seg.buf[:nbytes])
    finally:
        seg.close()


def is_blob(value: Any) -> bool:
    return (
        type(value) is tuple and len(value) == 3 and value[0] == BLOB_TAG
    )


def write_rows(packed: Tuple[int, bytes]) -> Tuple[Any, ...]:
    """A packed morsel in a segment: ``(row_width, blob descriptor)``."""
    row_width, data = packed
    return (row_width, write_blob(data))


def read_rows(descriptor: Tuple[Any, ...]) -> Tuple[int, bytes]:
    """The packed morsel :func:`write_rows` stored; reclaims its segment."""
    row_width, blob = descriptor
    try:
        return (row_width, read_blob(blob))
    finally:
        _ARENA.unlink(blob[1])
