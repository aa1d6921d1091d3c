"""Shared-memory morsel transport: packed pointer segments.

The paper's thesis is that in main memory the *processing* cost —
copying and moving tuples — dominates, which is why the engine passes
tuple pointers instead of materialized rows.  This module extends "pass
pointers, not data" across forks: a packed morsel (``(row_width, int64
bytes)``, see :mod:`~repro.query.parallel.transport`) is copied into a
named ``multiprocessing.shared_memory`` segment, and only a tiny
descriptor tuple — segment name, row width, byte count — crosses the
pipe.  The module has no row layout of its own: a segment holds
exactly the bytes the pickle carrier would have shipped.

Three kinds of traffic ride on segments (see DESIGN.md section 3.13):

* **dispatch** — the coordinator packs one operator's entire input
  once; each morsel payload carries an :func:`shm_slice` descriptor
  naming its ``[start, stop)`` row window into that segment;
* **results** — a worker whose packed output crosses the row threshold
  writes it into a fresh per-morsel segment and ships back a rows
  descriptor, transferring ownership (and the duty to unlink) to the
  coordinator;
* **broadcast** — the hash-probe build table is pickled once into a
  single segment that every worker attaches by name, instead of the
  blob riding inside every probe payload.

Writing and reading are pure transport: they charge no Section 3.1
counters, and the bytes read are the bytes written.

**Lifecycle.**  Every segment is created through the process-local
:class:`ShmArena`, which records ``(name, creating pid)`` and unlinks
whatever this process still owns at interpreter exit.  Forked children
inherit the parent's registry copy-on-write; every mutating arena
method first discards entries that belong to another pid, so a worker
can never unlink the coordinator's live segments (re-fork safety), and
worker-created result segments are explicitly *transferred*: created
invisible to the resource tracker and forgotten on send, so exactly
one process — the coordinator that reads them — unlinks each.  Reader
attaches are likewise tracker-silent (see :func:`_quiet_tracker`):
every segment produces at most one register/unregister pair, from the
process that owns its lifecycle.

Platforms without ``multiprocessing.shared_memory`` (or without a
usable ``/dev/shm``) report :func:`available` false and the engine
falls back — loudly and deterministically — to the pickle transport.
"""

from __future__ import annotations

import atexit
import itertools
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, List, Tuple

try:  # pragma: no cover - import success is the normal case
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

from repro.obs import runtime as obs_runtime
from repro.query.parallel.transport import slice_packed

#: Descriptor tags.  A descriptor is a plain tuple whose first element
#: is one of these markers — cheap to pickle, trivially distinguishable
#: from the packed morsels the pickle transport ships.
SLICE_TAG = "shm:slice"  # (tag, segment, row_width, start, stop)
ROWS_TAG = "shm:rows"  # (tag, segment, row_width, nbytes)
BLOB_TAG = "shm:blob"  # (tag, segment, nbytes)
REQUEST_TAG = "shm:req"  # (tag, result_threshold, inner_payload)

#: Minimum broadcast-blob size worth a segment: below one page the
#: fixed shm_open/mmap round-trip costs more than pickling the blob
#: into each payload would.
MIN_BLOB_BYTES = 4096


def available() -> bool:
    """Can this platform back the shm transport?"""
    return shared_memory is not None


# --------------------------------------------------------------------- #
# the arena: creation, tracking, unlink discipline
# --------------------------------------------------------------------- #

_seq = itertools.count(1)


def _segment_name() -> str:
    """A process-unique segment name (pid + monotonic counter)."""
    return f"repro-{os.getpid()}-{next(_seq)}"


@contextmanager
def _quiet_tracker():
    """Suppress resource-tracker messages for the enclosed block.

    CPython registers a segment with the resource tracker on *every*
    attach, not just on create, and forked processes share one tracker
    whose pipe interleaves messages from everyone.  If readers and
    transferred segments send their own register/unregister pairs,
    those race the creator's messages and the tracker logs KeyError
    tracebacks for perfectly balanced lifecycles.  The protocol here
    instead allows each segment at most one register (its tracked
    creator) and one unregister (the tracked unlink) — attaches and
    untracked creations/unlinks say nothing at all.
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
        #: name -> tracked?, for every created-but-not-yet-unlinked
        #: segment this process is responsible for.  ``tracked`` means
        #: the resource tracker holds a registration that the eventual
        #: unlink must balance with an unregister.
        self._owned: Dict[str, bool] = {}
        #: Cumulative creation tally (observability, not lifecycle).
        self.created_segments = 0
        self.created_bytes = 0

    def _disown_foreign(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # Forked child: the inherited registry names the parent's
            # segments.  Abandon them (the parent unlinks its own) and
            # adopt this pid.
            self._pid = pid
            self._owned = {}

    def _publish_gauge(self) -> None:
        obs = obs_runtime.active()
        if obs is not None and obs.metrics is not None:
            obs.metrics.gauge(
                "shm_segments_active",
                "Shared-memory segments this process has not unlinked",
            ).set(len(self._owned))

    def create(self, nbytes: int, tracked: bool = True):
        """A fresh named segment of at least ``nbytes`` bytes.

        ``tracked=False`` (segments about to be transferred to another
        process) creates the segment without a resource-tracker
        registration: the receiving coordinator unlinks it, and a
        registration here could only produce unbalanced tracker
        messages.  The cost is crash coverage — a worker hard-killed
        between creating and shipping such a segment leaks it until
        host cleanup (the same already-documented window as a
        timeout-abandoned result).
        """
        if shared_memory is None:  # pragma: no cover - gated by available()
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self._disown_foreign()
        name = _segment_name()
        size = max(1, nbytes)
        if tracked:
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        else:
            with _quiet_tracker():
                shm = shared_memory.SharedMemory(name=name, create=True,
                                                 size=size)
        self._owned[shm.name] = tracked
        self.created_segments += 1
        self.created_bytes += nbytes
        self._publish_gauge()
        return shm

    def transfer(self, shm) -> str:
        """Hand ``shm`` to another process: close and forget.

        Returns the segment name the new owner attaches (and later
        unlinks) by.  Used by workers shipping result segments to the
        coordinator; such segments are created untracked, so no
        resource-tracker bookkeeping needs undoing here.
        """
        self._disown_foreign()
        name = shm.name
        self._owned.pop(name, None)
        shm.close()
        self._publish_gauge()
        return name

    def unlink(self, name: str) -> None:
        """Unlink ``name`` (tolerating an already-gone segment)."""
        self._disown_foreign()
        tracked = self._owned.pop(name, False)
        self._publish_gauge()
        if shared_memory is None:  # pragma: no cover
            return
        try:
            with _quiet_tracker():
                seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        seg.close()
        try:
            if tracked:
                seg.unlink()
            else:
                # Not registered here (a reader reclaiming a transferred
                # segment, or an untracked creation): an unregister
                # would be unbalanced tracker chatter.
                with _quiet_tracker():
                    seg.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass

    def active_segments(self) -> int:
        """How many created segments this process has not yet unlinked."""
        self._disown_foreign()
        return len(self._owned)

    def active_names(self) -> List[str]:
        self._disown_foreign()
        return sorted(self._owned)

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


# --------------------------------------------------------------------- #
# writer helpers (descriptor constructors)
# --------------------------------------------------------------------- #


def _write(data: bytes, tracked: bool = True):
    """A fresh segment holding ``data``; reaped if the copy fails."""
    seg = _ARENA.create(len(data), tracked=tracked)
    try:
        seg.buf[:len(data)] = data
    except BaseException:
        name = seg.name
        seg.close()
        _ARENA.unlink(name)
        raise
    return seg


def write_rows(
    packed: Tuple[int, bytes], transfer: bool = False
) -> Tuple[Any, ...]:
    """Copy a packed morsel into a fresh segment; returns a descriptor.

    ``transfer=True`` (worker results) closes the local mapping and
    untracks the segment so the receiving coordinator owns the unlink.
    """
    row_width, data = packed
    seg = _write(data, tracked=not transfer)
    if transfer:
        name = _ARENA.transfer(seg)
    else:
        name = seg.name
        seg.close()
    return (ROWS_TAG, name, row_width, len(data))


def write_blob(blob: bytes) -> Tuple[Any, ...]:
    """Write an opaque byte blob into a segment (broadcast path)."""
    seg = _write(blob)
    name = seg.name
    seg.close()
    return (BLOB_TAG, name, len(blob))


def shm_slice(
    segment: str, row_width: int, start: int, stop: int
) -> Tuple[Any, ...]:
    """A dispatch descriptor: rows ``[start, stop)`` of ``segment``."""
    return (SLICE_TAG, segment, row_width, start, stop)


def is_slice(value: Any) -> bool:
    return (
        type(value) is tuple and len(value) == 5 and value[0] == SLICE_TAG
    )


def is_rows(value: Any) -> bool:
    return (
        type(value) is tuple and len(value) == 4 and value[0] == ROWS_TAG
    )


def is_blob(value: Any) -> bool:
    return (
        type(value) is tuple and len(value) == 3 and value[0] == BLOB_TAG
    )


# --------------------------------------------------------------------- #
# reader helpers
# --------------------------------------------------------------------- #


def attach(name: str):
    """Attach an existing segment by name (read side).

    Readers never own the unlink, so the attach is kept invisible to
    the resource tracker (see :func:`_quiet_tracker`): the creator's
    arena — or the coordinator a result was transferred to — handles
    lifecycle.
    """
    if shared_memory is None:  # pragma: no cover - gated by available()
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    with _quiet_tracker():
        return shared_memory.SharedMemory(name=name)


def read_slice(descriptor: Tuple[Any, ...], segment) -> Tuple[int, bytes]:
    """The packed morsel a slice descriptor names in ``segment``."""
    __, __, row_width, start, stop = descriptor
    width, window = slice_packed((row_width, segment.buf), start, stop)
    return (width, bytes(window))


def read_rows(
    descriptor: Tuple[Any, ...], unlink: bool = True
) -> Tuple[int, bytes]:
    """The packed morsel in a rows segment (by default reclaiming it)."""
    __, name, row_width, nbytes = descriptor
    seg = attach(name)
    try:
        packed = (row_width, bytes(seg.buf[:nbytes]))
    finally:
        seg.close()
    if unlink:
        _ARENA.unlink(name)
    return packed


def read_blob(descriptor: Tuple[Any, ...]) -> bytes:
    """The broadcast blob bytes a blob descriptor names."""
    __, name, nbytes = descriptor
    seg = attach(name)
    try:
        return bytes(seg.buf[:nbytes])
    finally:
        seg.close()


# --------------------------------------------------------------------- #
# the worker-side attach cache
# --------------------------------------------------------------------- #


class SegmentCache:
    """A bounded LRU of attached segments, worker-process-local.

    Dispatch slices of one operator all name the same segment; caching
    the attachment keeps it one ``shm_open``+``mmap`` per worker per
    operator instead of per morsel.  Evicted attachments are closed;
    segment names are never reused (pid + monotonic counter), so a
    stale entry can never alias a new segment.  Forked children drop
    inherited entries without closing them — the mappings belong to the
    parent's accounting, and abandoning them is always safe.
    """

    def __init__(self, limit: int = 8) -> None:
        self.limit = int(limit)
        self._pid = os.getpid()
        self._segments: "OrderedDict[str, Any]" = OrderedDict()
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._segments = OrderedDict()

    def get(self, name: str):
        """Attach-or-reuse ``name``; LRU order refreshed on hit."""
        self._own()
        seg = self._segments.get(name)
        if seg is not None:
            self.hits += 1
            self._segments.move_to_end(name)
            return seg
        self.misses += 1
        seg = attach(name)
        self._segments[name] = seg
        while len(self._segments) > self.limit:
            __, evicted = self._segments.popitem(last=False)
            self.evictions += 1
            try:
                evicted.close()
            except BufferError:  # pragma: no cover - exported views
                pass
        return seg

    def clear(self) -> None:
        self._own()
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover
                pass
        self._segments = OrderedDict()

    def stats(self) -> Dict[str, int]:
        self._own()
        return {
            "attached": len(self._segments),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
