"""The process-wide active observability instance.

Instrumentation hooks throughout the engine (executor, join algorithms,
index probes, cache lookups, the log device) cannot reach a particular
:class:`~repro.engine.database.MainMemoryDatabase`; like the counter
stack in :mod:`repro.instrument`, the active observability handle is a
module-level slot.  ``db.configure_observability()`` activates; passing a
fully-disabled config (or a different database activating) replaces it.

The fast path is the whole point: when nothing is active every hook is
``runtime.active()`` (one global load) returning ``None``, and
:func:`span` hands back a shared no-op context manager — no allocation,
no counter activity, preserving the paper's compile-the-counters-out
discipline for timed runs.
"""

from __future__ import annotations

from typing import Any, Optional


class _NullSpanContext:
    """Reentrant no-op stand-in for a span context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpanContext()

#: The active Observability instance, or None (the default).
_active: Optional[Any] = None


def active() -> Optional[Any]:
    """The active :class:`~repro.obs.core.Observability`, or None."""
    return _active


def activate(observability: Any) -> Optional[Any]:
    """Install ``observability`` as the process-wide instance.

    Returns the previously active instance (or None) so callers that
    install a temporary instance — EXPLAIN ANALYZE with observability
    otherwise off — can restore it.
    """
    global _active
    previous = _active
    _active = observability
    return previous


def deactivate() -> None:
    """Clear the active instance (hooks return to no-ops)."""
    global _active
    _active = None


def span(name: str, kind: str = "phase", **attrs: Any):
    """A span context from the active tracer, or a shared no-op.

    Convenience for hooks that open one span and nothing else; hooks
    that also record metrics should call :func:`active` once and use the
    instance directly.
    """
    act = _active
    if act is None:
        return NULL_SPAN
    return act.span(name, kind, **attrs)


def metric_inc(name: str, amount: int = 1, **labels: Any) -> None:
    """Bump counter ``name`` on the active instance; a no-op when
    ``amount`` is 0 or nothing is active."""
    act = _active
    if amount and act is not None:
        act.metric_inc(name, amount, **labels)
