"""The process-wide active fault injector.

Fault hooks live on hot-ish paths (disk reads, log appends, morsel
dispatch), so they follow the same zero-overhead contract as the
observability hooks in :mod:`repro.obs.runtime`: when no injector is
active every hook is ``runtime.active()`` — one module-global load —
returning ``None``, and execution proceeds untouched.  No allocation,
no RNG draw, no counter activity.  ``db.configure_faults()`` activates
an injector process-wide; configuring with nothing deactivates it.
"""

from __future__ import annotations

from typing import Any, Optional

#: The active FaultInjector, or None (the default).
_active: Optional[Any] = None


def active() -> Optional[Any]:
    """The active :class:`~repro.fault.injector.FaultInjector`, or None."""
    return _active


def activate(injector: Any) -> Optional[Any]:
    """Install ``injector`` process-wide; returns the previous one."""
    global _active
    previous = _active
    _active = injector
    return previous


def deactivate() -> None:
    """Clear the active injector (hooks return to no-ops)."""
    global _active
    _active = None


def fire(point: str, **context: Any) -> Optional[str]:
    """Fire a fault point against the active injector, if any.

    Convenience for hook sites that do nothing else with the injector;
    returns the triggered action (or None), and raises
    :class:`~repro.errors.InjectedFaultError` for ``error`` actions
    exactly as :meth:`FaultInjector.fire` does.
    """
    injector = _active
    if injector is None:
        return None
    return injector.fire(point, **context)
