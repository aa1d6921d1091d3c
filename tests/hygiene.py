"""Leak check for the suites that fork workers or create shared-memory
segments; ``tests/query`` and ``tests/replication`` import it into
their ``conftest.py``, which makes it autouse there."""

from __future__ import annotations

import gc
import os

import pytest

from repro.query.parallel import MorselScheduler, shm, tasks


def _dev_shm_segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(autouse=True)
def no_leaks():
    """After every test: no new ``repro-*`` segment in ``/dev/shm``,
    nothing left in this process's shm arena, and no catalog token
    still registered by a scheduler that was closed (its database
    reconfigured) or collected."""
    segments = _dev_shm_segments()
    tokens = set(tasks._CATALOGS)
    yield
    assert _dev_shm_segments() <= segments
    assert shm.arena().active_segments() == 0
    if set(tasks._CATALOGS) - tokens:
        gc.collect()
        open_tokens = {
            obj.token
            for obj in gc.get_objects()
            if type(obj) is MorselScheduler and not obj._closed
        }
        assert set(tasks._CATALOGS) - tokens <= open_tokens
