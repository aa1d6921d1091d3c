"""Morsel-driven parallel execution (DESIGN.md section 3.9).

Splits the batch engine's hot operators into partition-aligned morsels
and fans them out to a fork-based process pool (with a deterministic
in-process fallback), merging per-worker Section 3.1 counter scopes so
that totals are identical regardless of worker count:

* :mod:`~repro.query.parallel.transport` — wire encoding (packed
  int64 pointer morsels, descriptor specs, plain-predicate checks,
  morsel bounds);
* :mod:`~repro.query.parallel.shm` — the shared-memory carrier for
  those same packed morsels: the :class:`~repro.query.parallel.shm.
  ShmArena` lifecycle registry and the worker-side segment cache
  behind ``configure_execution(transport="shm")``;
* :mod:`~repro.query.parallel.tasks` — worker-side task functions over
  the forked catalog snapshot;
* :mod:`~repro.query.parallel.scheduler` —
  :class:`MorselScheduler`: pool lifecycle, fingerprint-based refork,
  ordered dispatch;
* :mod:`~repro.query.parallel.engine` —
  :class:`ParallelBatchExecutor`, the ``workers > 1`` executor behind
  ``db.configure_execution(engine="batch", workers=N)``;
* :mod:`~repro.query.parallel.build` — two-phase parallel index build
  behind ``Relation.create_index(..., parallel=True)``;
* :mod:`~repro.query.parallel.runtime` — the process-wide scheduler
  slot the storage layer reaches the pool through.
"""

from repro.query.parallel.engine import ParallelBatchExecutor
from repro.query.parallel.scheduler import MorselScheduler, fork_available

__all__ = [
    "MorselScheduler",
    "ParallelBatchExecutor",
    "fork_available",
]
