"""Batch execution (the vectorized engine).

A second execution path over the *same* plan trees as
:class:`repro.query.executor.Executor`: every node materialises its
tuple-pointer rows once and each operator runs over its child's whole
row list as one batch.  Predicates are compiled once per operator into
eval-free closure chains that read each field they name once per item
per batch, through ``Relation.reader``'s column form.  The sort keys
and the keys of the non-hash join algorithms, which the reference
algorithms re-extract many times, go through a per-operator
dereference memo, so each such traversal is *performed* once per
operator while still being *counted* every time the paper's cost model
charges it.

The package is organised as:

* :mod:`~repro.query.vectorized.config` — :class:`ExecutionConfig`,
  selected through ``MainMemoryDatabase.configure_execution``;
* :mod:`~repro.query.vectorized.deref` — the raw field readers, the
  memoizing sort/join key extractor and the ``deref_saved_traversals``
  savings counter;
* :mod:`~repro.query.vectorized.compile` — predicate → batch-mask
  compiler with short-circuit cascades over item positions;
* :mod:`~repro.query.vectorized.kernels` — partitioned hash-join
  build/probe, hash duplicate elimination (SQL ``DISTINCT`` included)
  and key-cached sort kernels;
* :mod:`~repro.query.vectorized.engine` — :class:`BatchExecutor`, the
  drop-in :class:`~repro.query.executor.Executor` subclass.

The counter-equivalence contract (see DESIGN.md §3.8): for scan,
filter, index, sort, projection and every non-hash join path the batch
engine produces the *same* comparison / traversal / hash / move totals
as the tuple-at-a-time engine — differential tests assert it — while
the dereference cache's physical savings are reported separately under
``OpCounters.extra["deref_saved_traversals"]``.  Only hash equi-joins
and hash duplicate elimination swap in genuinely different (dict-based)
kernels, whose op counts are bounded above by the tuple engine's.
"""

from repro.query.vectorized.config import (
    DEFAULT_MORSEL_SIZE,
    ENGINES,
    POOL_MODES,
    ExecutionConfig,
)
from repro.query.vectorized.deref import (
    DEREF_SAVED_COUNTER,
    row_extractor,
)
from repro.query.vectorized.engine import BatchExecutor

__all__ = [
    "BatchExecutor",
    "DEFAULT_MORSEL_SIZE",
    "DEREF_SAVED_COUNTER",
    "ENGINES",
    "ExecutionConfig",
    "POOL_MODES",
    "row_extractor",
]
