"""Batch execution (the vectorized engine).

A second execution path over the *same* plan trees as
:class:`repro.query.executor.Executor`: every node materialises its
tuple-pointer rows once and each operator runs over its child's whole
row list as one batch.  Predicates are compiled once per operator into
eval-free closure chains that read each field they name once per item
per batch, through ``Relation.reader``'s column form.  The sort keys
and the keys of the non-hash join algorithms, which the reference
algorithms re-extract many times, are read once per operator input as
a column; the algorithms run over row positions and still *count*
every traversal the paper's cost model charges.

The package is organised as:

* :mod:`~repro.query.vectorized.config` — :class:`ExecutionConfig`,
  selected through ``MainMemoryDatabase.configure_execution``;
* :mod:`~repro.query.vectorized.deref` — the raw field readers and the
  one key-column reader, ``batch_key``;
* :mod:`~repro.query.vectorized.compile` — predicate → batch-mask
  compiler with short-circuit cascades over item positions;
* :mod:`~repro.query.vectorized.kernels` — the single-dict hash-join
  build/probe (shared with the morsel workers) and hash duplicate
  elimination (SQL ``DISTINCT`` included);
* :mod:`~repro.query.vectorized.engine` — :class:`BatchExecutor`, the
  drop-in :class:`~repro.query.executor.Executor` subclass.

The counter-equivalence contract (see DESIGN.md §3.8): for scan,
filter, index, sort, projection and every non-hash join path the batch
engine produces the *same* comparison / traversal / hash / move /
allocation totals as the tuple-at-a-time engine — differential tests
assert it.  Only hash equi-joins and hash duplicate elimination swap in
genuinely different (dict-based) kernels, whose op counts are bounded
above by the tuple engine's.
"""

from repro.query.vectorized.config import (
    DEFAULT_MORSEL_SIZE,
    ENGINES,
    POOL_MODES,
    ExecutionConfig,
)
from repro.query.vectorized.engine import BatchExecutor

__all__ = [
    "BatchExecutor",
    "DEFAULT_MORSEL_SIZE",
    "ENGINES",
    "ExecutionConfig",
    "POOL_MODES",
]
