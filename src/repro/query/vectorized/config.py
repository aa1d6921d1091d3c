"""Execution-engine selection.

``MainMemoryDatabase.configure_execution`` accepts either an
:class:`ExecutionConfig` or its keyword fields; the default
configuration keeps the tuple-at-a-time reference engine, so existing
behaviour is unchanged unless a caller opts in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Rows per parallel morsel.  Morsel decomposition depends only on the
#: input size and this setting — never on the worker count — which is
#: what makes the merged Section 3.1 counter totals identical for any
#: number of workers (DESIGN.md section 3.9).  At roughly 2 microseconds
#: of predicate/probe work per row, 4096 rows is ~8 ms of work per
#: dispatch, two orders of magnitude above the pool round-trip cost.
DEFAULT_MORSEL_SIZE = 4096

#: Recognised engine names.
ENGINES = ("tuple", "batch")

#: Recognised worker-pool modes.  ``process`` (the default) uses a
#: fork-based process pool, falling back to the in-process executor
#: where the platform cannot fork; ``inline`` always runs in-process
#: (the deterministic mode for tests and CI).
POOL_MODES = ("process", "inline")

#: Run attempts per morsel before it is quarantined to the inline
#: executor: the first run plus one retry.  Enough to absorb any single
#: transient worker failure without hiding a persistently failing
#: morsel behind a long retry storm.
DEFAULT_RETRY_ATTEMPTS = 2


@dataclass(frozen=True)
class ExecutionConfig:
    """Which executor evaluates plan trees, and how.

    ``engine`` — ``"tuple"`` (the reference tuple-at-a-time path) or
    ``"batch"`` (the vectorized path: compiled predicates, column
    reads, hash kernels over each node's whole row list).
    ``workers`` > 1 adds morsel-driven parallelism on top of the batch
    engine; ``workers=1`` (the default) is exactly the scalar batch
    engine — no pool is ever created.
    ``morsel_size`` sets the parallel work-unit size and the minimum
    input size worth parallelising; ``pool`` picks the worker-pool
    mode (see :data:`POOL_MODES`).

    ``retry_attempts`` bounds how many times one morsel may run before
    the scheduler quarantines it (first run included); a quarantined
    morsel re-executes inline once, and only if that also fails does the
    query die with :class:`~repro.errors.PoisonedMorselError`.
    Retries re-dispatch immediately.
    """

    engine: str = "tuple"
    workers: int = 1
    morsel_size: int = DEFAULT_MORSEL_SIZE
    pool: str = "process"
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown execution engine {self.engine!r}; "
                f"choose one of {ENGINES}"
            )
        if not isinstance(self.workers, int) or isinstance(
            self.workers, bool
        ) or self.workers < 1:
            raise ConfigError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.engine != "batch" and self.workers > 1:
            raise ConfigError(
                f"workers={self.workers} requires engine='batch' "
                f"(the tuple engine has no parallel path)"
            )
        if not isinstance(self.morsel_size, int) or isinstance(
            self.morsel_size, bool
        ) or self.morsel_size < 1:
            raise ConfigError(
                f"morsel_size must be a positive integer, "
                f"got {self.morsel_size!r}"
            )
        if self.pool not in POOL_MODES:
            raise ConfigError(
                f"unknown pool mode {self.pool!r}; "
                f"choose one of {POOL_MODES}"
            )
        if not isinstance(self.retry_attempts, int) or isinstance(
            self.retry_attempts, bool
        ) or self.retry_attempts < 1:
            raise ConfigError(
                f"retry_attempts must be a positive integer, "
                f"got {self.retry_attempts!r}"
            )
