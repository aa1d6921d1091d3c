"""Configuration knobs for the observability subsystem.

Observability is **off by default**, preserving the paper's discipline of
compiling the counters out for the timed runs: a
:class:`~repro.engine.database.MainMemoryDatabase` that never calls
``configure_observability`` executes queries with zero tracing overhead
and identical operation counts.  Everything below is opt-in via
``db.configure_observability(ObservabilityConfig(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError

#: Wall-clock histogram buckets for query latency, in seconds.  Python
#: constant factors put even point lookups in the 10us-1ms range, so the
#: buckets sweep 100us .. 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Machine-independent histogram buckets for total operations per query
#: (comparisons + moves + hashes + traversals + allocations + events).
DEFAULT_OPS_BUCKETS: Tuple[float, ...] = (
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000,
    10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000,
)

#: Wall-clock buckets for one worker morsel, in seconds.  Morsels are
#: sized to roughly 10ms of predicate/probe work (see
#: ``DEFAULT_MORSEL_SIZE``), so the buckets sweep 250us .. 2.5s.
DEFAULT_WORKER_MORSEL_BUCKETS: Tuple[float, ...] = (
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


@dataclass
class ObservabilityConfig:
    """Enable flags for tracing, metrics, the slow log and the flight
    recorder.  Histogram buckets are the ``DEFAULT_*_BUCKETS`` above."""

    #: Build a span tree (parse -> plan -> per-operator execute) per query.
    tracing: bool = True
    #: Maintain the process-wide metrics registry.
    metrics: bool = True
    #: Total-ops threshold at or above which a statement lands in the
    #: slow-query log; ``None`` disables the ops trigger.
    slow_query_ops: Optional[int] = 10_000
    #: How many completed root spans (recent queries) the tracer retains.
    max_recent_spans: int = 32
    #: Keep a bounded ring of per-statement flight records plus
    #: per-fingerprint latency/ops histograms (requires ``metrics``).
    flight_recorder: bool = True

    def __post_init__(self) -> None:
        if self.slow_query_ops is not None and (
            not isinstance(self.slow_query_ops, int)
            or isinstance(self.slow_query_ops, bool)
            or self.slow_query_ops < 0
        ):
            raise ConfigError(
                f"slow_query_ops must be a non-negative integer or None, "
                f"got {self.slow_query_ops!r}"
            )
        if (
            not isinstance(self.max_recent_spans, int)
            or isinstance(self.max_recent_spans, bool)
            or self.max_recent_spans < 1
        ):
            raise ConfigError(
                f"max_recent_spans must be a positive integer, "
                f"got {self.max_recent_spans!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any layer is on."""
        return self.tracing or self.metrics
