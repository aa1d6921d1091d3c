"""The Observability facade: tracer + metrics registry + slow-query log.

One instance per ``db.configure_observability()`` call; the instance is
activated process-wide through :mod:`repro.obs.runtime` so that the
engine's instrumentation hooks (which have no database handle) can reach
it.  The facade owns:

* a :class:`~repro.obs.span.SpanTracer` (when ``config.tracing``),
* a :class:`~repro.obs.metrics.MetricsRegistry` (when ``config.metrics``)
  pre-wired with the standard query metrics,
* a bounded slow-query log triggered by a total-ops threshold (the
  machine-independent analogue of a latency-based slow log, in the same
  spirit as the paper's Section 3.1 operation-count validation), and
* a :class:`~repro.obs.recorder.FlightRecorder` (when
  ``config.flight_recorder`` with metrics on) retaining per-statement
  records and per-fingerprint p50/p95/p99 latency profiles.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro.instrument import OpCounters, counters_scope
from repro.obs.config import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_OPS_BUCKETS,
    ObservabilityConfig,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import NULL_SPAN
from repro.obs.span import Span, SpanTracer

#: Slow-query entries retained (oldest evicted first).
SLOW_LOG_CAPACITY = 128


@dataclass(frozen=True)
class SlowQueryEntry:
    """One statement at or above the slow-query ops threshold."""

    sql: str
    total_ops: int
    elapsed: float
    unix_time: float


class Observability:
    """Tracing, metrics, and the slow-query log behind one handle."""

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.tracer: Optional[SpanTracer] = (
            SpanTracer(self.config.max_recent_spans)
            if self.config.tracing
            else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.slow_queries: deque = deque(maxlen=SLOW_LOG_CAPACITY)
        from repro.obs.recorder import FlightRecorder

        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder()
            if self.config.flight_recorder and self.config.metrics
            else None
        )
        #: The engine/worker configuration statements run under, kept
        #: current by the owning database (``configure_execution``); the
        #: flight recorder stamps it into every record.
        self.context: dict = {"engine": "tuple", "workers": 1}

    # ------------------------------------------------------------------ #
    # span plumbing
    # ------------------------------------------------------------------ #

    def span(self, name: str, kind: str = "phase", **attrs: Any):
        """A tracer span context, or the shared no-op when tracing is off."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, kind, **attrs)

    @contextmanager
    def measure_query(self, sql: str) -> Iterator[Optional[Span]]:
        """Measure one statement end-to-end.

        With tracing on, the body runs inside the root ``query`` span and
        yields it; with tracing off (metrics only), a plain roll-up
        counter scope measures total ops and the body sees ``None``.
        Either way the statement is recorded into the metrics registry
        and, past the ops threshold, the slow-query log.
        """
        if self.tracer is not None:
            root: Optional[Span] = None
            try:
                with self.tracer.span("query", kind="query", sql=sql) as root:
                    yield root
            finally:
                if root is not None:
                    self.record_query(sql, root.elapsed, root.counters)
        else:
            counters = OpCounters()
            start = time.perf_counter()
            try:
                with counters_scope(counters, rollup=True):
                    yield None
            finally:
                self.record_query(
                    sql, time.perf_counter() - start, counters
                )

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record_query(
        self, sql: str, elapsed: float, counters: OpCounters
    ) -> None:
        """Fold one finished statement into metrics and the slow log."""
        total_ops = counters.total()
        if self.metrics is not None:
            self.metrics.counter(
                "queries_total", "Statements executed through the SQL layer"
            ).inc()
            self.metrics.histogram(
                "query_latency_seconds",
                DEFAULT_LATENCY_BUCKETS,
                "Wall-clock statement latency",
            ).observe(elapsed)
            self.metrics.histogram(
                "query_ops",
                DEFAULT_OPS_BUCKETS,
                "Machine-independent operations per statement",
            ).observe(total_ops)
        if self.recorder is not None:
            self.recorder.record(
                sql,
                elapsed,
                counters,
                engine=self.context.get("engine", "tuple"),
                workers=self.context.get("workers", 1),
            )
        threshold = self.config.slow_query_ops
        if threshold is not None and total_ops >= threshold:
            self.slow_queries.append(
                SlowQueryEntry(sql, total_ops, elapsed, time.time())
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "slow_queries_total",
                    "Statements at or above the slow-query ops threshold",
                ).inc()

    def metric_inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Bump a named counter, silently skipped when metrics are off."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def last_query_span(self) -> Optional[Span]:
        """Root span of the most recent traced query, or None."""
        return self.tracer.last() if self.tracer is not None else None

    def recent_spans(self) -> List[Span]:
        """Retained root spans, oldest first."""
        if self.tracer is None:
            return []
        return list(self.tracer.recent)

    def export_prometheus(self) -> str:
        """Prometheus text exposition of the registry ('' when off)."""
        return "" if self.metrics is None else self.metrics.export_prometheus()

    def export_jsonl(self) -> str:
        """JSON-lines exposition of the registry ('' when off)."""
        return "" if self.metrics is None else self.metrics.export_jsonl()
