"""The tail-latency flight recorder: a bounded ring of per-statement
records plus per-fingerprint latency/ops profiles.

The slow-query log keeps outliers; the flight recorder keeps *shape*.
Every statement executed under an active :class:`~repro.obs.core.
Observability` (with ``config.flight_recorder``) appends one
:class:`FlightRecord` — SQL fingerprint, the engine/worker configuration
it ran under, wall-clock, total Section-3.1 ops, and which reuse layer
(if any) served it — to a ring of the most recent
``max_flight_records`` statements, and folds the measurement into a
per-fingerprint :class:`StatementProfile` whose fixed-bucket histograms
answer p50/p95/p99 queries (the measurement side of the forecast-vs.-
observed loop the ROADMAP's serving tier needs).

Fingerprints hash the statement's *template key* (the text with its
literals lifted out, see :mod:`repro.sql.template`), so ``Id = 17`` and
``Id = 18`` — and spacing differences — fold into one profile: a point
workload has a handful of profiles, not one per key.  The hash is short
and stable across processes and sessions.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.instrument import OpCounters
from repro.obs.config import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_OPS_BUCKETS,
)
from repro.obs.metrics import Histogram

#: ``extra``-counter prefixes of the reuse layers, checked in priority
#: order: a result-cache hit short-circuits the most work, a plan hit
#: skips optimization, an AST hit only the parse.
_CACHE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("result", "result_hits"),
    ("plan", "plan_hits"),
    ("ast", "plan_ast_hits"),
)


def statement_shape(sql: str) -> str:
    """The statement with its literals lifted out (its template key)."""
    from repro.sql.template import lift

    return lift(sql)[0]


def _digest(shape: str) -> str:
    return hashlib.sha1(shape.encode("utf-8")).hexdigest()[:8]


def fingerprint_sql(sql: str) -> str:
    """A short stable fingerprint for one statement shape."""
    return _digest(statement_shape(sql))


def cache_outcome(counters: OpCounters) -> str:
    """Which reuse layer served the statement: ``result`` | ``plan`` |
    ``ast`` | ``none`` (derived from the cache-hit extra counters the
    LRU layers charge organically, so detection costs nothing extra)."""
    extra = counters.extra
    for outcome, event in _CACHE_LAYERS:
        if extra.get(event, 0) > 0:
            return outcome
    return "none"


@dataclass(frozen=True)
class FlightRecord:
    """One statement execution, as retained by the ring."""

    fingerprint: str
    sql: str
    engine: str
    workers: int
    elapsed: float
    total_ops: int
    cache: str
    unix_time: float


class StatementProfile:
    """Aggregated measurements for one SQL fingerprint; ``sql`` is the
    statement shape the fingerprint hashes."""

    __slots__ = (
        "fingerprint", "sql", "calls", "total_seconds", "total_ops",
        "latency", "ops", "cache_outcomes",
    )

    def __init__(
        self,
        fingerprint: str,
        sql: str,
        latency_buckets: Sequence[float],
        ops_buckets: Sequence[float],
    ) -> None:
        self.fingerprint = fingerprint
        self.sql = sql
        self.calls = 0
        self.total_seconds = 0.0
        self.total_ops = 0
        self.latency = Histogram(latency_buckets)
        self.ops = Histogram(ops_buckets)
        self.cache_outcomes: Dict[str, int] = {}

    def observe(self, elapsed: float, total_ops: int, cache: str) -> None:
        self.calls += 1
        self.total_seconds += elapsed
        self.total_ops += total_ops
        self.latency.observe(elapsed)
        self.ops.observe(total_ops)
        self.cache_outcomes[cache] = self.cache_outcomes.get(cache, 0) + 1

    def latency_percentiles(self) -> Dict[str, Optional[float]]:
        """Estimated p50/p95/p99 statement latency (seconds)."""
        return self.latency.percentiles()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (for reports and ``db`` inspection)."""
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "total_ops": self.total_ops,
            "mean_ops": self.total_ops / self.calls if self.calls else 0,
            "latency_percentiles": self.latency_percentiles(),
            "cache_outcomes": dict(self.cache_outcomes),
        }


class FlightRecorder:
    """Bounded statement ring + per-fingerprint profiles.

    One instance per :class:`~repro.obs.core.Observability`; fed by
    ``record_query`` with the engine/worker context the owning database
    keeps current.  All bookkeeping is O(buckets) per statement with no
    unbounded growth: the ring is a ``deque(maxlen=...)`` and profiles
    hold fixed-bucket histograms (profiles themselves are keyed by
    fingerprint, bounded by the workload's count of statement shapes).
    """

    def __init__(
        self,
        capacity: int = 256,
        latency_buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        ops_buckets: Sequence[float] = DEFAULT_OPS_BUCKETS,
    ) -> None:
        self.records: deque = deque(maxlen=capacity)
        self.latency_buckets = tuple(latency_buckets)
        self.ops_buckets = tuple(ops_buckets)
        self._profiles: Dict[str, StatementProfile] = {}
        #: Workload-wide latency histogram (every statement, all shapes).
        self.overall_latency = Histogram(latency_buckets)

    def record(
        self,
        sql: str,
        elapsed: float,
        counters: OpCounters,
        engine: str = "tuple",
        workers: int = 1,
    ) -> FlightRecord:
        """Fold one finished statement in; returns the retained record."""
        shape = statement_shape(sql)
        fingerprint = _digest(shape)
        total_ops = counters.total()
        cache = cache_outcome(counters)
        record = FlightRecord(
            fingerprint=fingerprint,
            sql=sql,
            engine=engine,
            workers=workers,
            elapsed=elapsed,
            total_ops=total_ops,
            cache=cache,
            unix_time=time.time(),
        )
        self.records.append(record)
        profile = self._profiles.get(fingerprint)
        if profile is None:
            profile = StatementProfile(
                fingerprint, shape, self.latency_buckets, self.ops_buckets
            )
            self._profiles[fingerprint] = profile
        profile.observe(elapsed, total_ops, cache)
        self.overall_latency.observe(elapsed)
        return record

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def recent(self, n: Optional[int] = None) -> List[FlightRecord]:
        """The most recent ``n`` records (all when ``n`` is None),
        oldest first."""
        records = list(self.records)
        return records if n is None else records[-n:]

    def profile(self, sql: str) -> Optional[StatementProfile]:
        """The profile for one statement's fingerprint, or None."""
        return self._profiles.get(fingerprint_sql(sql))

    def profiles(self) -> List[StatementProfile]:
        """Every profile, hottest (most total wall-clock) first."""
        return sorted(
            self._profiles.values(),
            key=lambda p: (-p.total_seconds, p.fingerprint),
        )

    def tail_percentiles(self) -> Dict[str, Optional[float]]:
        """Workload-wide p50/p95/p99 statement latency (seconds)."""
        return self.overall_latency.percentiles()

    def clear(self) -> None:
        """Forget every record and profile."""
        self.records.clear()
        self._profiles.clear()
        self.overall_latency = Histogram(self.latency_buckets)
