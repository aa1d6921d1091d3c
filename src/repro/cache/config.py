"""Configuration knobs for the query-reuse subsystem.

Caching is **off by default**: a :class:`MainMemoryDatabase` built
without a :class:`CacheConfig` behaves byte-for-byte like the un-cached
engine (same plans, same counters).  Benchmarks and applications opt in
via ``db.configure_cache(CacheConfig(...))`` or ``db.configure_cache()``
for the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheConfig:
    """Enable flags for the reuse caches.  Capacities are the
    ``AST_CAPACITY`` / ``PLAN_CAPACITY`` constants of
    :mod:`repro.cache.plan_cache` and ``RESULT_CAPACITY`` of
    :mod:`repro.cache.result_cache`."""

    #: Master switch for the parse/plan layer.
    enable_plans: bool = True
    #: Master switch for the result-reuse layer.
    enable_results: bool = True
