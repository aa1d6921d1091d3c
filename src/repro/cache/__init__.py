"""Multi-layer query reuse: plan cache, prepared statements' plan keys,
and a versioned result-reuse cache.

See DESIGN.md ("Query reuse subsystem") for the layer diagram and the
invalidation protocol.  Everything here is opt-in; the engine's default
behaviour is unchanged when no :class:`CacheConfig` is installed.
"""

from repro.cache.config import CacheConfig
from repro.cache.fingerprint import (
    FingerprintError,
    dependency_closure,
    dependency_versions,
    plan_fingerprint,
    plan_relations,
    versions_current,
)
from repro.cache.lru import LRUCache
from repro.cache.plan_cache import PlanCache
from repro.cache.result_cache import ResultCache

__all__ = [
    "CacheConfig",
    "FingerprintError",
    "LRUCache",
    "PlanCache",
    "ResultCache",
    "dependency_closure",
    "dependency_versions",
    "plan_fingerprint",
    "plan_relations",
    "versions_current",
]
