"""Plan cache: skip lexing, parsing, and optimisation for repeat SQL.

Two LRU layers keyed on the statement key the SQL layer hands in (a
statement template's key plus its lifted literals, see
:mod:`repro.sql.template`):

* an **AST cache** (``plan_ast``) that skips the lexer and recursive-
  descent parser, and
* a **plan cache** (``plan``) that additionally skips the optimizer's
  access-path selection for the read core of a SELECT.

Cached plans carry the version of every relation in their dependency
closure; :meth:`PlanCache.plan_for` validates those versions on every
hit, so DDL (index create/drop, table drop) and mutations that could
change the optimizer's choice invalidate entries lazily in O(relations-
in-plan) without a catalog-wide sweep.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cache.fingerprint import dependency_versions, versions_current
from repro.cache.lru import LRUCache
from repro.errors import CatalogError, FingerprintError
from repro.obs import runtime as obs_runtime


#: LRU capacity of the statement key → parsed-AST layer.
AST_CAPACITY = 128
#: LRU capacity of the statement key → optimized-plan layer.
PLAN_CAPACITY = 128


class PlanCache:
    """Statement key → AST and statement key → optimized-plan caches."""

    def __init__(self) -> None:
        self.ast_cache = LRUCache(AST_CAPACITY, "plan_ast")
        self.plan_cache = LRUCache(PLAN_CAPACITY, "plan")

    # -- parsed-statement layer -------------------------------------------

    def statement_for(self, key: Any):
        """Cached parsed AST for a statement key, or None."""
        statement = self.ast_cache.get(key)
        obs_runtime.metric_inc(
            "cache_requests_total",
            layer="ast",
            outcome="miss" if statement is None else "hit",
        )
        return statement

    def store_statement(self, key: Any, statement) -> None:
        self.ast_cache.put(key, statement)

    # -- optimized-plan layer ---------------------------------------------

    def plan_for(self, key: Any, catalog) -> Optional[Any]:
        """Cached optimized plan for ``key`` if still valid, else None.

        A stale entry (any depended-on relation changed version, or was
        dropped) is discarded before reporting a miss.
        """
        entry = self.plan_cache.get(key)
        if entry is None:
            obs_runtime.metric_inc(
                "cache_requests_total", layer="plan", outcome="miss"
            )
            return None
        plan, versions = entry
        if not versions_current(catalog, versions):
            self.plan_cache.invalidate(key)
            obs_runtime.metric_inc(
                "cache_requests_total", layer="plan", outcome="stale"
            )
            return None
        obs_runtime.metric_inc(
            "cache_requests_total", layer="plan", outcome="hit"
        )
        return plan

    def store_plan(self, key: Any, plan, catalog) -> None:
        """Record an optimized plan with its dependency versions.

        Plans the fingerprinter cannot analyse (or whose relations have
        already been dropped) are silently left uncached.
        """
        try:
            versions = dependency_versions(catalog, plan)
        except (FingerprintError, CatalogError):
            return
        self.plan_cache.put(key, (plan, versions))

    # -- maintenance ------------------------------------------------------

    def clear(self) -> None:
        self.ast_cache.clear()
        self.plan_cache.clear()

    def stats(self) -> dict:
        return {
            "ast": self.ast_cache.stats(),
            "plan": self.plan_cache.stats(),
        }
