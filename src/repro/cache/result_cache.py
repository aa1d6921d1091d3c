"""Result-reuse cache: memoized subtree and statement results.

Implements the reuse layer sketched in Dursun et al., "Revisiting Reuse
in Main Memory Database Systems": because every intermediate result in
the MM-DBMS design is a :class:`TemporaryList` of *tuple pointers* (not
copied data), a memoized subtree result stays truthful as long as the
underlying relations are unchanged — which the relation version counters
certify in O(relations-in-plan).

Two keyspaces share one LRU:

* ``("plan", fingerprint)`` — executor subtree results, hit from
  :meth:`Executor.execute` before dispatching a plan node; and
* ``("stmt", key)`` — final SELECT statement results (after projection,
  aggregation, ORDER BY, LIMIT), hit from the SQL interpreter.

Payloads are snapshotted on store and re-snapshotted on hit so callers
can never mutate a cached row list; each copy is charged to the ``moves``
counter (the reuse path's honest cost — still far below re-executing).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from repro.cache.fingerprint import (
    dependency_closure,
    dependency_versions,
    versions_current,
)
from repro.cache.lru import LRUCache
from repro.errors import CatalogError, FingerprintError
from repro.instrument import count_move
from repro.obs import runtime as obs_runtime
from repro.query.aggregate import ValueTable
from repro.storage.temporary import TemporaryList


def _snapshot(payload: Any) -> Any:
    """Defensive copy of a cacheable payload, charged as data movement."""
    if isinstance(payload, TemporaryList):
        rows = payload.rows()
        count_move(len(rows))
        return TemporaryList(payload.descriptor, list(rows))
    if isinstance(payload, ValueTable):
        rows = payload.rows()
        count_move(len(rows))
        return ValueTable(payload.columns, list(rows))
    return payload


#: LRU capacity shared by the subtree and statement keyspaces.
RESULT_CAPACITY = 64


class ResultCache:
    """Version-validated LRU of executor and statement results."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.cache = LRUCache(RESULT_CAPACITY, "result")

    # -- executor subtree layer -------------------------------------------

    def lookup_plan(self, plan) -> Optional[Any]:
        """Cached result for a plan subtree, or None (stale entries are
        discarded)."""
        try:
            key = ("plan", plan.fingerprint())
        except FingerprintError:
            return None
        return self._lookup(key)

    def store_plan(self, plan, result) -> None:
        try:
            key = ("plan", plan.fingerprint())
            versions = dependency_versions(self.catalog, plan)
        except (FingerprintError, CatalogError):
            return
        self.cache.put(key, (versions, _snapshot(result)))

    # -- statement layer ---------------------------------------------------

    def lookup_statement(self, key: Any) -> Optional[Any]:
        return self._lookup(("stmt", key))

    def store_statement(
        self, key: Any, result, dep_names: Iterable[str]
    ) -> None:
        """Record a final statement result depending on ``dep_names``
        (closed over foreign keys)."""
        try:
            closure = dependency_closure(self.catalog, dep_names)
            versions = {
                name: self.catalog.relation(name).version for name in closure
            }
        except CatalogError:
            return
        self.cache.put(("stmt", key), (versions, _snapshot(result)))

    # -- shared internals --------------------------------------------------

    def _lookup(self, key: Tuple) -> Optional[Any]:
        obs = obs_runtime.active()
        layer = key[0] if isinstance(key, tuple) else "result"
        with (
            obs_runtime.NULL_SPAN
            if obs is None
            else obs.span(f"ResultCache[{layer}]", "cache", layer=layer)
        ) as span:
            outcome, payload = self._lookup_inner(key)
            if span is not None:
                span.attrs["outcome"] = outcome
                if payload is not None:
                    span.rows_out = self._payload_rows(payload)
        if obs is not None:
            obs.metric_inc("cache_requests_total", layer="result", outcome=outcome)
        return payload

    def _lookup_inner(self, key: Tuple) -> Tuple[str, Optional[Any]]:
        entry = self.cache.get(key)
        if entry is None:
            return "miss", None
        versions, payload = entry
        if not versions_current(self.catalog, versions):
            self.cache.invalidate(key)
            return "stale", None
        return "hit", _snapshot(payload)

    @staticmethod
    def _payload_rows(payload: Any) -> Optional[int]:
        try:
            return len(payload)
        except TypeError:
            return None

    def clear(self) -> None:
        self.cache.clear()

    def stats(self) -> dict:
        return self.cache.stats()
