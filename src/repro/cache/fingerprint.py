"""Dependency sets and version checks for cached plans and results.

The result-reuse cache keys a cached :class:`TemporaryList` on the plan's
:meth:`~repro.query.plan.PlanNode.fingerprint`, a nested tuple that is
equal exactly when two plan trees would compute the same result over the
same relation versions.  Alongside it,
:meth:`~repro.query.plan.PlanNode.relations` names every relation a plan
reads, including foreign-key targets reached through rewritten
predicates.  Both are facts each node and predicate class states about
itself (:mod:`repro.query.plan`, :mod:`repro.query.predicates`); this
module closes the relation set over foreign keys and records and checks
the relations' versions, so a staleness check is O(relations-in-plan).

A plan holding a user-supplied predicate object, or a literal with no
canonical form, raises :class:`~repro.errors.FingerprintError`; callers
treat such plans as uncacheable and simply execute them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.errors import CatalogError


def dependency_closure(catalog, names: Iterable[str]) -> FrozenSet[str]:
    """``names`` plus every relation reachable through foreign keys.

    Plans and results can embed resolved tuple pointers into FK target
    relations (the paper's precomputed-join substitution), so a cached
    entry is stale whenever *any* relation in this closure changes.
    """
    closure = set()
    frontier = list(names)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        relation = catalog.relation(name)  # raises CatalogError if dropped
        for field in relation.schema.foreign_keys():
            if field.references.relation not in closure:
                frontier.append(field.references.relation)
    return frozenset(closure)


def dependency_versions(catalog, plan):
    """``{relation name: version}`` for a plan's full dependency closure."""
    closure = dependency_closure(catalog, plan.relations())
    return {name: catalog.relation(name).version for name in closure}


def versions_current(catalog, versions) -> bool:
    """Whether every recorded (name, version) pair still holds."""
    for name, version in versions.items():
        try:
            relation = catalog.relation(name)
        except CatalogError:
            return False
        if relation.version != version:
            return False
    return True
