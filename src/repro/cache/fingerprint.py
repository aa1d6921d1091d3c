"""Canonical plan fingerprints and dependency extraction.

The result-reuse cache keys cached :class:`TemporaryList`\\ s on a
*canonical plan fingerprint*: a nested tuple that is equal exactly when
two plan trees would compute the same result over the same relation
versions.  Alongside the fingerprint, :func:`plan_relations` names every
relation a plan reads — including foreign-key targets reached through
rewritten predicates — so staleness checks are O(relations-in-plan).

Plans containing user-supplied predicate objects the fingerprinter does
not understand raise :class:`FingerprintError`; callers treat such plans
as uncacheable and simply execute them.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Tuple

from repro.errors import CatalogError
from repro.query.plan import (
    FilterNode,
    IndexLookupNode,
    IndexMultiLookupNode,
    IndexRangeNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from repro.query.predicates import Comparison, Conjunction, Disjunction, Predicate
from repro.storage.tuples import TupleRef

#: Attribute used to memoize a node's fingerprint (plans are never mutated
#: after construction, so the memo cannot go stale).
_FP_ATTR = "_repro_fingerprint"
_DEPS_ATTR = "_repro_dependencies"


class FingerprintError(Exception):
    """The plan contains a node or value the fingerprinter cannot
    canonicalise; the plan is executable but not cacheable."""


def _value_fingerprint(value: Any) -> Any:
    """Canonical, hashable form of a literal embedded in a plan."""
    # A pointer is an ``int`` subclass: tested first, so the pointer to
    # slot 5 of partition 0 never shares a cache entry with the INT 5.
    if isinstance(value, TupleRef):
        return ("ref", value >> 32, value & 0xFFFFFFFF)
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, tuple):
        return tuple(_value_fingerprint(v) for v in value)
    raise FingerprintError(f"uncacheable literal {value!r}")


def _predicate_fingerprint(predicate: Predicate) -> Tuple:
    if isinstance(predicate, Comparison):
        return (
            "cmp",
            predicate.field,
            predicate.op.value,
            _value_fingerprint(predicate.value),
            _value_fingerprint(predicate.high),
        )
    if isinstance(predicate, Conjunction):
        return ("and",) + tuple(
            _predicate_fingerprint(p) for p in predicate.parts
        )
    if isinstance(predicate, Disjunction):
        return ("or",) + tuple(
            _predicate_fingerprint(p) for p in predicate.parts
        )
    # Engine-internal predicate classes (imported lazily: the engine
    # module imports this package at load time).
    from repro.engine.database import _FKValueComparison, _NeverMatches

    if isinstance(predicate, _NeverMatches):
        return ("never", predicate.field_name)
    if isinstance(predicate, _FKValueComparison):
        return (
            "fk",
            _predicate_fingerprint(predicate.comparison),
            predicate.target.name,
            predicate.key_field,
        )
    raise FingerprintError(
        f"uncacheable predicate {type(predicate).__name__}"
    )


def _predicate_relations(predicate: Predicate) -> FrozenSet[str]:
    """Relations a predicate reads *in addition to* its host relation."""
    if isinstance(predicate, (Conjunction, Disjunction)):
        deps: FrozenSet[str] = frozenset()
        for part in predicate.parts:
            deps |= _predicate_relations(part)
        return deps
    from repro.engine.database import _FKValueComparison

    if isinstance(predicate, _FKValueComparison):
        return frozenset((predicate.target.name,))
    return frozenset()


def plan_fingerprint(plan: PlanNode) -> Tuple:
    """Canonical nested-tuple fingerprint of a plan tree (memoized)."""
    cached = getattr(plan, _FP_ATTR, None)
    if cached is not None:
        return cached
    if isinstance(plan, ScanNode):
        pred = (
            None if plan.predicate is None
            else _predicate_fingerprint(plan.predicate)
        )
        fp: Tuple = ("scan", plan.relation_name, pred)
    elif isinstance(plan, IndexLookupNode):
        fp = (
            "lookup",
            plan.relation_name,
            plan.field_name,
            plan.prefer,
            _value_fingerprint(plan.key),
        )
    elif isinstance(plan, IndexMultiLookupNode):
        fp = (
            "multilookup",
            plan.relation_name,
            plan.field_name,
            plan.prefer,
            _value_fingerprint(plan.keys),
        )
    elif isinstance(plan, IndexRangeNode):
        fp = (
            "range",
            plan.relation_name,
            plan.field_name,
            _value_fingerprint(plan.low),
            _value_fingerprint(plan.high),
            plan.include_low,
            plan.include_high,
        )
    elif isinstance(plan, FilterNode):
        fp = (
            "filter",
            plan_fingerprint(plan.child),
            _predicate_fingerprint(plan.predicate),
        )
    elif isinstance(plan, JoinNode):
        fp = (
            "join",
            plan.method,
            plan.op,
            plan.left_col,
            plan.right_col,
            plan_fingerprint(plan.left),
            plan_fingerprint(plan.right),
        )
    elif isinstance(plan, ProjectNode):
        fp = (
            "project",
            plan_fingerprint(plan.child),
            plan.columns,
            plan.deduplicate,
            plan.dedup_method,
        )
    else:
        raise FingerprintError(f"uncacheable plan node {type(plan).__name__}")
    setattr(plan, _FP_ATTR, fp)
    return fp


def plan_relations(plan: PlanNode) -> FrozenSet[str]:
    """Every relation a plan reads directly (memoized), pre-closure."""
    cached = getattr(plan, _DEPS_ATTR, None)
    if cached is not None:
        return cached
    if isinstance(plan, (IndexLookupNode, IndexMultiLookupNode, IndexRangeNode)):
        deps = frozenset((plan.relation_name,))
    elif isinstance(plan, ScanNode):
        deps = frozenset((plan.relation_name,))
        if plan.predicate is not None:
            deps |= _predicate_relations(plan.predicate)
    elif isinstance(plan, FilterNode):
        deps = plan_relations(plan.child) | _predicate_relations(plan.predicate)
    elif isinstance(plan, JoinNode):
        deps = plan_relations(plan.left) | plan_relations(plan.right)
    elif isinstance(plan, ProjectNode):
        deps = plan_relations(plan.child)
    else:
        raise FingerprintError(f"uncacheable plan node {type(plan).__name__}")
    # A cost-ordered plan's shape depends on the statistics of every
    # relation the orderer looked at; the root records them so staleness
    # checks cover the full set even if the plan itself were to drop a
    # scan leaf.
    extra = getattr(plan, "_repro_extra_relations", None)
    if extra:
        deps |= frozenset(extra)
    setattr(plan, _DEPS_ATTR, deps)
    return deps


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


def dependency_versions(catalog, plan: PlanNode):
    """``{relation name: version}`` for a plan's full dependency closure."""
    closure = dependency_closure(catalog, plan_relations(plan))
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
