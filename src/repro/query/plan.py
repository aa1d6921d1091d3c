"""Query plans: a small tree of composable operator nodes.

A plan node evaluates (via :mod:`repro.query.executor`) to a
:class:`~repro.storage.temporary.TemporaryList`.  The node set mirrors the
paper's operator inventory: three selection access paths, the join method
family, and descriptor projection with optional duplicate elimination.

Every fact about a node kind lives on its class, so a new kind is
described in this one file:

* :meth:`PlanNode.children` and :meth:`PlanNode.label` — the tree shape
  and one line of text, from which :meth:`PlanNode.explain`, EXPLAIN and
  the executor's span names are all built;
* :meth:`PlanNode.fingerprint` and :meth:`PlanNode.relations` — the
  result cache's reuse key and dependency set (both memoized on the
  node: plans are never mutated after construction);
* :meth:`PlanNode.descriptor` — the output columns, without executing;
* :meth:`PlanNode.estimate` — EXPLAIN's row estimate, from the
  optimizer's own selectivities.

Which operator *runs* a node is the execution engine's decision and stays
in :meth:`repro.query.executor.Executor._dispatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Sequence, Tuple

from repro.errors import FingerprintError, PlanError
from repro.query.predicates import (
    DEFAULT_SELECTIVITY,
    Conjunction,
    Disjunction,
    Predicate,
    value_fingerprint,
)
from repro.storage.temporary import ResultDescriptor, join_descriptor

#: Pseudo-column naming the row's own tuple pointer.  Joining an outer
#: REF field against the inner's ``REF_COLUMN`` is the paper's Query 2:
#: "comparisons will be performed using the tuple pointers".
REF_COLUMN = "__ref__"

#: The join methods the executor understands.
JOIN_METHODS = (
    "nested_loops",
    "hash",
    "tree",
    "sort_merge",
    "tree_merge",
    "precomputed",
)


class PlanNode:
    """Base class for plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child plan nodes in execution order."""
        return ()

    def label(self) -> str:
        """One-line description of this node (no children, no indent)."""
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """A human-readable plan tree (one node per line)."""
        lines = ["  " * depth + self.label()]
        lines.extend(child.explain(depth + 1) for child in self.children())
        return "\n".join(lines)

    def fingerprint(self) -> Tuple:
        """Canonical nested-tuple fingerprint of this subtree: equal
        exactly when two trees compute the same result over the same
        relation versions.  Raises :class:`FingerprintError` for a tree
        holding something with no canonical form."""
        cached = getattr(self, "_repro_fingerprint", None)
        if cached is None:
            cached = self._fingerprint()
            self._repro_fingerprint = cached
        return cached

    def _fingerprint(self) -> Tuple:
        raise FingerprintError(
            f"uncacheable plan node {type(self).__name__}"
        )

    def relations(self) -> FrozenSet[str]:
        """Every relation this subtree reads directly, before the
        foreign-key closure of :func:`repro.cache.dependency_closure`."""
        cached = getattr(self, "_repro_dependencies", None)
        if cached is None:
            cached = self._relations()
            # A cost-ordered plan's shape depends on the statistics of
            # every relation the orderer looked at; the root records
            # them so staleness checks cover the full set even if the
            # plan itself were to drop a scan leaf.
            extra = getattr(self, "_repro_extra_relations", None)
            if extra:
                cached |= frozenset(extra)
            self._repro_dependencies = cached
        return cached

    def _relations(self) -> FrozenSet[str]:
        raise FingerprintError(
            f"uncacheable plan node {type(self).__name__}"
        )

    def descriptor(self, catalog) -> ResultDescriptor:
        """The descriptor this subtree produces, computed without
        executing (mirrors each operator's own construction)."""
        raise NotImplementedError

    def estimate(self, catalog, optimizer) -> float:
        """Estimated output cardinality, from the optimizer's column
        statistics and selectivities."""
        raise NotImplementedError

    def distinct_keys(self, column: str, catalog, optimizer) -> float:
        """Distinct values of ``column`` in this subtree's output, for a
        join's inner side: the estimated cardinality when the column
        cannot be resolved to a base relation."""
        return max(1.0, self.estimate(catalog, optimizer))


class _RelationLeaf(PlanNode):
    """Shared facts of the leaves, which read one whole relation."""

    relation_name: str

    def _relations(self) -> FrozenSet[str]:
        return frozenset((self.relation_name,))

    def descriptor(self, catalog) -> ResultDescriptor:
        return ResultDescriptor.whole_relation(
            catalog.relation(self.relation_name)
        )


@dataclass
class ScanNode(_RelationLeaf):
    """Sequential scan of a relation through one of its indexes.

    The slowest access path; carries an optional residual predicate.
    """

    relation_name: str
    predicate: Optional[Predicate] = None

    def label(self) -> str:
        pred = f" filter {self.predicate!r}" if self.predicate else ""
        return f"Scan({self.relation_name}){pred}"

    def _fingerprint(self) -> Tuple:
        pred = None if self.predicate is None else self.predicate.fingerprint()
        return ("scan", self.relation_name, pred)

    def _relations(self) -> FrozenSet[str]:
        deps = frozenset((self.relation_name,))
        if self.predicate is not None:
            deps |= self.predicate.relations()
        return deps

    def estimate(self, catalog, optimizer) -> float:
        relation = catalog.relation(self.relation_name)
        return len(relation) * optimizer.predicate_selectivity(
            self.relation_name, self.predicate
        )

    def distinct_keys(self, column: str, catalog, optimizer) -> float:
        if self.predicate is None:
            relation = catalog.relation(self.relation_name)
            field_name = column.rsplit(".", 1)[-1]
            if field_name in relation.schema.names:
                stats = optimizer.column_stats(relation, field_name)
                return float(stats.distinct)
        return super().distinct_keys(column, catalog, optimizer)


@dataclass
class IndexLookupNode(_RelationLeaf):
    """Exact-match lookup — hash if possible, else ordered index."""

    relation_name: str
    field_name: str
    key: Any
    prefer: Optional[str] = None  # "hash" | "tree" | None (auto)

    def label(self) -> str:
        how = self.prefer or "auto"
        return (
            f"IndexLookup({self.relation_name}."
            f"{self.field_name} = {self.key!r}, via {how})"
        )

    def _fingerprint(self) -> Tuple:
        return (
            "lookup",
            self.relation_name,
            self.field_name,
            self.prefer,
            value_fingerprint(self.key),
        )

    def estimate(self, catalog, optimizer) -> float:
        relation = catalog.relation(self.relation_name)
        return len(relation) * optimizer.equality_selectivity(
            self.relation_name, self.field_name
        )


@dataclass
class IndexMultiLookupNode(_RelationLeaf):
    """Union of exact-match lookups — an OR of equalities on one indexed
    field (the paper's Query 2 selection: Toy or Shoe)."""

    relation_name: str
    field_name: str
    keys: Tuple[Any, ...]
    prefer: Optional[str] = None

    def label(self) -> str:
        how = self.prefer or "auto"
        return (
            f"IndexMultiLookup({self.relation_name}."
            f"{self.field_name} IN {list(self.keys)!r}, via {how})"
        )

    def _fingerprint(self) -> Tuple:
        return (
            "multilookup",
            self.relation_name,
            self.field_name,
            self.prefer,
            value_fingerprint(self.keys),
        )

    def estimate(self, catalog, optimizer) -> float:
        relation = catalog.relation(self.relation_name)
        per_key = len(relation) * optimizer.equality_selectivity(
            self.relation_name, self.field_name
        )
        return per_key * len(self.keys)


@dataclass
class IndexRangeNode(_RelationLeaf):
    """Range lookup through an ordered index."""

    relation_name: str
    field_name: str
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def label(self) -> str:
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        return (
            f"IndexRange({self.relation_name}."
            f"{self.field_name} in {lo}{self.low!r}, {self.high!r}{hi})"
        )

    def _fingerprint(self) -> Tuple:
        return (
            "range",
            self.relation_name,
            self.field_name,
            value_fingerprint(self.low),
            value_fingerprint(self.high),
            self.include_low,
            self.include_high,
        )

    def estimate(self, catalog, optimizer) -> float:
        relation = catalog.relation(self.relation_name)
        return len(relation) * DEFAULT_SELECTIVITY


@dataclass
class FilterNode(PlanNode):
    """Residual predicate applied to a child's rows."""

    child: PlanNode
    predicate: Predicate

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter {self.predicate!r}"

    def _fingerprint(self) -> Tuple:
        return (
            "filter",
            self.child.fingerprint(),
            self.predicate.fingerprint(),
        )

    def _relations(self) -> FrozenSet[str]:
        return self.child.relations() | self.predicate.relations()

    def descriptor(self, catalog) -> ResultDescriptor:
        return self.child.descriptor(catalog)

    def estimate(self, catalog, optimizer) -> float:
        # Without binding columns to source relations post-join, apply
        # the default selectivity per comparison leaf.
        child = self.child.estimate(catalog, optimizer)
        return child * self._leaf_selectivity(self.predicate)

    @classmethod
    def _leaf_selectivity(cls, predicate: Predicate) -> float:
        if isinstance(predicate, Conjunction):
            out = 1.0
            for part in predicate.parts:
                out *= cls._leaf_selectivity(part)
            return out
        if isinstance(predicate, Disjunction):
            return min(
                1.0, sum(cls._leaf_selectivity(p) for p in predicate.parts)
            )
        return DEFAULT_SELECTIVITY


@dataclass
class JoinNode(PlanNode):
    """Join of two child plans on one column each.

    ``method`` is one of :data:`JOIN_METHODS`.  The index-based methods
    ("tree", "tree_merge", "precomputed") place structural requirements on
    the children, validated at execution time:

    * "tree" — the right child must be a bare relation scan whose join
      field has an ordered index;
    * "tree_merge" — both children must be bare relation scans with
      ordered indexes on their join fields;
    * "precomputed" — the left join column must be a materialised
      foreign-key (REF) field pointing into the right relation; the right
      column must be :data:`REF_COLUMN`.

    ``right_col`` may be :data:`REF_COLUMN` for pointer-equality joins.

    ``op`` generalises to non-equijoins (Section 3.3.5): "<", "<=", ">",
    ">=" run through an ordered index on the right side (method "tree")
    or by nested loops; "!=" — which "cannot make use of ordering" — only
    by nested loops.
    """

    left: PlanNode
    right: PlanNode
    left_col: str
    right_col: str
    method: str = "hash"
    op: str = "="
    #: Cost-based-optimizer annotations, surfaced by EXPLAIN: estimated
    #: output cardinality, forecast Section-3.1 op counts for this join
    #: step, and (on a chain's top join) the chosen table order.  Never
    #: part of plan identity, fingerprints, or execution semantics.
    est_rows: Optional[float] = field(default=None, compare=False, repr=False)
    est_ops: Optional[dict] = field(default=None, compare=False, repr=False)
    join_order: Optional[Tuple[str, ...]] = field(
        default=None, compare=False, repr=False
    )

    _VALID_OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.method not in JOIN_METHODS:
            raise PlanError(
                f"unknown join method {self.method!r}; choose from "
                f"{JOIN_METHODS}"
            )
        if self.op not in self._VALID_OPS:
            raise PlanError(
                f"unknown join operator {self.op!r}; choose from "
                f"{self._VALID_OPS}"
            )
        if self.op != "=" and self.method not in ("tree", "nested_loops"):
            raise PlanError(
                f"non-equijoins run via 'tree' (ordered ops) or "
                f"'nested_loops', not {self.method!r}"
            )
        if self.op == "!=" and self.method == "tree":
            raise PlanError(
                "'!=' cannot use the ordering of the data (Section "
                "3.3.5); use nested_loops"
            )

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        order = ""
        if self.join_order is not None:
            order = f"  order={'->'.join(self.join_order)}"
        return (
            f"Join[{self.method}] {self.left_col} {self.op} "
            f"{self.right_col}{order}"
        )

    def _fingerprint(self) -> Tuple:
        return (
            "join",
            self.method,
            self.op,
            self.left_col,
            self.right_col,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )

    def _relations(self) -> FrozenSet[str]:
        return self.left.relations() | self.right.relations()

    def descriptor(self, catalog) -> ResultDescriptor:
        return join_descriptor(
            self.left.descriptor(catalog), self.right.descriptor(catalog)
        )

    def estimate(self, catalog, optimizer) -> float:
        if self.est_rows is not None:
            # The cost-based orderer already estimated this join with
            # predicate selectivities applied; its figure is stricter
            # than the structural recursion below.
            return self.est_rows
        left = self.left.estimate(catalog, optimizer)
        right = self.right.estimate(catalog, optimizer)
        if self.op != "=":
            return left * right * DEFAULT_SELECTIVITY
        if self.method == "precomputed" or self.right_col == REF_COLUMN:
            # Pointer equality: each outer pointer pairs with exactly one
            # target tuple (or a stored pointer list; still ~|outer|).
            return left
        distinct = self.right.distinct_keys(self.right_col, catalog, optimizer)
        if distinct <= 0:
            return 0.0
        return left * right / distinct


@dataclass
class ProjectNode(PlanNode):
    """Descriptor projection with optional duplicate elimination.

    Projection itself is free ("the descriptor takes the place of
    projection"); only ``deduplicate=True`` does real work, using hashing
    by default per the paper's conclusion, or "sort_scan".
    """

    child: PlanNode
    columns: Tuple[str, ...]
    deduplicate: bool = False
    dedup_method: str = "hash"

    def __init__(
        self,
        child: PlanNode,
        columns: Sequence[str],
        deduplicate: bool = False,
        dedup_method: str = "hash",
    ) -> None:
        if dedup_method not in ("hash", "sort_scan"):
            raise PlanError(
                f"unknown dedup method {dedup_method!r}; "
                "use 'hash' or 'sort_scan'"
            )
        self.child = child
        self.columns = tuple(columns)
        self.deduplicate = deduplicate
        self.dedup_method = dedup_method

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        dd = f" dedup({self.dedup_method})" if self.deduplicate else ""
        return f"Project{list(self.columns)}{dd}"

    def _fingerprint(self) -> Tuple:
        return (
            "project",
            self.child.fingerprint(),
            self.columns,
            self.deduplicate,
            self.dedup_method,
        )

    def _relations(self) -> FrozenSet[str]:
        return self.child.relations()

    def descriptor(self, catalog) -> ResultDescriptor:
        return self.child.descriptor(catalog).project(list(self.columns))

    def estimate(self, catalog, optimizer) -> float:
        return self.child.estimate(catalog, optimizer)
