"""Access-path and join-method selection (paper Section 4).

"Query optimization in MM-DBMS should be simpler than in conventional
database systems, as the cost formulas are less complicated ...  there is
a more definite ordering of preference: a hash lookup (exact match only)
is always faster than a tree lookup which is always faster than a
sequential scan; a precomputed join is always faster than the other join
methods; and a Tree Merge join is nearly always preferred when the T Tree
indices already exist."

The two exceptions of Section 3.3.5 are encoded as cost rules:

1. with only the inner index available, a Tree Join beats building a hash
   table when the outer relation is less than half the inner's size;
2. at high duplicate percentages (high-output joins) Sort Merge wins —
   past ~97% when tree indexes exist (Graph 8), past ~60-80% when the
   tree indexes would have to be built (the Hash Join comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.instrument import count_event
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    IndexLookupNode,
    IndexMultiLookupNode,
    IndexRangeNode,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Op,
    Predicate,
)
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

#: Duplicate fraction above which Sort Merge beats Tree Merge (Graph 8).
SORT_MERGE_OVER_TREE_MERGE_DUPS = 0.97
#: Duplicate fraction above which Sort Merge beats Hash Join (Graphs 7/8:
#: 60% skewed, 80% uniform; without skew statistics we use the midpoint).
SORT_MERGE_OVER_HASH_DUPS = 0.70
#: Outer/inner size ratio below which Tree Join beats Hash Join (Graph 6:
#: "the smaller relation is less than half the size of the larger").
TREE_JOIN_SIZE_RATIO = 0.5

#: Default selectivity for predicates the statistics cannot analyse
#: (System R's classic 1/3 for range-shaped conditions).
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Above this many relations the exact DP enumeration (2^n states) gives
#: way to a greedy chain construction using the same cost model.
MAX_DP_TABLES = 12

#: Join-ordering modes accepted by ``configure_optimizer``.
JOIN_ORDERINGS = ("written", "cost")


@dataclass(frozen=True)
class ForecastOps:
    """Forecast Section-3.1 operation counts for one plan step.

    The fields mirror :class:`~repro.instrument.OpCounters` (comparisons,
    moves, hashes, traversals, allocations) so a forecast is directly
    comparable against the counters an execution actually accumulates —
    the program of Liu & Blanas: rank join orders by predicted
    hash-operation counts rather than wall-clock.
    """

    comparisons: float = 0.0
    moves: float = 0.0
    hashes: float = 0.0
    traversals: float = 0.0
    allocations: float = 0.0

    def __add__(self, other: "ForecastOps") -> "ForecastOps":
        return ForecastOps(
            self.comparisons + other.comparisons,
            self.moves + other.moves,
            self.hashes + other.hashes,
            self.traversals + other.traversals,
            self.allocations + other.allocations,
        )

    def weighted(self) -> float:
        """Scalar cost under the same weights as
        :meth:`~repro.instrument.OpCounters.weighted_cost` defaults."""
        return (
            self.comparisons * 1.0
            + self.moves * 0.5
            + self.hashes * 4.0
            + self.traversals * 1.0
            + self.allocations * 2.0
        )

    def as_dict(self) -> Dict[str, float]:
        """Rounded counts for EXPLAIN annotations."""
        return {
            "comparisons": round(self.comparisons),
            "moves": round(self.moves),
            "hashes": round(self.hashes),
            "traversals": round(self.traversals),
            "allocations": round(self.allocations),
            "weighted": round(self.weighted(), 1),
        }


def forecast_selection(rows: float, predicate_leaves: int) -> ForecastOps:
    """Cost of evaluating a selection over ``rows`` tuples.

    A scan reads each tuple once (one counted traversal) and evaluates
    every comparison leaf of the predicate against it.  Index-served
    selections are cheaper in practice; charging the scan shape for every
    candidate keeps the forecast a uniform upper bound, which cancels out
    when ranking orders (each relation's selection runs exactly once in
    any order).
    """
    return ForecastOps(
        comparisons=rows * float(predicate_leaves), traversals=rows
    )


def forecast_hash_join(
    outer_rows: float,
    build_rows: float,
    out_rows: float,
    outer_key_traversals: float = 1.0,
    build_key_traversals: float = 1.0,
) -> ForecastOps:
    """Forecast for :func:`repro.query.join.hash_join`.

    Build: the Chained Bucket Hash charges one hash, one node allocation
    and one move per inserted tuple, plus the key extraction traversal.
    Probe: one hash per outer tuple; the chain walk charges a traversal
    and a comparison per examined node — expected occupancy is
    ``build/table_size`` (~1 at the default sizing) plus one node per
    produced match; each match is one result move.
    """
    build = ForecastOps(
        hashes=build_rows,
        allocations=build_rows,
        moves=build_rows,
        traversals=build_rows * build_key_traversals,
    )
    table_size = max(4.0, build_rows)
    examined = outer_rows * (build_rows / table_size) + out_rows
    probe = ForecastOps(
        hashes=outer_rows,
        comparisons=examined,
        traversals=examined + outer_rows * outer_key_traversals,
        moves=out_rows,
    )
    return build + probe


def forecast_tree_join(
    outer_rows: float,
    inner_rows: float,
    out_rows: float,
    outer_key_traversals: float = 1.0,
) -> ForecastOps:
    """Forecast for :func:`repro.query.join.tree_join` — the paper's
    ``|R1| + |R1| * log2(|R2|)`` comparison shape, probing an existing
    ordered index; matches additionally scan their duplicate run."""
    depth = math.log2(inner_rows) + 1.0 if inner_rows >= 2.0 else 1.0
    searched = outer_rows * depth + out_rows
    return ForecastOps(
        comparisons=searched,
        traversals=searched + outer_rows * outer_key_traversals,
        moves=out_rows,
    )


def forecast_precomputed_join(outer_rows: float, out_rows: float) -> ForecastOps:
    """Forecast for :func:`repro.query.join.precomputed_join` — one
    pointer extraction per outer tuple, one move per produced pair."""
    return ForecastOps(traversals=outer_rows, moves=out_rows)


@dataclass(frozen=True)
class JoinChainEdge:
    """One equijoin clause of a multi-join query, owner-resolved.

    ``kind`` is ``"fk"`` when ``left_table.left_field`` is a declared
    foreign key materialised as a tuple pointer into
    ``right_table.right_field`` — such edges compare pointers and are
    only traversable with the pointer-owning side already in the prefix.
    ``"value"`` edges compare plain column values and are symmetric.
    ``position`` is the clause's written position, the deterministic
    tie-break.
    """

    left_table: str
    left_field: str
    right_table: str
    right_field: str
    kind: str = "value"
    position: int = 0


@dataclass(frozen=True)
class JoinChainQuery:
    """A multi-join query graph handed to the cost-based orderer.

    ``tables`` is the written FROM/JOIN order (the fallback and the
    tie-break); ``predicates`` maps each table to its single-table
    pushdown predicate (bare field names, already FK-rewritten) or None;
    ``edges`` are the join clauses.  By SQL construction every clause
    references one previously named table, so the edge set forms a
    connected tree over ``tables``.
    """

    tables: Tuple[str, ...]
    predicates: Mapping[str, Optional[Predicate]]
    edges: Tuple[JoinChainEdge, ...]


@dataclass(frozen=True)
class _ChainStep:
    """One join appended to a growing left-deep chain."""

    table: str
    method: str  # "hash" | "tree" | "precomputed"
    orientation: str  # "normal" (prefix is outer) | "swapped" (T is outer)
    left_col: str
    right_col: str
    out_rows: float
    forecast: ForecastOps


@dataclass(frozen=True)
class _TableInfo:
    """Per-relation statistics shared by every DP state."""

    name: str
    relation: Relation
    base_rows: float
    selectivity: float
    est_rows: float
    pred: Optional[Predicate]
    pred_leaves: int
    selection_forecast: ForecastOps


@dataclass(frozen=True)
class ColumnStatistics:
    """Cardinality statistics for one join column."""

    cardinality: int
    distinct: int

    @property
    def duplicate_fraction(self) -> float:
        """1 - distinct/|R| — the paper's "duplicate percentage" / 100."""
        if self.cardinality == 0:
            return 0.0
        return 1.0 - self.distinct / self.cardinality


class Optimizer:
    """Rule-based planner over a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._stats_cache: Dict[Tuple[str, str, int], ColumnStatistics] = {}
        #: Multi-join ordering mode: ``"written"`` (the default) folds
        #: join clauses exactly as the query wrote them; ``"cost"``
        #: re-orders 3+-relation chains by forecast op counts (see
        #: :meth:`plan_join_chain`).  Set via
        #: ``MainMemoryDatabase.configure_optimizer``.
        self.join_ordering: str = "written"

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def column_stats(self, relation: Relation, field: str) -> ColumnStatistics:
        """Distinct-value statistics, computed through an index scan.

        Cached per (relation, field, version); an exact refresh happens
        whenever the relation changes at all.  Keying on the version
        rather than the cardinality keeps planning deterministic: an
        update that changes distinct counts without changing the row
        count would otherwise serve stale statistics.
        """
        cache_key = (relation.name, field, relation.version)
        cached = self._stats_cache.get(cache_key)
        if cached is not None:
            return cached
        index = relation.index_on(field)
        if index is not None and index.ordered:
            distinct = 0
            previous = _SENTINEL
            for key, __ in index.items_with_keys():
                if previous is _SENTINEL or key != previous:
                    distinct += 1
                    previous = key
        else:
            extractor = relation.key_extractor(field)
            distinct = len(
                {extractor(ref) for ref in relation.any_index().scan()}
            )
        stats = ColumnStatistics(len(relation), distinct)
        self._stats_cache[cache_key] = stats
        return stats

    # ------------------------------------------------------------------ #
    # selection planning
    # ------------------------------------------------------------------ #

    def plan_selection(
        self, relation_name: str, predicate: Optional[Predicate] = None
    ) -> PlanNode:
        """Pick the best access path for a single-relation selection.

        Preference: hash lookup > tree exact lookup > tree range lookup >
        sequential scan, exactly the Section 4 ordering.  Any comparisons
        not served by the chosen index become a residual filter.
        """
        count_event("plans_built")
        relation = self.catalog.relation(relation_name)
        if predicate is None:
            return ScanNode(relation_name)
        # An OR of equalities on one indexed field becomes a union of
        # index lookups — how the paper's Query 2 selects the Toy and
        # Shoe departments with two lookups rather than a scan.
        if isinstance(predicate, Disjunction):
            equality = predicate.equality_keys()
            if equality is not None:
                field_name, keys = equality
                if relation.index_on(field_name, ordered=False):
                    return IndexMultiLookupNode(
                        relation_name, field_name, keys, prefer="hash"
                    )
                if relation.index_on(field_name, ordered=True):
                    return IndexMultiLookupNode(
                        relation_name, field_name, keys, prefer="tree"
                    )
            return ScanNode(relation_name, predicate)
        comparisons = _comparison_leaves(predicate)
        if comparisons is None:
            return ScanNode(relation_name, predicate)

        chosen: Optional[PlanNode] = None
        used: Optional[Comparison] = None
        # 1. hash lookup: exact match on a hash-indexed field.
        for comp in comparisons:
            if comp.op.exact_match and relation.index_on(comp.field, ordered=False):
                chosen = IndexLookupNode(
                    relation_name, comp.field, comp.value, prefer="hash"
                )
                used = comp
                break
        # 2. tree exact lookup.
        if chosen is None:
            for comp in comparisons:
                if comp.op.exact_match and relation.index_on(
                    comp.field, ordered=True
                ):
                    chosen = IndexLookupNode(
                        relation_name, comp.field, comp.value, prefer="tree"
                    )
                    used = comp
                    break
        # 3. tree range lookup.
        if chosen is None:
            for comp in comparisons:
                if comp.op.usable_with_order and not comp.op.exact_match:
                    if relation.index_on(comp.field, ordered=True):
                        low, high, inc_low, inc_high = comp.key_range()
                        chosen = IndexRangeNode(
                            relation_name, comp.field, low, high,
                            inc_low, inc_high,
                        )
                        used = comp
                        break
        # 4. sequential scan through an unrelated index.
        if chosen is None:
            return ScanNode(relation_name, predicate)
        residual = [c for c in comparisons if c is not used]
        if residual:
            residual_pred: Predicate = (
                residual[0] if len(residual) == 1 else Conjunction(tuple(residual))
            )
            return FilterNode(chosen, residual_pred)
        return chosen

    # ------------------------------------------------------------------ #
    # join planning
    # ------------------------------------------------------------------ #

    def choose_join_method(
        self,
        outer: Relation,
        inner: Relation,
        outer_col: str,
        inner_col: str,
    ) -> str:
        """Apply the Section 4 preference order with the 3.3.5 exceptions."""
        # Precomputed join: the outer column is a declared foreign key
        # into the inner relation ("always faster than the other join
        # methods").
        logical = None
        if outer_col in outer.schema.names:
            logical = outer.schema.field(outer_col)
        if (
            logical is not None
            and logical.references is not None
            and logical.references.relation == inner.name
            and inner_col in (REF_COLUMN, logical.references.field)
        ):
            return "precomputed"

        outer_tree = outer.index_on(outer_col, ordered=True)
        inner_tree = inner.index_on(inner_col, ordered=True)
        if outer_tree is not None and inner_tree is not None:
            dups = max(
                self.column_stats(outer, outer_col).duplicate_fraction,
                self.column_stats(inner, inner_col).duplicate_fraction,
            )
            if dups >= SORT_MERGE_OVER_TREE_MERGE_DUPS:
                return "sort_merge"  # exception 2, Graph 8's crossover
            return "tree_merge"
        if (
            inner_tree is not None
            and len(outer) < TREE_JOIN_SIZE_RATIO * len(inner)
        ):
            return "tree"  # exception 1, Graph 6's small-outer regime
        dups = max(
            self.column_stats(outer, outer_col).duplicate_fraction,
            self.column_stats(inner, inner_col).duplicate_fraction,
        )
        if dups >= SORT_MERGE_OVER_HASH_DUPS:
            return "sort_merge"  # exception 2 against Hash Join
        return "hash"

    def plan_join(
        self,
        outer_name: str,
        inner_name: str,
        outer_col: str,
        inner_col: str,
        outer_predicate: Optional[Predicate] = None,
        inner_predicate: Optional[Predicate] = None,
    ) -> PlanNode:
        """Plan a two-relation equijoin with optional local predicates.

        Index-based join methods require bare relation scans; when a
        local predicate blocks that, the optimizer falls back to the
        generic methods on the filtered input.
        """
        count_event("plans_built")
        outer = self.catalog.relation(outer_name)
        inner = self.catalog.relation(inner_name)
        method = self.choose_join_method(outer, inner, outer_col, inner_col)

        if method == "tree_merge" and (outer_predicate or inner_predicate):
            method = "hash"  # indexes live on base relations only
        if method == "tree" and inner_predicate:
            method = "hash"
        if method == "precomputed" and inner_predicate:
            # Filter after following pointers instead.  The predicate's
            # fields are qualified with the inner relation's name so they
            # resolve unambiguously in the join's output.
            left_plan = self.plan_selection(outer_name, outer_predicate)
            join = JoinNode(
                left_plan, ScanNode(inner_name), outer_col, REF_COLUMN,
                "precomputed",
            )
            return FilterNode(join, _qualify(inner_predicate, inner_name))

        left_plan: PlanNode
        right_plan: PlanNode
        if method == "tree_merge":
            left_plan = ScanNode(outer_name)
            right_plan = ScanNode(inner_name)
        else:
            left_plan = self.plan_selection(outer_name, outer_predicate)
            if method in ("tree", "precomputed"):
                right_plan = ScanNode(inner_name)
            else:
                right_plan = self.plan_selection(inner_name, inner_predicate)
        join_inner_col = (
            REF_COLUMN if method == "precomputed" else inner_col
        )
        return JoinNode(left_plan, right_plan, outer_col, join_inner_col, method)

    # ------------------------------------------------------------------ #
    # selectivity estimation
    # ------------------------------------------------------------------ #

    def equality_selectivity(self, relation_name: str, field_name: str) -> float:
        """Fraction of rows matched by one equality on the column."""
        relation = self.catalog.relation(relation_name)
        if field_name not in relation.schema.names:
            return DEFAULT_SELECTIVITY
        stats = self.column_stats(relation, field_name)
        if stats.cardinality == 0 or stats.distinct == 0:
            return 1.0
        return 1.0 / stats.distinct

    def predicate_selectivity(
        self, relation_name: str, predicate: Optional[Predicate]
    ) -> float:
        """Estimated match fraction of a predicate on one relation.

        Equalities use exact ``1/distinct`` from the column statistics;
        ranges (and anything the statistics cannot analyse) fall back to
        :data:`DEFAULT_SELECTIVITY`; conjunctions multiply, disjunctions
        add (capped at 1).
        """
        if predicate is None:
            return 1.0
        if isinstance(predicate, Conjunction):
            out = 1.0
            for part in predicate.parts:
                out *= self.predicate_selectivity(relation_name, part)
            return out
        if isinstance(predicate, Disjunction):
            total = sum(
                self.predicate_selectivity(relation_name, part)
                for part in predicate.parts
            )
            return min(1.0, total)
        if isinstance(predicate, Comparison):
            field_name = predicate.field.rsplit(".", 1)[-1]
            if predicate.op is Op.EQ:
                return self.equality_selectivity(relation_name, field_name)
            return DEFAULT_SELECTIVITY
        # Engine-internal predicate classes (imported lazily: the engine
        # module imports this package at load time).
        from repro.engine.database import _NeverMatches

        if isinstance(predicate, _NeverMatches):
            return 0.0
        return DEFAULT_SELECTIVITY

    # ------------------------------------------------------------------ #
    # cost-based multi-join ordering
    # ------------------------------------------------------------------ #

    def plan_join_chain(self, query: JoinChainQuery) -> Optional[PlanNode]:
        """Order a multi-join chain by forecast op counts.

        Enumerates left-deep chains over the query's join tree with a
        subset DP — a state per connected table subset, extended only
        along join edges (connected-subgraph pruning; cross products
        never arise because the SQL join syntax forces connectivity) —
        and keeps, per subset, the cheapest (forecast weighted-op)
        prefix.  Beyond :data:`MAX_DP_TABLES` relations a greedy chain
        construction over the same candidate/cost machinery takes over.

        Returns the annotated plan (``est_rows`` / ``est_ops`` per join,
        ``join_order`` on the top join, and the stats dependency set on
        the root), or ``None`` when no feasible complete order exists —
        the caller then falls back to the written order.
        """
        tables = query.tables
        if len(tables) < 3:
            return None
        info: Dict[str, _TableInfo] = {}
        for name in tables:
            relation = self.catalog.relation(name)
            pred = query.predicates.get(name)
            selectivity = self.predicate_selectivity(name, pred)
            base = float(len(relation))
            leaves = _predicate_leaf_count(pred)
            info[name] = _TableInfo(
                name,
                relation,
                base,
                selectivity,
                max(base * selectivity, 0.0),
                pred,
                leaves,
                forecast_selection(base, leaves),
            )
        by_table: Dict[str, List[JoinChainEdge]] = {t: [] for t in tables}
        for edge in query.edges:
            if edge.left_table not in by_table or edge.right_table not in by_table:
                return None
            by_table[edge.left_table].append(edge)
            by_table[edge.right_table].append(edge)
        if len(tables) > MAX_DP_TABLES:
            chosen = self._greedy_order(query, info, by_table)
        else:
            chosen = self._dp_order(query, info, by_table)
        if chosen is None:
            return None
        count_event("join_orders_costed")
        order, steps = chosen
        return self._build_chain_plan(query, info, order, steps)

    def _dp_order(self, query, info, by_table):
        """Exact left-deep DP: best (cost, rows, order, steps) per
        connected subset; deterministic via sorted iteration, strict
        improvement, and written-position candidate order."""
        n = len(query.tables)
        states: Dict[frozenset, Tuple[float, float, tuple, tuple]] = {}
        for name in query.tables:
            ti = info[name]
            states[frozenset((name,))] = (
                ti.selection_forecast.weighted(),
                ti.est_rows,
                (name,),
                (),
            )
        for size in range(1, n):
            layer = sorted(
                (s for s in states if len(s) == size),
                key=lambda s: tuple(sorted(s)),
            )
            for subset in layer:
                cost, rows, order, steps = states[subset]
                for step in self._extensions(info, by_table, subset, rows):
                    new_set = subset | {step.table}
                    new_cost = cost + step.forecast.weighted()
                    existing = states.get(new_set)
                    if existing is None or new_cost < existing[0]:
                        states[new_set] = (
                            new_cost,
                            step.out_rows,
                            order + (step.table,),
                            steps + (step,),
                        )
        full = states.get(frozenset(query.tables))
        if full is None:
            return None
        return full[2], full[3]

    def _greedy_order(self, query, info, by_table):
        """Greedy chain for very wide joins: start at the smallest
        estimated relation, repeatedly take the cheapest feasible
        extension."""
        tables = list(query.tables)
        start = min(tables, key=lambda t: (info[t].est_rows, tables.index(t)))
        subset = frozenset((start,))
        rows = info[start].est_rows
        order: tuple = (start,)
        steps: tuple = ()
        while len(subset) < len(tables):
            candidates = self._extensions(info, by_table, subset, rows)
            if not candidates:
                return None
            best = min(
                candidates,
                key=lambda s: (s.forecast.weighted(), s.out_rows),
            )
            subset = subset | {best.table}
            rows = best.out_rows
            order = order + (best.table,)
            steps = steps + (best,)
        return order, steps

    def _extensions(
        self, info, by_table, subset: frozenset, prefix_rows: float
    ) -> List[_ChainStep]:
        """Every candidate join step extending ``subset`` by one table.

        Only edges with exactly one endpoint inside the prefix qualify
        (connected-subgraph pruning).  Foreign-key pointer edges are
        traversable only with the pointer-owning side already joined —
        the stored value *is* the pointer, so the comparison must be
        pointer-vs-self-reference.
        """
        edges = sorted(
            {edge for name in subset for edge in by_table[name]},
            key=lambda e: e.position,
        )
        steps: List[_ChainStep] = []
        for edge in edges:
            in_left = edge.left_table in subset
            in_right = edge.right_table in subset
            if in_left == in_right:
                continue
            if edge.kind == "fk":
                if not in_left:
                    continue
                steps.extend(self._fk_candidates(info, prefix_rows, edge))
            elif in_left:
                steps.extend(
                    self._value_candidates(
                        info,
                        prefix_rows,
                        edge.left_table,
                        edge.left_field,
                        edge.right_table,
                        edge.right_field,
                    )
                )
            else:
                steps.extend(
                    self._value_candidates(
                        info,
                        prefix_rows,
                        edge.right_table,
                        edge.right_field,
                        edge.left_table,
                        edge.left_field,
                    )
                )
        return steps

    def _fk_candidates(
        self, info, prefix_rows: float, edge: JoinChainEdge
    ) -> List[_ChainStep]:
        """Candidates consuming a foreign-key pointer edge.

        Each prefix row's stored pointer matches exactly one target
        tuple, so the output is the prefix scaled by the target's
        selectivity.  An unfiltered target allows the precomputed join
        (pure pointer following); a filtered one hashes the target's
        self-references — the build keys are the rows' own pointers, so
        key extraction on the build side is free.
        """
        ti = info[edge.right_table]
        out = prefix_rows * ti.selectivity
        qualified = f"{edge.left_table}.{edge.left_field}"
        steps: List[_ChainStep] = []
        if ti.pred is None:
            steps.append(
                _ChainStep(
                    ti.name,
                    "precomputed",
                    "normal",
                    qualified,
                    REF_COLUMN,
                    out,
                    forecast_precomputed_join(prefix_rows, out),
                )
            )
        forecast = ti.selection_forecast + forecast_hash_join(
            prefix_rows, ti.est_rows, out, build_key_traversals=0.0
        )
        steps.append(
            _ChainStep(
                ti.name, "hash", "normal", qualified, REF_COLUMN, out, forecast
            )
        )
        return steps

    def _value_candidates(
        self,
        info,
        prefix_rows: float,
        prefix_table: str,
        prefix_field: str,
        new_table: str,
        new_field: str,
    ) -> List[_ChainStep]:
        """Candidates for a plain value equijoin: hash with either build
        side, plus a Tree Join probe when the new table keeps its ordered
        index usable (no pushdown predicate)."""
        pi = info[prefix_table]
        ti = info[new_table]
        d_prefix = self.column_stats(pi.relation, prefix_field).distinct
        d_new = self.column_stats(ti.relation, new_field).distinct
        out = prefix_rows * ti.est_rows / float(max(d_prefix, d_new, 1))
        qualified = f"{prefix_table}.{prefix_field}"
        steps = [
            _ChainStep(
                ti.name,
                "hash",
                "normal",
                qualified,
                new_field,
                out,
                ti.selection_forecast
                + forecast_hash_join(prefix_rows, ti.est_rows, out),
            ),
            _ChainStep(
                ti.name,
                "hash",
                "swapped",
                new_field,
                qualified,
                out,
                ti.selection_forecast
                + forecast_hash_join(ti.est_rows, prefix_rows, out),
            ),
        ]
        if (
            ti.pred is None
            and ti.relation.index_on(new_field, ordered=True) is not None
        ):
            steps.append(
                _ChainStep(
                    ti.name,
                    "tree",
                    "normal",
                    qualified,
                    new_field,
                    out,
                    forecast_tree_join(prefix_rows, ti.base_rows, out),
                )
            )
        return steps

    def _build_chain_plan(
        self, query: JoinChainQuery, info, order: tuple, steps: tuple
    ) -> PlanNode:
        """Materialise the chosen order as an annotated left-deep plan."""
        first = info[order[0]]
        plan: PlanNode = self.plan_selection(first.name, first.pred)
        top_join: Optional[JoinNode] = None
        for step in steps:
            ti = info[step.table]
            if step.method in ("precomputed", "tree"):
                node = JoinNode(
                    plan,
                    ScanNode(ti.name),
                    step.left_col,
                    step.right_col,
                    step.method,
                )
            elif step.orientation == "swapped":
                node = JoinNode(
                    self.plan_selection(ti.name, ti.pred),
                    plan,
                    step.left_col,
                    step.right_col,
                    "hash",
                )
            else:
                node = JoinNode(
                    plan,
                    self.plan_selection(ti.name, ti.pred),
                    step.left_col,
                    step.right_col,
                    "hash",
                )
            node.est_rows = step.out_rows
            node.est_ops = step.forecast.as_dict()
            plan = node
            top_join = node
        if top_join is not None:
            top_join.join_order = tuple(order)
        # The ordering decision consumed statistics of every joined
        # relation; record them so cached-plan staleness checks cover the
        # full set even if a future plan shape drops a scan leaf.
        plan._repro_extra_relations = frozenset(query.tables)
        return plan


def _predicate_leaf_count(predicate: Optional[Predicate]) -> int:
    """Comparison-leaf count of a predicate tree (0 for None)."""
    if predicate is None:
        return 0
    if isinstance(predicate, (Conjunction, Disjunction)):
        return sum(_predicate_leaf_count(part) for part in predicate.parts)
    return 1


class _SentinelType:
    __slots__ = ()


_SENTINEL = _SentinelType()


def _comparison_leaves(predicate: Predicate):
    """Comparison leaves of a predicate, or None when not analysable."""
    if isinstance(predicate, Comparison):
        return (predicate,)
    if isinstance(predicate, Conjunction):
        leaves = predicate.comparisons()
        # A conjunction containing non-comparison parts is not analysable.
        flat_count = sum(
            1 for p in _flatten(predicate)
        )
        if len(leaves) == flat_count:
            return leaves
        return None
    return None


def _flatten(predicate: Predicate):
    if isinstance(predicate, Conjunction):
        for part in predicate.parts:
            yield from _flatten(part)
    else:
        yield predicate


def _qualify(predicate: Predicate, relation_name: str) -> Predicate:
    """Prefix every comparison's field with ``relation_name.``."""
    if isinstance(predicate, Comparison):
        return Comparison(
            f"{relation_name}.{predicate.field}",
            predicate.op,
            predicate.value,
            predicate.high,
        )
    if isinstance(predicate, Conjunction):
        return Conjunction(
            tuple(_qualify(part, relation_name) for part in predicate.parts)
        )
    return predicate
