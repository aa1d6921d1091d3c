"""Plan execution: evaluates a plan tree to a temporary list.

Every node produces a :class:`~repro.storage.temporary.TemporaryList` of
tuple-pointer rows; values are only materialised where an operator needs a
key (through counted pointer traversals), never copied into intermediate
results — the paper's central storage discipline.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple, Union

from repro.errors import PlanError
from repro.obs import runtime as obs_runtime
from repro.query import join as join_ops
from repro.query.plan import (
    REF_COLUMN,
    FilterNode,
    IndexLookupNode,
    IndexMultiLookupNode,
    IndexRangeNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from repro.query.predicates import THETA_COMPARATORS
from repro.query.project import project_hash, project_sort_scan
from repro.query.select import select_tree_range
from repro.query.sort import quicksort
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.temporary import (
    ResultDescriptor,
    TemporaryList,
    join_descriptor,
)
from repro.storage.tuples import TupleRef


def filter_column_resolver(
    descriptor: ResultDescriptor,
) -> Callable[[str], str]:
    """Map a predicate field name to an output column name.

    A join qualifies colliding names as ``Relation.field``.  Resolution
    tries three ways, in order: exact output name; unambiguous bare-name
    suffix of a qualified label; an explicit ``Relation.field``
    qualifier matched against each column's source relation.  Both
    execution engines share this resolver so a predicate binds to the
    same column under either.
    """
    names = set(descriptor.column_names)
    suffixes: dict = {}
    qualified: dict = {}
    for col in descriptor.columns:
        if "." in col.name:
            suffixes.setdefault(col.name.rsplit(".", 1)[1], []).append(
                col.name
            )
        source_name = descriptor.sources[col.source].name
        qualified.setdefault(f"{source_name}.{col.field}", []).append(
            col.name
        )

    def resolve(field_name: str) -> str:
        if field_name in names:
            return field_name
        candidates = suffixes.get(field_name, [])
        if len(candidates) != 1:
            candidates = qualified.get(field_name, [])
        if len(candidates) == 1:
            return candidates[0]
        raise PlanError(
            f"predicate references unknown or ambiguous column "
            f"{field_name!r}; have {descriptor.column_names}"
        )

    return resolve


def lookup_index(
    relation: Relation, node: Union[IndexLookupNode, IndexMultiLookupNode]
):
    """The index an exact-match (or multi-key) lookup node probes.

    Shared by the executor and by the lowered point operations of
    :mod:`repro.sql.template`, so both resolve ``prefer`` the same way.
    """
    index = None
    if node.prefer in (None, "hash"):
        index = relation.index_on(node.field_name, ordered=False)
    if index is None and node.prefer in (None, "tree"):
        index = relation.index_on(node.field_name, ordered=True)
    if index is None and node.prefer == "hash":
        raise PlanError(
            f"{node.relation_name}.{node.field_name} has no hash index"
        )
    if index is None:
        raise PlanError(
            f"{node.relation_name}.{node.field_name} has no index; "
            "use a Scan with a predicate instead"
        )
    return index


class Executor:
    """Evaluates plan trees against a catalog.

    With a :class:`~repro.cache.result_cache.ResultCache` attached,
    ``execute`` memoizes *whole subtree* results: the recursive
    ``execute`` calls inside join and filter operators hit the cache for
    any previously computed subtree whose relations are unchanged.
    """

    #: Name reported by ``EXPLAIN``-style tooling and benchmarks; the
    #: batch engine overrides it.
    engine_name = "tuple"

    def __init__(self, catalog: Catalog, result_cache=None) -> None:
        self.catalog = catalog
        self.result_cache = result_cache

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def execute(self, plan: PlanNode) -> TemporaryList:
        """Evaluate ``plan`` to a temporary list (through the result
        cache, when one is attached).

        With observability active, every node evaluation — including the
        recursive calls for join and filter children — runs inside an
        ``operator`` span carrying the node's inclusive counters and
        output cardinality.
        """
        obs = obs_runtime.active()
        if obs is None or obs.tracer is None:
            return self._execute_cached(plan)
        with obs.tracer.span(
            plan.label(), kind="operator", _node=plan
        ) as span:
            result = self._execute_cached(plan)
            span.rows_out = len(result)
            return result

    def _execute_cached(self, plan: PlanNode) -> TemporaryList:
        cache = self.result_cache
        if cache is None:
            return self._dispatch(plan)
        hit = cache.lookup_plan(plan)
        if hit is not None:
            return hit
        result = self._dispatch(plan)
        cache.store_plan(plan, result)
        return result

    def _dispatch(self, plan: PlanNode) -> TemporaryList:
        if isinstance(plan, ScanNode):
            return self._execute_scan(plan)
        if isinstance(plan, IndexLookupNode):
            return self._execute_lookup(plan)
        if isinstance(plan, IndexMultiLookupNode):
            return self._execute_multi_lookup(plan)
        if isinstance(plan, IndexRangeNode):
            return self._execute_range(plan)
        if isinstance(plan, FilterNode):
            return self._execute_filter(plan)
        if isinstance(plan, JoinNode):
            return self._execute_join(plan)
        if isinstance(plan, ProjectNode):
            return self._execute_project(plan)
        raise PlanError(f"unknown plan node {type(plan).__name__}")

    # ------------------------------------------------------------------ #
    # leaves
    # ------------------------------------------------------------------ #

    def _execute_scan(self, node: ScanNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        refs = list(relation.any_index().scan())
        if node.predicate is not None:
            refs = [
                ref
                for ref in refs
                if node.predicate.matches(
                    lambda field_name, r=ref: relation.read_field(r, field_name)
                )
            ]
        return TemporaryList.from_refs(relation, refs)

    def _execute_lookup(self, node: IndexLookupNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        refs = lookup_index(relation, node).probe_all(node.key)
        return TemporaryList.from_refs(relation, refs)

    def _execute_multi_lookup(
        self, node: IndexMultiLookupNode
    ) -> TemporaryList:
        """Union of exact lookups, de-duplicated by tuple pointer."""
        relation = self.catalog.relation(node.relation_name)
        index = lookup_index(relation, node)
        refs = []
        seen = set()
        for key in node.keys:
            for ref in index.probe_all(key):
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
        return TemporaryList.from_refs(relation, refs)

    def _execute_range(self, node: IndexRangeNode) -> TemporaryList:
        relation = self.catalog.relation(node.relation_name)
        index = relation.index_on(node.field_name, ordered=True)
        if index is None:
            raise PlanError(
                f"{node.relation_name}.{node.field_name} has no ordered "
                "index for a range lookup"
            )
        with obs_runtime.span(
            f"IndexProbe[{index.kind}] range", "index", index_kind=index.kind
        ) as probe:
            refs = select_tree_range(
                index, node.low, node.high, node.include_low, node.include_high
            )
            if probe is not None:
                probe.rows_out = len(refs)
        obs_runtime.metric_inc("index_probes_total", kind=index.kind)
        return TemporaryList.from_refs(relation, refs)

    # ------------------------------------------------------------------ #
    # filter / project
    # ------------------------------------------------------------------ #

    def _execute_filter(self, node: FilterNode) -> TemporaryList:
        child = self.execute(node.child)
        extractors = {
            name: child.value_extractor(name)
            for name in child.descriptor.column_names
        }
        resolve_name = filter_column_resolver(child.descriptor)

        def reader_for(row: Tuple[TupleRef, ...]) -> Callable[[str], Any]:
            def read(field_name: str) -> Any:
                return extractors[resolve_name(field_name)](row)
            return read

        kept = [row for row in child if node.predicate.matches(reader_for(row))]
        return TemporaryList(child.descriptor, kept)

    def _execute_project(self, node: ProjectNode) -> TemporaryList:
        child = self.execute(node.child)
        projected = child.project(list(node.columns))
        if not node.deduplicate:
            return projected
        unique_rows = self.dedup_rows(
            projected.descriptor,
            projected.rows(),
            node.columns,
            node.dedup_method,
        )
        return TemporaryList(projected.descriptor, unique_rows)

    def dedup_rows(
        self,
        descriptor: ResultDescriptor,
        rows: List[Tuple[TupleRef, ...]],
        columns: Sequence[str],
        method: str = "hash",
    ) -> List[Tuple[TupleRef, ...]]:
        """Duplicate elimination on ``columns``: the first occurrence of
        each key survives, in input order.

        The one duplicate-elimination hook: plan projections and
        ``MainMemoryDatabase.project`` (SQL ``DISTINCT``) both call it,
        so each engine runs its own algorithm.  Here, the paper's
        ``project_hash`` or ``project_sort_scan`` over row positions,
        keyed through :meth:`_position_key`.
        """
        keys = [
            self._position_key(TemporaryList(descriptor, rows), name)
            for name in columns
        ]

        def row_key(position: int) -> Tuple[Any, ...]:
            return tuple(key(position) for key in keys)

        dedupe = project_hash if method == "hash" else project_sort_scan
        return [rows[i] for i in dedupe(range(len(rows)), row_key)]

    # ------------------------------------------------------------------ #
    # ordering
    # ------------------------------------------------------------------ #

    def sort_rows(
        self, result: TemporaryList, column: str
    ) -> List[Tuple[TupleRef, ...]]:
        """ORDER BY support: the result's rows sorted by one column.

        The paper's instrumented quicksort over row positions, keyed
        through :meth:`_position_key`.
        """
        order = list(range(len(result)))
        quicksort(order, key_of=self._position_key(result, column))
        rows = result.rows()
        return [rows[i] for i in order]

    def _position_key(
        self, result: TemporaryList, column: str
    ) -> Callable[[int], Any]:
        """``position -> key`` over ``result``'s rows: the one key hook.

        The reference algorithms — quicksort, the non-hash joins and
        both duplicate eliminations — run over row positions and call
        this for every key they extract; each call is one logical
        traversal, as the paper charges it.  Here each call reads the
        row's field through the counted value extractor; the batch
        engine reads the whole column once instead.  ``REF_COLUMN``
        keys on the row's own pointer, which costs no traversal.
        """
        rows = result.rows()
        if column == REF_COLUMN:
            sources = result.descriptor.sources
            if len(sources) != 1:
                raise PlanError(
                    f"{REF_COLUMN} is ambiguous over {len(sources)} sources"
                )
            return [row[0] for row in rows].__getitem__
        extract = result.value_extractor(column)

        def key(position: int) -> Any:
            return extract(rows[position])

        return key

    # ------------------------------------------------------------------ #
    # join
    # ------------------------------------------------------------------ #

    def _bare_relation(self, plan: PlanNode, method: str) -> Relation:
        if not isinstance(plan, ScanNode) or plan.predicate is not None:
            raise PlanError(
                f"join method {method!r} requires a bare relation scan "
                "(the index lives on the base relation)"
            )
        return self.catalog.relation(plan.relation_name)

    def _execute_join(self, node: JoinNode) -> TemporaryList:
        method = node.method
        if node.op != "=":
            return self._join_nonequi(node)
        if method == "tree_merge":
            return self._join_tree_merge(node)
        if method == "tree":
            return self._join_tree(node)
        if method == "precomputed":
            return self._join_precomputed(node)

        left = self.execute(node.left)
        right = self.execute(node.right)
        if method == "hash":
            algorithm = join_ops.hash_join
        elif method == "sort_merge":
            algorithm = join_ops.sort_merge_join
        elif method == "nested_loops":
            algorithm = join_ops.nested_loops_join
        else:  # pragma: no cover - guarded by JoinNode.__post_init__
            raise PlanError(f"unhandled join method {method!r}")
        pairs = algorithm(
            range(len(left)),
            range(len(right)),
            self._position_key(left, node.left_col),
            self._position_key(right, node.right_col),
        )
        return _paired(left, right, pairs)

    def _join_nonequi(self, node: JoinNode) -> TemporaryList:
        """Inequality joins: ordered-index range scans or nested loops."""
        left = self.execute(node.left)
        left_key = self._position_key(left, node.left_col)
        if node.method == "tree":
            right_rel = self._bare_relation(node.right, "tree")
            index = right_rel.index_on(node.right_col, ordered=True)
            if index is None:
                raise PlanError(
                    f"inequality tree join needs an ordered index on "
                    f"{right_rel.name}.{node.right_col}"
                )
            with obs_runtime.span("tree_join.probe", "join_phase"):
                pairs = join_ops.tree_inequality_join(
                    range(len(left)), left_key, index, node.op
                )
            return _probed(left, right_rel, pairs)
        right = self.execute(node.right)
        pairs = join_ops.theta_join(
            range(len(left)),
            range(len(right)),
            left_key,
            self._position_key(right, node.right_col),
            THETA_COMPARATORS[node.op],
        )
        return _paired(left, right, pairs)

    def _join_tree(self, node: JoinNode) -> TemporaryList:
        left = self.execute(node.left)
        right_rel = self._bare_relation(node.right, "tree")
        index = right_rel.index_on(node.right_col, ordered=True)
        if index is None:
            raise PlanError(
                f"tree join needs an ordered index on "
                f"{right_rel.name}.{node.right_col}"
            )
        left_key = self._position_key(left, node.left_col)
        with obs_runtime.span("tree_join.probe", "join_phase"):
            pairs = join_ops.tree_join(range(len(left)), left_key, index)
        return _probed(left, right_rel, pairs)

    def _join_tree_merge(self, node: JoinNode) -> TemporaryList:
        left_rel = self._bare_relation(node.left, "tree_merge")
        right_rel = self._bare_relation(node.right, "tree_merge")
        left_index = left_rel.index_on(node.left_col, ordered=True)
        right_index = right_rel.index_on(node.right_col, ordered=True)
        if left_index is None or right_index is None:
            raise PlanError(
                "tree merge join needs ordered indexes on both join "
                f"columns ({left_rel.name}.{node.left_col}, "
                f"{right_rel.name}.{node.right_col})"
            )
        pairs = join_ops.tree_merge_join(left_index, right_index)
        descriptor = join_descriptor(
            ResultDescriptor.whole_relation(left_rel),
            ResultDescriptor.whole_relation(right_rel),
        )
        rows = [(l_ref, r_ref) for l_ref, r_ref in pairs]
        return TemporaryList(descriptor, rows)

    def _join_precomputed(self, node: JoinNode) -> TemporaryList:
        left = self.execute(node.left)
        if node.right_col != REF_COLUMN:
            raise PlanError(
                f"precomputed join matches stored pointers; right_col must "
                f"be {REF_COLUMN!r}"
            )
        sources = left.descriptor.sources
        # The REF field lives in exactly one of the left sources.
        fk_col = left.descriptor.column(node.left_col)
        left_rel = sources[fk_col.source]
        logical = left_rel.schema.field(fk_col.field)
        if logical.references is None:
            raise PlanError(
                f"{left_rel.name}.{fk_col.field} is not a foreign-key "
                "field; precomputed join needs a materialised pointer"
            )
        right_rel = self.catalog.relation(logical.references.relation)
        pairs = join_ops.precomputed_join(
            range(len(left)), self._position_key(left, node.left_col)
        )
        return _probed(left, right_rel, pairs)


def _paired(
    left: TemporaryList, right: TemporaryList, pairs: List[Tuple[int, int]]
) -> TemporaryList:
    """The joined rows of ``(left position, right position)`` pairs."""
    left_rows, right_rows = left.rows(), right.rows()
    descriptor = join_descriptor(left.descriptor, right.descriptor)
    return TemporaryList(
        descriptor, [left_rows[i] + right_rows[j] for i, j in pairs]
    )


def _probed(
    left: TemporaryList, right_rel: Relation, pairs: List[Tuple[int, Any]]
) -> TemporaryList:
    """The joined rows of ``(left position, right pointer)`` pairs: an
    index probe of ``right_rel``, or its stored pointers followed."""
    left_rows = left.rows()
    right_desc = ResultDescriptor.whole_relation(right_rel)
    descriptor = join_descriptor(left.descriptor, right_desc)
    return TemporaryList(
        descriptor, [left_rows[i] + (ref,) for i, ref in pairs]
    )
