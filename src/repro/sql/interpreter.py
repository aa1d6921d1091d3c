"""Lowers parsed SQL statements onto the MM-DBMS engine.

The interpreter is a thin layer: WHERE clauses become the predicate
algebra (and hence the Section 4 access-path rules), joins go through the
optimizer's method preference (or a ``USING`` override), DISTINCT is
the active engine's hash-based duplicate elimination, and ORDER BY uses
the paper's instrumented quicksort on the pointer rows.

An uncached SELECT runs with the cyclic garbage collector paused.  Every
tuple pointer is a ``TupleRef`` object the collector tracks, and every
result row holds pointers, so a large result triggers passes over
everything tracked; none of them finds garbage, since a SELECT builds
no reference cycles.  The pause nests across threads through one depth
counter: the collector resumes when the last overlapping SELECT ends,
and only if it was enabled when the first began.
"""

from __future__ import annotations

import gc
import threading
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError, SchemaError
from repro.obs import runtime as obs_runtime
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Op,
    Predicate,
    between,
)
from repro.sql import parser as ast
from repro.sql.prepared import PreparedStatement, bind_statement
from repro.sql.template import insert_rows, lift, parse_template
from repro.storage.schema import Field, FieldType, ForeignKey
from repro.storage.temporary import TemporaryList

_collector_lock = threading.Lock()
#: SELECTs now running with the collector paused, and whether it was
#: enabled when the first of them paused it.
_collector_depth = 0
_collector_was_enabled = False


def _pause_collector() -> None:
    global _collector_depth, _collector_was_enabled
    with _collector_lock:
        if _collector_depth == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _collector_depth += 1


def _resume_collector() -> None:
    global _collector_depth
    with _collector_lock:
        _collector_depth -= 1
        if _collector_depth == 0 and _collector_was_enabled:
            gc.enable()


_FIELD_TYPES = {
    "int": FieldType.INT,
    "float": FieldType.FLOAT,
    "str": FieldType.STR,
}

_OPS = {
    "=": Op.EQ,
    "!=": Op.NE,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
}


def _tree_to_predicate(tree) -> Predicate:
    """One condition tree (Condition or ConditionGroup) to a Predicate."""
    from repro.query.predicates import Disjunction

    if isinstance(tree, ast.ConditionGroup):
        parts = tuple(_tree_to_predicate(child) for child in tree.children)
        if tree.op == "or":
            return Disjunction(parts)
        return Conjunction(parts)
    if tree.op == "between":
        return between(tree.column, tree.value, tree.high)
    return Comparison(tree.column, _OPS[tree.op], tree.value)


def _tree_leaves(tree) -> List[ast.Condition]:
    """All Condition leaves of a condition tree."""
    if isinstance(tree, ast.ConditionGroup):
        leaves: List[ast.Condition] = []
        for child in tree.children:
            leaves.extend(_tree_leaves(child))
        return leaves
    return [tree]


def _conditions_to_predicate(conditions: Sequence) -> Optional[Predicate]:
    parts: List[Predicate] = [
        _tree_to_predicate(tree) for tree in conditions
    ]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return Conjunction(tuple(parts))


class SQLInterpreter:
    """Executes SQL text against a :class:`MainMemoryDatabase`."""

    def __init__(self, db) -> None:
        self.db = db

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def execute(self, text: str):
        """Parse and run one statement.

        Returns: a :class:`TemporaryList` for SELECT, a plan string for
        EXPLAIN, a list of tuple pointers for INSERT, an affected-row
        count for UPDATE/DELETE, and None for DDL.

        The literals are lifted out of the text first; statements of a
        shape seen before skip the lexer and parser, and the ones whose
        plan does not depend on the literals run a lowered operation
        (see :mod:`repro.sql.template`).  With the plan cache installed,
        SELECTs additionally reuse their optimized plan and, via the
        result cache, their results.

        With observability active, the whole statement runs inside a root
        ``query`` span (or, with tracing off, a plain roll-up counter
        scope) and is recorded into the query metrics and slow-query log.
        """
        obs = obs_runtime.active()
        if obs is None:
            return self._execute_statement(text, None)
        with obs.measure_query(text) as root:
            result = self._execute_statement(text, obs)
            if root is not None:
                try:
                    root.rows_out = len(result)
                except TypeError:
                    pass
            return result

    def _execute_statement(self, text: str, obs):
        key, params = lift(text)
        template = self._template(text, key, params, obs)
        operation = template.operation()
        if operation is not None:
            return operation(params)
        # The key and the lifted values name the text in every cache.
        cache_key = ("sql", key, params)
        plan_cache = self.db.plan_cache
        statement = None
        if plan_cache is not None:
            statement = plan_cache.statement_for(cache_key)
        if statement is None:
            statement = bind_statement(template.statement, params)
            if plan_cache is not None:
                plan_cache.store_statement(cache_key, statement)
        return self.run_statement(statement, self.plan_key(cache_key))

    def plan_key(self, cache_key: tuple) -> Optional[tuple]:
        """The plan- and result-cache key of the statement ``cache_key``
        names, or None when neither cache is installed."""
        db = self.db
        if db.plan_cache is None and db.result_cache is None:
            return None
        # Ordering modes plan the same SQL differently; keep their
        # cached plans and results apart.
        mode = getattr(db.optimizer, "join_ordering", "written")
        if mode != "written":
            return cache_key + (mode,)
        return cache_key

    def _template(self, text: str, key: str, params, obs):
        """The statement of ``text`` with its lifted literals as slots:
        from the template store, or compiled (and stored) now.

        A stored template is valid for the schema epoch it was compiled
        under.  DDL is compiled but not stored (it ends the epoch), and
        neither is a text containing a ``?``, which could spell one of
        the key's typed markers.
        """
        db = self.db
        templates = db.templates
        storable = "?" not in text
        if storable:
            template = templates.get(key)
            if template is None:
                outcome = "miss"
            elif template.epoch == db.catalog.schema_epoch:
                outcome = "hit"
            else:
                templates.invalidate(key)
                outcome = "stale"
            if obs is not None:
                obs.metric_inc(
                    "cache_requests_total", layer="template", outcome=outcome
                )
            if outcome == "hit":
                return template
        with obs_runtime.span("parse", "phase"):
            statement, templated = parse_template(text, params)
        template = PreparedStatement(db, key, statement)
        if not templated:
            if template.parameter_count:
                raise QueryError(
                    "statement contains ? placeholders; use db.prepare(...) "
                    "and execute with bound values"
                )
        elif storable and type(statement) in _TEMPLATED:
            if not template.accepts(params):
                # A literal of the wrong kind for its column: the bound
                # path raises (or answers) exactly as the statement does.
                template.lowered = None
            templates.put(key, template)
        return template

    def run_statement(self, statement, plan_key=None):
        """Run an already-parsed statement.

        ``plan_key`` (when caching is enabled) identifies the statement
        in the plan and result caches; it includes the values in the
        statement's slots.
        """
        if type(statement) is ast.Select:
            return self._run_select(statement, plan_key)
        return self._HANDLERS[type(statement)](self, statement)

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #

    def _run_createtable(self, stmt: ast.CreateTable) -> None:
        fields = []
        for col in stmt.columns:
            references = None
            if col.references is not None:
                references = ForeignKey(col.references[0], col.references[1])
            fields.append(
                Field(col.name, _FIELD_TYPES[col.type_name], references)
            )
        self.db.create_relation(stmt.name, fields, primary_key=stmt.primary_key)

    def _run_createindex(self, stmt: ast.CreateIndex) -> None:
        field: Union[str, List[str]] = (
            stmt.columns[0] if len(stmt.columns) == 1 else list(stmt.columns)
        )
        self.db.create_index(
            stmt.table,
            stmt.name,
            field,
            kind=stmt.kind if stmt.kind is not None else "ttree",
            unique=stmt.unique,
        )

    def _run_droptable(self, stmt: ast.DropTable) -> None:
        self.db.catalog.drop_relation(stmt.name)

    def _run_dropindex(self, stmt: ast.DropIndex) -> None:
        self.db.relation(stmt.table).drop_index(stmt.name)

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #

    def _run_insert(self, stmt: ast.Insert) -> list:
        rows = [list(row) for row in stmt.rows]
        return insert_rows(self.db, stmt.table, rows)

    def _run_update(self, stmt: ast.Update) -> int:
        predicate = _conditions_to_predicate(stmt.conditions)
        matching = self.db.select(stmt.table, predicate)
        count = 0
        for row in list(matching):
            for column, value in stmt.assignments:
                self.db.update(stmt.table, row[0], column, value)
            count += 1
        return count

    def _run_delete(self, stmt: ast.Delete) -> int:
        predicate = _conditions_to_predicate(stmt.conditions)
        matching = self.db.select(stmt.table, predicate)
        count = 0
        for row in list(matching):
            self.db.delete(stmt.table, row[0])
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _split_join_conditions(
        self, stmt: ast.Select
    ) -> Tuple[Optional[Predicate], Optional[Predicate]]:
        """Assign WHERE conditions to the outer or inner relation."""
        outer_rel = self.db.relation(stmt.table)
        inner_rel = self.db.relation(stmt.join_table)
        outer_conditions, inner_conditions = [], []
        for cond in stmt.conditions:
            column = cond.column
            if "." in column:
                qualifier, field = column.rsplit(".", 1)
                if qualifier == stmt.table:
                    outer_conditions.append(
                        ast.Condition(field, cond.op, cond.value, cond.high)
                    )
                    continue
                if qualifier == stmt.join_table:
                    inner_conditions.append(
                        ast.Condition(field, cond.op, cond.value, cond.high)
                    )
                    continue
                raise QueryError(
                    f"WHERE qualifier {qualifier!r} is neither "
                    f"{stmt.table} nor {stmt.join_table}"
                )
            if column in outer_rel.schema.names:
                outer_conditions.append(cond)
            elif column in inner_rel.schema.names:
                inner_conditions.append(cond)
            else:
                raise QueryError(
                    f"WHERE column {column!r} is in neither "
                    f"{stmt.table} nor {stmt.join_table}"
                )
        return (
            _conditions_to_predicate(outer_conditions),
            _conditions_to_predicate(inner_conditions),
        )

    def _build_core_plan(self, stmt: ast.Select):
        """Plan the read core of a SELECT (joins + WHERE, no post-
        processing) without executing it."""
        has_group = any(
            isinstance(cond, ast.ConditionGroup) for cond in stmt.conditions
        )
        if not stmt.joins:
            predicate = _conditions_to_predicate(stmt.conditions)
            return self.db.selection_plan(stmt.table, predicate)
        if has_group or len(stmt.joins) > 1:
            # OR-bearing WHERE clauses over joins go through the generic
            # chain planner (cross-table disjunctions filter post-join).
            return self._join_chain_plan(stmt)
        outer_pred, inner_pred = self._split_join_conditions(stmt)
        clause = stmt.joins[0]
        return self.db.join_plan(
            stmt.table,
            clause.table,
            on=(clause.left, clause.right),
            method=clause.method if clause.method else "auto",
            outer_predicate=outer_pred,
            inner_predicate=inner_pred,
            op=clause.op,
        )

    def _core_result(self, stmt: ast.Select, plan_key) -> TemporaryList:
        """Execute the read core, reusing a cached plan when possible."""
        plan_cache = self.db.plan_cache
        with obs_runtime.span("plan", "phase"):
            if plan_cache is not None and plan_key is not None:
                plan = plan_cache.plan_for(plan_key, self.db.catalog)
                if plan is None:
                    plan = self._build_core_plan(stmt)
                    plan_cache.store_plan(plan_key, plan, self.db.catalog)
            else:
                plan = self._build_core_plan(stmt)
        return self.db.executor.execute(plan)

    def _run_select(self, stmt: ast.Select, plan_key=None):
        result_cache = self.db.result_cache
        if result_cache is not None and plan_key is not None:
            cached = result_cache.lookup_statement(plan_key)
            if cached is not None:
                return cached
        _pause_collector()
        try:
            result = self._select_result(stmt, plan_key)
        finally:
            _resume_collector()
        if result_cache is not None and plan_key is not None:
            tables = [stmt.table] + [clause.table for clause in stmt.joins]
            result_cache.store_statement(plan_key, result, tables)
        return result

    def _select_result(self, stmt: ast.Select, plan_key):
        result = self._core_result(stmt, plan_key)
        if stmt.aggregates or stmt.group_by:
            return self._aggregate(stmt, result)
        if stmt.columns:
            result = self.db.project(
                result, list(stmt.columns), deduplicate=stmt.distinct
            )
        elif stmt.distinct:
            result = self.db.project(
                result, result.descriptor.column_names, deduplicate=True
            )
        if stmt.order_by is not None:
            result = self._order_by(result, stmt.order_by, stmt.order_desc)
        if stmt.limit is not None:
            result = TemporaryList(
                result.descriptor, result.rows()[: stmt.limit]
            )
        return result

    def _aggregate(self, stmt: ast.Select, result: TemporaryList):
        """GROUP BY / aggregate evaluation over a temporary list.

        Returns a :class:`~repro.query.aggregate.ValueTable` of computed
        values (the one result kind that is not tuple pointers).
        """
        from repro.query.aggregate import AggregateSpec, group_aggregate

        if not stmt.aggregates:
            raise QueryError("GROUP BY without aggregates; use DISTINCT")
        # Plain select-list columns must be grouping columns.
        for column in stmt.columns:
            if column not in stmt.group_by:
                raise QueryError(
                    f"column {column!r} must appear in GROUP BY or inside "
                    "an aggregate"
                )
        group_extractors = [
            (name, result.value_extractor(name)) for name in stmt.group_by
        ]
        specs = [
            AggregateSpec(call.func, call.column, call.label)
            for call in stmt.aggregates
        ]
        table = group_aggregate(
            result.rows(), group_extractors, specs, result.value_extractor
        )
        if stmt.order_by is not None:
            table = table.sort_by(stmt.order_by, stmt.order_desc)
        if stmt.limit is not None:
            table = table.limit(stmt.limit)
        return table

    # ------------------------------------------------------------------ #
    # multi-way join chains (left-deep plans)
    # ------------------------------------------------------------------ #

    def _owner_table(self, column: str, tables: Sequence[str]):
        """Which of ``tables`` owns ``column``; returns (table, field).

        A qualified name picks its table directly; a bare name must be
        unambiguous across the joined tables.
        """
        if "." in column:
            qualifier, field = column.rsplit(".", 1)
            if qualifier not in tables:
                raise QueryError(
                    f"qualifier {qualifier!r} is not among {list(tables)}"
                )
            return qualifier, field
        owners = [
            t for t in tables
            if column in self.db.relation(t).schema.names
        ]
        if not owners:
            raise QueryError(
                f"column {column!r} is in none of {list(tables)}"
            )
        if len(owners) > 1:
            raise QueryError(
                f"column {column!r} is ambiguous across {owners}; "
                "qualify it"
            )
        return owners[0], column

    def _chain_method(self, prev_tables, clause: "ast.JoinClause"):
        """Join method + right column for one chain step."""
        from repro.query.plan import REF_COLUMN

        owner, field = self._owner_table(clause.left, prev_tables)
        owner_rel = self.db.relation(owner)
        logical = owner_rel.schema.field(field)
        # Normalise a "Table.field" right column to its bare field when
        # the qualifier names the joined table.
        right = clause.right
        if "." in right:
            qualifier, bare = right.rsplit(".", 1)
            if qualifier == clause.table:
                right = bare
        clause = ast.JoinClause(
            clause.table, clause.left, right, clause.op, clause.method
        )
        is_fk = (
            logical.references is not None
            and logical.references.relation == clause.table
            and logical.references.field == clause.right
        )
        if clause.method is not None:
            method = clause.method
            if method == "precomputed" or is_fk:
                # The stored value is a tuple pointer; every method must
                # compare pointers against the target's own pointer.
                return method, REF_COLUMN
            return method, clause.right
        if clause.op != "=":
            target = self.db.relation(clause.table)
            if (
                clause.op != "!="
                and target.index_on(clause.right, ordered=True) is not None
            ):
                return "tree", clause.right
            return "nested_loops", clause.right
        if is_fk:
            return "precomputed", REF_COLUMN
        return "hash", clause.right

    def _bare_tree(self, tree, tables):
        """Strip table qualifiers from every leaf of a condition tree."""
        if isinstance(tree, ast.ConditionGroup):
            return ast.ConditionGroup(
                tree.op,
                tuple(self._bare_tree(child, tables) for child in tree.children),
            )
        __, field = self._owner_table(tree.column, tables)
        return ast.Condition(field, tree.op, tree.value, tree.high)

    def _residual_predicate(self, tree, tables) -> Predicate:
        """Condition tree → post-join predicate: per-leaf FK rewriting
        plus owner qualification (handles cross-table disjunctions)."""
        from repro.query.predicates import Disjunction

        if isinstance(tree, ast.ConditionGroup):
            parts = tuple(
                self._residual_predicate(child, tables)
                for child in tree.children
            )
            if tree.op == "or":
                return Disjunction(parts)
            return Conjunction(parts)
        owner, field = self._owner_table(tree.column, tables)
        bare = ast.Condition(field, tree.op, tree.value, tree.high)
        rewritten = self.db._rewrite_fk_predicate(
            owner, _tree_to_predicate(bare)
        )
        return rewritten.qualify(owner)

    def _chain_edges(self, stmt: ast.Select, tables: Sequence[str]):
        """The join graph of a chain SELECT as optimizer edges.

        Returns ``None`` whenever any clause falls outside what the
        cost-based orderer can re-order safely: explicit ``USING``
        overrides, non-equijoins, duplicate table names (self-joins),
        foreign-key fields compared by value, or reverse foreign-key
        edges (the pointer lives on the new table's side, so the join is
        only expressible with the pointer owner already in the prefix).
        """
        from repro.query.optimizer import JoinChainEdge

        if len(set(tables)) != len(tables):
            return None
        edges = []
        prev: List[str] = [stmt.table]
        for position, clause in enumerate(stmt.joins):
            if clause.op != "=" or clause.method is not None:
                return None
            try:
                owner, field = self._owner_table(clause.left, prev)
            except (QueryError, SchemaError):
                return None
            right = clause.right
            if "." in right:
                qualifier, bare = right.rsplit(".", 1)
                if qualifier != clause.table:
                    return None
                right = bare
            target = self.db.relation(clause.table)
            if right not in target.schema.names:
                return None
            logical = self.db.relation(owner).schema.field(field)
            if logical.references is not None:
                if (
                    logical.references.relation == clause.table
                    and logical.references.field == right
                ):
                    kind = "fk"
                else:
                    # A REF field compared against an unrelated column:
                    # the stored value is a pointer, keep the written
                    # plan's exact semantics.
                    return None
            elif target.schema.field(right).references is not None:
                # Reverse-FK: the pointer sits on the new table's side.
                return None
            else:
                kind = "value"
            edges.append(
                JoinChainEdge(owner, field, clause.table, right, kind, position)
            )
            prev.append(clause.table)
        return edges

    def _cost_ordered_plan(self, stmt: ast.Select):
        """Cost-ordered plan for a multi-join chain, or ``None``.

        ``None`` means the statement is outside the orderer's safe
        subset and the caller must fold the written order instead.
        Safety here is observational: the reordered plan must produce
        the same rows under the same output labels as the written one.
        """
        from repro.query.optimizer import JoinChainQuery
        from repro.query.plan import FilterNode, ProjectNode
        from repro.storage.temporary import ResultDescriptor, join_descriptor

        tables = [stmt.table] + [clause.table for clause in stmt.joins]
        if len(tables) < 3:
            return None
        edges = self._chain_edges(stmt, tables)
        if edges is None:
            return None
        # A field name owned by 3+ joined tables keeps its bare label on
        # whichever table enters the fold after the first two collide —
        # an order-dependent binding.  Qualified references and 2-owner
        # collisions are invariant (pairwise qualification), so only a
        # *bare* reference to such a name forces the written order.
        owners_per_name: dict = {}
        for t in tables:
            for name in self.db.relation(t).schema.names:
                owners_per_name[name] = owners_per_name.get(name, 0) + 1
        shared = {n for n, c in owners_per_name.items() if c >= 3}
        if shared:
            referenced = list(stmt.columns) + list(stmt.group_by or ())
            referenced += [call.column for call in stmt.aggregates]
            if stmt.order_by is not None:
                referenced.append(stmt.order_by)
            if any(
                name and "." not in name and name in shared
                for name in referenced
            ):
                return None
        per_table = {t: [] for t in tables}
        residual: List[Predicate] = []
        try:
            for cond in stmt.conditions:
                leaves = _tree_leaves(cond)
                owners = {
                    self._owner_table(leaf.column, tables)[0]
                    for leaf in leaves
                }
                if len(owners) == 1:
                    (owner,) = owners
                    per_table[owner].append(self._bare_tree(cond, tables))
                else:
                    residual.append(self._residual_predicate(cond, tables))
        except (QueryError, SchemaError):
            return None  # the written path raises the user-facing error
        predicates = {
            t: self.db._rewrite_fk_predicate(
                t, _conditions_to_predicate(per_table[t])
            )
            for t in tables
        }
        query = JoinChainQuery(tuple(tables), predicates, tuple(edges))
        plan = self.db.optimizer.plan_join_chain(query)
        if plan is None:
            return None
        if residual:
            predicate = (
                residual[0]
                if len(residual) == 1
                else Conjunction(tuple(residual))
            )
            plan = FilterNode(plan, predicate)
        if not stmt.columns and not stmt.aggregates:
            # SELECT *: the reordered chain must show the written chain's
            # column labels in the written order, with every label bound
            # to the same (relation, field).  Simulate both descriptor
            # folds; bail out on any binding drift, re-project when only
            # the column order differs.
            written = ResultDescriptor.whole_relation(
                self.db.relation(tables[0])
            )
            for t in tables[1:]:
                written = join_descriptor(
                    written,
                    ResultDescriptor.whole_relation(self.db.relation(t)),
                )
            chosen = plan.descriptor(self.db.catalog)

            def bindings(desc):
                return {
                    col.name: (desc.sources[col.source].name, col.field)
                    for col in desc.columns
                }

            if bindings(written) != bindings(chosen):
                return None
            if written.column_names != chosen.column_names:
                plan = ProjectNode(plan, written.column_names)
        return plan

    def _join_chain_plan(self, stmt: ast.Select):
        from repro.query.plan import FilterNode, JoinNode, ScanNode

        if getattr(self.db.optimizer, "join_ordering", "written") == "cost":
            plan = self._cost_ordered_plan(stmt)
            if plan is not None:
                return plan
        tables = [stmt.table] + [clause.table for clause in stmt.joins]
        base_conditions: List = []
        residual: List[Predicate] = []
        for cond in stmt.conditions:
            leaves = _tree_leaves(cond)
            owners = {
                self._owner_table(leaf.column, tables)[0] for leaf in leaves
            }
            if owners == {stmt.table}:
                base_conditions.append(self._bare_tree(cond, tables))
            else:
                # Re-qualified so the post-join filter resolves columns
                # against the right sources even when names collide;
                # cross-table disjunctions are fine here.
                residual.append(self._residual_predicate(cond, tables))
        base_pred = self.db._rewrite_fk_predicate(
            stmt.table, _conditions_to_predicate(base_conditions)
        )
        plan = self.db.optimizer.plan_selection(stmt.table, base_pred)
        prev_tables = [stmt.table]
        for clause in stmt.joins:
            method, right_col = self._chain_method(prev_tables, clause)
            plan = JoinNode(
                plan, ScanNode(clause.table), clause.left, right_col,
                method, clause.op,
            )
            prev_tables.append(clause.table)
        if residual:
            predicate = (
                residual[0]
                if len(residual) == 1
                else Conjunction(tuple(residual))
            )
            plan = FilterNode(plan, predicate)
        return plan

    def _order_by(
        self, result: TemporaryList, column: str, descending: bool
    ) -> TemporaryList:
        # Delegated to the executor, whose key hook is the one engine
        # difference: the batch engine reads the key column once (same
        # op counts, one physical read per row).
        rows = self.db.executor.sort_rows(result, column)
        if descending:
            rows.reverse()
        return TemporaryList(result.descriptor, rows)

    def _run_explain(self, stmt: ast.Explain) -> str:
        from repro.obs.explain import render_plan

        if stmt.analyze:
            return self._run_explain_analyze(stmt.select)
        plan = self._build_core_plan(stmt.select)
        return render_plan(plan, self.db.catalog, self.db.optimizer)

    def _run_explain_analyze(self, select: ast.Select) -> str:
        """Execute the SELECT under a span tracer and render the span
        tree with estimated vs. actual rows and per-operator counters.

        A temporary tracing-only :class:`~repro.obs.Observability` is
        activated for the duration (and the previous instance restored),
        so EXPLAIN ANALYZE works whether or not the user has configured
        observability — without polluting any configured metrics.
        """
        from repro.obs import Observability, ObservabilityConfig
        from repro.obs.explain import render_analyze

        local = Observability(
            ObservabilityConfig(metrics=False, slow_query_ops=None)
        )
        previous = obs_runtime.activate(local)
        try:
            with local.tracer.span("query", kind="query") as root:
                result = self.run_statement(select, None)
                try:
                    root.rows_out = len(result)
                except TypeError:
                    pass
        finally:
            if previous is None:
                obs_runtime.deactivate()
            else:
                obs_runtime.activate(previous)
        return render_analyze(root, self.db.catalog, self.db.optimizer)

    #: Statement type -> handler (``Select`` is dispatched by hand: it
    #: alone takes the plan key).
    _HANDLERS = {
        ast.CreateTable: _run_createtable,
        ast.CreateIndex: _run_createindex,
        ast.DropTable: _run_droptable,
        ast.DropIndex: _run_dropindex,
        ast.Insert: _run_insert,
        ast.Update: _run_update,
        ast.Delete: _run_delete,
        ast.Explain: _run_explain,
    }


#: Statement types the template store keeps.
_TEMPLATED = frozenset(
    (ast.Select, ast.Insert, ast.Update, ast.Delete, ast.Explain)
)
