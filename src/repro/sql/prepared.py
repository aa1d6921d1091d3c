"""Prepared statements: parse and type-infer once, bind per execution.

``MainMemoryDatabase.prepare("SELECT ... WHERE Id = ?")`` lowers the
statement through the lexer and parser exactly once, and ``db.sql()``
keeps one :class:`PreparedStatement` per statement *shape* in the
template store (its ``?`` slots are the literals
:func:`repro.sql.template.lift` took out of the text).  Either way a
statement whose plan does not depend on the slot values executes its
lowered operation (:func:`repro.sql.template.lower`, gated by
:meth:`PreparedStatement.operation`); every other one binds the values
into a fresh AST and takes ``SQLInterpreter.run_statement`` — with the
plan cache enabled, repeated executions with equal values also skip the
optimizer and, on a read-only workload, the executor itself.

This module holds the only slot-typing and binding code: the expected
type of a slot is inferred from its syntactic position against the
schema, ``execute`` checks user-supplied values against it, and the
template store asks :meth:`PreparedStatement.accepts` once per shape.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, QueryError, SchemaError
from repro.obs import runtime as obs_runtime
from repro.sql.parser import (
    Condition,
    ConditionGroup,
    Delete,
    Explain,
    Insert,
    Parameter,
    Select,
    Update,
    parse_statement,
)
from repro.sql.template import lift, lower
from repro.storage.schema import FieldType


def _condition_parameters(conditions) -> List[Tuple[Parameter, str]]:
    """(parameter, column) pairs from a condition tuple/tree."""
    found: List[Tuple[Parameter, str]] = []
    for node in conditions:
        if isinstance(node, ConditionGroup):
            found.extend(_condition_parameters(node.children))
        elif isinstance(node, Condition):
            if isinstance(node.value, Parameter):
                found.append((node.value, node.column))
            if isinstance(node.high, Parameter):
                found.append((node.high, node.column))
    return found


def _parameter_slots(statement) -> List[Tuple[Parameter, Optional[str], Optional[int]]]:
    """Every parameter with its (column, insert-position) context.

    ``column`` is set for condition/assignment parameters, the integer
    position for INSERT row parameters; both None when the context gives
    no typing information.
    """
    slots: List[Tuple[Parameter, Optional[str], Optional[int]]] = []
    if isinstance(statement, Explain):
        statement = statement.select
    if isinstance(statement, (Select, Delete)):
        for param, column in _condition_parameters(statement.conditions):
            slots.append((param, column, None))
    elif isinstance(statement, Update):
        for column, value in statement.assignments:
            if isinstance(value, Parameter):
                slots.append((value, column, None))
        for param, column in _condition_parameters(statement.conditions):
            slots.append((param, column, None))
    elif isinstance(statement, Insert):
        for row in statement.rows:
            for position, value in enumerate(row):
                if isinstance(value, Parameter):
                    slots.append((value, None, position))
    return slots


def _bind_conditions(conditions, values: Sequence[Any]):
    bound = []
    for node in conditions:
        if isinstance(node, ConditionGroup):
            bound.append(
                ConditionGroup(node.op, _bind_conditions(node.children, values))
            )
        elif isinstance(node, Condition):
            value, high = node.value, node.high
            if isinstance(value, Parameter):
                value = values[value.index]
            if isinstance(high, Parameter):
                high = values[high.index]
            bound.append(Condition(node.column, node.op, value, high))
        else:
            bound.append(node)
    return tuple(bound)


def bind_statement(statement, values: Sequence[Any]):
    """A copy of ``statement`` with every ``?`` replaced by its value."""
    if isinstance(statement, Explain):
        return Explain(
            bind_statement(statement.select, values), statement.analyze
        )
    if isinstance(statement, (Select, Delete)):
        return dataclasses.replace(
            statement, conditions=_bind_conditions(statement.conditions, values)
        )
    if isinstance(statement, Update):
        assignments = tuple(
            (
                column,
                values[value.index] if isinstance(value, Parameter) else value,
            )
            for column, value in statement.assignments
        )
        return Update(
            statement.table,
            assignments,
            _bind_conditions(statement.conditions, values),
        )
    if isinstance(statement, Insert):
        rows = tuple(
            tuple(
                values[v.index] if isinstance(v, Parameter) else v
                for v in row
            )
            for row in statement.rows
        )
        return Insert(statement.table, rows)
    return statement


class PreparedStatement:
    """A parsed, type-inferred SQL statement with ``?`` placeholders.

    ``statement`` is given by the template store, whose statements are
    parsed from a token stream rather than from ``text``.
    """

    def __init__(self, db, text: str, statement=None) -> None:
        self.db = db
        self.text = text
        self.statement = (
            statement if statement is not None else parse_statement(text)
        )
        self._slots = _parameter_slots(self.statement)
        indices = sorted({param.index for param, __, __ in self._slots})
        self.parameter_count = len(indices)
        if indices != list(range(self.parameter_count)):
            raise QueryError("malformed parameter numbering")  # pragma: no cover
        #: Names a ``db.prepare`` statement in the plan and result
        #: caches, together with the bound values (set by ``execute``;
        #: the template store's statements are keyed by their caller).
        self._cache_key: Optional[tuple] = None
        self._resolve()

    def _resolve(self) -> None:
        """(Re)derive what depends on the schema: the expected logical
        type per parameter (None when the position gives no information)
        and the lowered operation.  Both are valid for one schema epoch.
        """
        self.epoch = self.db.catalog.schema_epoch
        self.parameter_types: List[Optional[FieldType]] = [
            None
        ] * self.parameter_count
        for param, column, position in self._slots:
            inferred = self._infer_type(column, position)
            if inferred is not None:
                self.parameter_types[param.index] = inferred
        self.lowered = lower(self.db, self.statement)

    # -- type inference ----------------------------------------------------

    def _tables(self) -> List[str]:
        statement = self.statement
        if isinstance(statement, Explain):
            statement = statement.select
        tables = [statement.table]
        if isinstance(statement, Select):
            tables.extend(join.table for join in statement.joins)
        return tables

    def _infer_type(
        self, column: Optional[str], position: Optional[int]
    ) -> Optional[FieldType]:
        statement = self.statement
        if isinstance(statement, Explain):
            statement = statement.select
        try:
            if position is not None:
                schema = self.db.catalog.relation(statement.table).schema
                if position < len(schema.fields):
                    return schema.fields[position].type
                return None
            if column is None:
                return None
            candidates: List[FieldType] = []
            if "." in column:
                qualifier, bare = column.rsplit(".", 1)
                if qualifier in self._tables():
                    schema = self.db.catalog.relation(qualifier).schema
                    if bare in schema.names:
                        return schema.field(bare).type
                return None
            for table in self._tables():
                schema = self.db.catalog.relation(table).schema
                if column in schema.names:
                    candidates.append(schema.field(column).type)
            if len(candidates) == 1:
                return candidates[0]
            return None
        except CatalogError:
            return None

    # -- binding -----------------------------------------------------------

    def _check(self, values: Sequence[Any]) -> None:
        """Raise :class:`QueryError` unless ``values`` fit the slots."""
        if len(values) != self.parameter_count:
            raise QueryError(
                f"statement takes {self.parameter_count} parameter(s), "
                f"got {len(values)}"
            )
        for index, value in enumerate(values):
            expected = self.parameter_types[index]
            if expected is None or value is None:
                continue
            try:
                expected.validate(value)
            except SchemaError as exc:
                raise QueryError(
                    f"parameter {index + 1}: {exc}"
                ) from None

    def accepts(self, values: Sequence[Any]) -> bool:
        """Whether ``values`` pass the slot type checks."""
        try:
            self._check(values)
        except QueryError:
            return False
        return True

    def bind(self, *values: Any):
        """Type-check ``values`` and return the bound AST."""
        self._check(values)
        return bind_statement(self.statement, values)

    # -- execution ---------------------------------------------------------

    def operation(self):
        """The lowered operation if it may run now, else None.

        It may not when something needs the statement-level path:
        observability wants its spans and probe metrics, a result cache
        its lookups and stores.
        """
        if (
            self.lowered is not None
            and self.db.result_cache is None
            and obs_runtime.active() is None
        ):
            return self.lowered
        return None

    def execute(self, *values: Any):
        """Type-check ``values``, then run the statement with them.

        Returns whatever ``db.sql`` would for the same statement type.
        """
        if self.epoch != self.db.catalog.schema_epoch:
            self._resolve()
        self._check(values)
        operation = self.operation()
        if operation is not None:
            return operation(values)
        interpreter = self.db._sql_interpreter
        plan_key = None
        try:
            hash(values)
        except TypeError:
            pass  # unhashable binding: run uncached
        else:
            if self._cache_key is None:
                self._cache_key = ("prepared",) + lift(self.text)
            plan_key = interpreter.plan_key(self._cache_key + (values,))
        return interpreter.run_statement(
            bind_statement(self.statement, values), plan_key
        )

    def explain(self, *values: Any) -> str:
        """Plan description for this statement with ``values`` bound."""
        bound = self.bind(*values)
        if not isinstance(bound, Select):
            raise QueryError("explain requires a SELECT statement")
        return self.db._sql_interpreter.run_statement(Explain(bound), None)
