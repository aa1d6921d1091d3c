"""Recursive-descent parser for the SQL subset.

Grammar (keywords case-insensitive)::

    statement      := create_table | create_index | drop | insert
                    | select | update | delete | explain
    create_table   := CREATE TABLE ident '(' column (',' column)*
                      [',' PRIMARY KEY '(' ident ')'] ')'
    column         := ident type [REFERENCES ident '(' ident ')']
    type           := INT | INTEGER | FLOAT | REAL | TEXT | STR | STRING
                    | VARCHAR
    create_index   := CREATE [UNIQUE] INDEX ident ON ident
                      '(' ident (',' ident)* ')' [USING ident]
    drop           := DROP TABLE ident | DROP INDEX ident ON ident
    insert         := INSERT INTO ident VALUES row (',' row)*
    row            := '(' literal (',' literal)* ')'
    select         := SELECT [DISTINCT] select_items
                      FROM ident (JOIN ident ON ident op ident
                                  [USING ident])*
                      [WHERE condition (AND condition)*]
                      [GROUP BY ident (',' ident)*]
                      [ORDER BY ident [ASC|DESC]] [LIMIT int]
    select_items   := '*' | select_item (',' select_item)*
    select_item    := ident
                    | agg '(' ('*' | ident) ')' [AS ident]
    agg            := COUNT | SUM | AVG | MIN | MAX
    where_expr     := and_chain (OR and_chain)*     -- AND binds tighter
    and_chain      := condition (AND condition)*
    condition      := ident op literal
                    | ident BETWEEN literal AND literal
    update         := UPDATE ident SET ident '=' literal
                      (',' ident '=' literal)*
                      [WHERE condition (AND condition)*]
    delete         := DELETE FROM ident
                      [WHERE condition (AND condition)*]
    explain        := EXPLAIN [ANALYZE] select
    literal        := int | float | string | NULL | '?'
                      -- an int or float may carry a leading '-'

Statements parse into plain dataclasses (below); the interpreter lowers
them onto the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.sql.lexer import SQLSyntaxError, Token, TokenType, tokenize

__all__ = [
    "AggregateCall",
    "ConditionGroup",
    "JoinClause",
    "SQLSyntaxError",
    "parse_statement",
    "parse_tokens",
    "CreateTable",
    "CreateIndex",
    "DropTable",
    "DropIndex",
    "Insert",
    "Select",
    "Update",
    "Delete",
    "Explain",
    "ColumnDef",
    "Condition",
    "Parameter",
]

_TYPES = {
    "INT": "int", "INTEGER": "int",
    "FLOAT": "float", "REAL": "float",
    "TEXT": "str", "STR": "str", "STRING": "str", "VARCHAR": "str",
}


@dataclass(frozen=True)
class Parameter:
    """A ``?`` placeholder in a prepared statement, by 0-based position.

    Parameters may appear anywhere a literal may: conditions, INSERT
    rows, and UPDATE assignments.  Executing a statement that still
    contains unbound parameters is a :class:`~repro.errors.QueryError`;
    :mod:`repro.sql.prepared` substitutes values per execution.
    """

    index: int


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # "int" | "float" | "str"
    references: Optional[Tuple[str, str]] = None  # (table, column)


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Optional[str] = None


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False
    kind: Optional[str] = None


@dataclass(frozen=True)
class DropTable:
    name: str


@dataclass(frozen=True)
class DropIndex:
    name: str
    table: str


@dataclass(frozen=True)
class Insert:
    table: str
    rows: Tuple[Tuple[Any, ...], ...]


@dataclass(frozen=True)
class JoinClause:
    """One JOIN step: ``JOIN table ON left op right [USING method]``.

    ``left`` names a column of the accumulated result so far; ``right``
    a column of the newly joined ``table``.
    """

    table: str
    left: str
    right: str
    op: str = "="
    method: Optional[str] = None


@dataclass(frozen=True)
class AggregateCall:
    """``func(column) AS label`` in a select list (column None = ``*``)."""

    func: str  # "count" | "sum" | "avg" | "min" | "max"
    column: Optional[str]
    label: str


@dataclass(frozen=True)
class Condition:
    column: str
    op: str  # "=", "!=", "<", "<=", ">", ">=", "between"
    value: Any
    high: Any = None  # BETWEEN only


@dataclass(frozen=True)
class ConditionGroup:
    """A boolean combination of conditions: op is "and" or "or".

    A WHERE clause without OR parses to a flat tuple of :class:`Condition`
    (implicit AND, the historical shape); one containing OR parses to a
    single :class:`ConditionGroup` tree.
    """

    op: str  # "and" | "or"
    children: Tuple[Any, ...]  # Condition | ConditionGroup


@dataclass(frozen=True)
class Select:
    table: str
    columns: Tuple[str, ...]  # empty tuple means '*' (when no aggregates)
    distinct: bool = False
    aggregates: Tuple[AggregateCall, ...] = ()
    group_by: Tuple[str, ...] = ()
    joins: Tuple[JoinClause, ...] = ()
    conditions: Tuple[Condition, ...] = ()
    order_by: Optional[str] = None
    order_desc: bool = False
    limit: Optional[int] = None

    # Legacy single-join accessors (the first JOIN clause, or None).
    @property
    def join_table(self) -> Optional[str]:
        return self.joins[0].table if self.joins else None

    @property
    def join_left(self) -> Optional[str]:
        return self.joins[0].left if self.joins else None

    @property
    def join_right(self) -> Optional[str]:
        return self.joins[0].right if self.joins else None

    @property
    def join_op(self) -> str:
        return self.joins[0].op if self.joins else "="

    @property
    def join_method(self) -> Optional[str]:
        return self.joins[0].method if self.joins else None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    conditions: Tuple[Condition, ...] = ()


@dataclass(frozen=True)
class Delete:
    table: str
    conditions: Tuple[Condition, ...] = ()


@dataclass(frozen=True)
class Explain:
    select: Select
    analyze: bool = False


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._param_count = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #

    def peek(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.END:
            self._index += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.advance()
        if not token.is_keyword(word):
            raise SQLSyntaxError(
                f"expected {word}, got {token.value!r} at {token.position}"
            )
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        token = self.advance()
        if token.type is not TokenType.PUNCT or token.value != char:
            raise SQLSyntaxError(
                f"expected {char!r}, got {token.value!r} at {token.position}"
            )

    def accept_punct(self, char: str) -> bool:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value == char:
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        token = self.advance()
        if token.type is not TokenType.IDENT:
            raise SQLSyntaxError(
                f"expected identifier, got {token.value!r} at "
                f"{token.position}"
            )
        return token.value

    def literal(self) -> Any:
        token = self.advance()
        if token.type is TokenType.INT:
            return int(token.value)
        if token.type is TokenType.FLOAT:
            return float(token.value)
        if token.type is TokenType.STRING:
            return token.value
        if token.is_keyword("NULL"):
            return None
        if token.type is TokenType.PUNCT and token.value == "?":
            parameter = Parameter(self._param_count)
            self._param_count += 1
            return parameter
        raise SQLSyntaxError(
            f"expected literal, got {token.value!r} at {token.position}"
        )

    def end(self) -> None:
        self.accept_punct(";")
        token = self.peek()
        if token.type is not TokenType.END:
            raise SQLSyntaxError(
                f"trailing input from {token.value!r} at {token.position}"
            )

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def statement(self):
        token = self.peek()
        if token.is_keyword("CREATE"):
            return self.create()
        if token.is_keyword("DROP"):
            return self.drop()
        if token.is_keyword("INSERT"):
            return self.insert()
        if token.is_keyword("SELECT"):
            select = self.select()
            self.end()
            return select
        if token.is_keyword("UPDATE"):
            return self.update()
        if token.is_keyword("DELETE"):
            return self.delete()
        if token.is_keyword("EXPLAIN"):
            self.advance()
            analyze = self.accept_keyword("ANALYZE")
            select = self.select()
            self.end()
            return Explain(select, analyze)
        raise SQLSyntaxError(
            f"unknown statement start {token.value!r} at {token.position}"
        )

    def create(self):
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.create_table()
        unique = self.accept_keyword("UNIQUE")
        self.expect_keyword("INDEX")
        return self.create_index(unique)

    def create_table(self) -> CreateTable:
        name = self.expect_ident()
        self.expect_punct("(")
        columns: List[ColumnDef] = []
        primary_key: Optional[str] = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_punct("(")
                primary_key = self.expect_ident()
                self.expect_punct(")")
            else:
                columns.append(self.column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        self.end()
        if not columns:
            raise SQLSyntaxError("a table needs at least one column")
        return CreateTable(name, tuple(columns), primary_key)

    def column_def(self) -> ColumnDef:
        name = self.expect_ident()
        type_token = self.advance()
        type_word = type_token.value.upper()
        if type_word not in _TYPES:
            raise SQLSyntaxError(
                f"unknown column type {type_token.value!r} at "
                f"{type_token.position}"
            )
        references = None
        if self.accept_keyword("REFERENCES"):
            target_table = self.expect_ident()
            self.expect_punct("(")
            target_column = self.expect_ident()
            self.expect_punct(")")
            references = (target_table, target_column)
        return ColumnDef(name, _TYPES[type_word], references)

    def create_index(self, unique: bool) -> CreateIndex:
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.expect_punct("(")
        columns = [self.expect_ident()]
        while self.accept_punct(","):
            columns.append(self.expect_ident())
        self.expect_punct(")")
        kind = None
        if self.accept_keyword("USING"):
            kind = self.expect_ident()
        self.end()
        return CreateIndex(name, table, tuple(columns), unique, kind)

    def drop(self):
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            name = self.expect_ident()
            self.end()
            return DropTable(name)
        self.expect_keyword("INDEX")
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.end()
        return DropIndex(name, table)

    def insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        self.expect_keyword("VALUES")
        rows = [self.value_row()]
        while self.accept_punct(","):
            rows.append(self.value_row())
        self.end()
        return Insert(table, tuple(rows))

    def value_row(self) -> Tuple[Any, ...]:
        self.expect_punct("(")
        values = [self.literal()]
        while self.accept_punct(","):
            values.append(self.literal())
        self.expect_punct(")")
        return tuple(values)

    _AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def select_item(self):
        """Either a plain column name or an aggregate call."""
        name = self.expect_ident()
        if name.upper() in self._AGG_FUNCS and self.accept_punct("("):
            func = name.lower()
            if self.accept_punct("*"):
                column = None
            else:
                column = self.expect_ident()
            self.expect_punct(")")
            label = f"{func}({column if column is not None else '*'})"
            if self.accept_keyword("AS"):
                label = self.expect_ident()
            return AggregateCall(func, column, label)
        return name

    def select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        columns: List[str] = []
        aggregates: List[AggregateCall] = []
        if self.accept_punct("*"):
            pass
        else:
            items = [self.select_item()]
            while self.accept_punct(","):
                items.append(self.select_item())
            for item in items:
                if isinstance(item, AggregateCall):
                    aggregates.append(item)
                else:
                    columns.append(item)
        self.expect_keyword("FROM")
        table = self.expect_ident()
        joins: List[JoinClause] = []
        while self.accept_keyword("JOIN"):
            join_table = self.expect_ident()
            self.expect_keyword("ON")
            join_left = self.expect_ident()
            op_token = self.advance()
            if op_token.type is not TokenType.OP:
                raise SQLSyntaxError(
                    f"expected join operator, got {op_token.value!r}"
                )
            join_method = None
            join_right = self.expect_ident()
            if self.accept_keyword("USING"):
                join_method = self.expect_ident()
            joins.append(
                JoinClause(
                    join_table, join_left, join_right,
                    op_token.value, join_method,
                )
            )
        conditions = self.where_clause()
        group_by: List[str] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.expect_ident())
            while self.accept_punct(","):
                group_by.append(self.expect_ident())
        order_by, order_desc = None, False
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.expect_ident()
            if self.accept_keyword("DESC"):
                order_desc = True
            else:
                self.accept_keyword("ASC")
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.type is not TokenType.INT or token.value[0] == "-":
                raise SQLSyntaxError(
                    f"LIMIT needs a non-negative integer, got {token.value!r}"
                )
            limit = int(token.value)
        return Select(
            table=table,
            columns=tuple(columns),
            distinct=distinct,
            aggregates=tuple(aggregates),
            group_by=tuple(group_by),
            joins=tuple(joins),
            conditions=conditions,
            order_by=order_by,
            order_desc=order_desc,
            limit=limit,
        )

    def where_clause(self) -> Tuple[Any, ...]:
        if not self.accept_keyword("WHERE"):
            return ()
        tree = self.or_expression()
        # Pure-AND clauses keep the historical flat-tuple shape.
        if isinstance(tree, Condition):
            return (tree,)
        if isinstance(tree, ConditionGroup) and tree.op == "and" and all(
            isinstance(child, Condition) for child in tree.children
        ):
            return tree.children
        return (tree,)

    def or_expression(self):
        branches = [self.and_expression()]
        while self.accept_keyword("OR"):
            branches.append(self.and_expression())
        if len(branches) == 1:
            return branches[0]
        return ConditionGroup("or", tuple(branches))

    def and_expression(self):
        conditions = [self.condition()]
        while self.accept_keyword("AND"):
            conditions.append(self.condition())
        if len(conditions) == 1:
            return conditions[0]
        return ConditionGroup("and", tuple(conditions))

    def condition(self) -> Condition:
        column = self.expect_ident()
        if self.accept_keyword("BETWEEN"):
            low = self.literal()
            self.expect_keyword("AND")
            high = self.literal()
            return Condition(column, "between", low, high)
        op_token = self.advance()
        if op_token.type is not TokenType.OP:
            raise SQLSyntaxError(
                f"expected comparison operator, got {op_token.value!r} at "
                f"{op_token.position}"
            )
        return Condition(column, op_token.value, self.literal())

    def update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self.assignment()]
        while self.accept_punct(","):
            assignments.append(self.assignment())
        conditions = self.where_clause()
        self.end()
        return Update(table, tuple(assignments), conditions)

    def assignment(self) -> Tuple[str, Any]:
        column = self.expect_ident()
        token = self.advance()
        if token.type is not TokenType.OP or token.value != "=":
            raise SQLSyntaxError(
                f"expected '=', got {token.value!r} at {token.position}"
            )
        return column, self.literal()

    def delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        conditions = self.where_clause()
        self.end()
        return Delete(table, conditions)


def parse_tokens(tokens: List[Token]):
    """Parse one statement's token stream into its AST dataclass."""
    return _Parser(tokens).statement()


def parse_statement(text: str):
    """Parse one SQL statement into its AST dataclass."""
    return parse_tokens(tokenize(text))
