"""Statement templates: literal lifting and lowered point operations.

``db.sql("... WHERE Id = 17")`` and ``db.sql("... WHERE Id = 18")`` are
the same statement with a different constant.  :func:`lift` takes the
constants out of the text in one regex pass and leaves a *template key*
(``... WHERE Id = ?i``) plus the lifted values ``(17,)``; the key names
the statement in the per-database template store and, together with the
values, in the AST, plan and result caches — it is the only text→key
pass a statement pays.  :func:`parse_template` turns a text into the
parsed statement whose lifted literals are ``?`` slots (the store's
entries are :class:`~repro.sql.prepared.PreparedStatement` objects built
from it), and :func:`lower` compiles the statements whose plan does not
depend on the values — a single-key index lookup, an ``INSERT ...
VALUES`` — into one closure that goes straight to the index and the
database facade.

Key format: the statement text with every lifted literal replaced by a
typed marker — ``?i`` (integer), ``?f`` (float), ``?s`` (string) — with
whitespace runs collapsed and a trailing ``;`` dropped.  The literal
*kind* is part of the key, so ``Id = 1``, ``Id = 1.0`` and ``Id = '1'``
never share an entry.  A literal the ``?`` grammar does not accept (the
count of ``LIMIT n``) stays in the key.  A text that itself contains a
``?`` is never looked up or stored (see ``SQLInterpreter``): only then
can a key's typed markers be told from the user's own characters.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, QueryError, SchemaError
from repro.query.executor import lookup_index
from repro.query.plan import IndexLookupNode
from repro.query.predicates import Comparison, Op
from repro.sql import parser as ast
from repro.sql.lexer import (
    IDENT_CONTINUE,
    SIGN,
    STRING_PATTERN,
    SQLSyntaxError,
    Token,
    TokenType,
    unquote,
)
from repro.storage.temporary import ResultDescriptor, TemporaryList

#: Entries of the per-database template store.  Templates are statement
#: *shapes*; an application has tens of them, so this is a constant, not
#: a setting.
TEMPLATE_CAPACITY = 256

# A string literal, or a number that does not continue an identifier
# (``T0.c1`` holds no literal) and is not the count of ``LIMIT n``.  The
# number branch consumes its first character — a sign or a digit — before
# the look-behinds, so the pattern starts with a fixed character set
# (quote, sign or digit) the regex engine can skip to; a sign must be
# followed by a digit.  It matches exactly the lexer's float | int, so
# ``-1`` and ``1`` share a key.
_LIFT_RE = re.compile(
    rf"({STRING_PATTERN}"
    rf"|[{SIGN}\d](?<![{IDENT_CONTINUE}]\d)(?<![Ll][Ii][Mm][Ii][Tt]\s\d)"
    rf"(?<=\d|{SIGN}(?=\d))\d*(?:\.\d+)?)"
)


def lift(text: str) -> Tuple[str, Tuple[Any, ...]]:
    """``(template key, lifted literal values)`` of a statement text."""
    parts = _LIFT_RE.split(text)
    params: List[Any] = []
    for position in range(1, len(parts), 2):
        literal = parts[position]
        if literal[0] == "'":
            params.append(unquote(literal))
            parts[position] = "?s"
        elif "." in literal:
            params.append(float(literal))
            parts[position] = "?f"
        else:
            params.append(int(literal))
            parts[position] = "?i"
    # No string literal is left in the key, so collapsing whitespace
    # cannot change a constant.
    key = " ".join("".join(parts).split())
    if key.endswith(";"):
        key = key[:-1].rstrip()
    return key, tuple(params)


_LITERALS = {
    TokenType.INT: int,
    TokenType.FLOAT: float,
    TokenType.STRING: str,
}


def parse_template(text: str, params: Sequence[Any]) -> Tuple[Any, bool]:
    """Parse ``text`` with the literals :func:`lift` took out as slots.

    Returns ``(statement, templated)``.  ``templated`` is true when the
    statement carries one :class:`~repro.sql.parser.Parameter` per value
    of ``params``, in order.  It is false — and the statement is the
    plain parse of ``text`` — when the text has placeholders of its
    own, when a lifted literal sits where the grammar takes no ``?``,
    or when the lexer disagrees with the lifter about the literals (the
    statement then simply is not templated).  Syntax errors are the
    ones parsing ``text`` itself raises.
    """
    tokens = ast.tokenize(text)
    lifted = [
        position
        for position, token in enumerate(tokens)
        if token.type in _LITERALS
        and not (
            token.type is TokenType.INT
            and tokens[position - 1].is_keyword("LIMIT")
        )
    ]
    values = [
        _LITERALS[tokens[position].type](tokens[position].value)
        for position in lifted
    ]
    agreed = (
        len(values) == len(params)
        and all(
            type(value) is type(param) and value == param
            for value, param in zip(values, params)
        )
        and not any(
            token.type is TokenType.PUNCT and token.value == "?"
            for token in tokens
        )
    )
    if agreed:
        slotted = list(tokens)
        for position in lifted:
            slotted[position] = Token(
                TokenType.PUNCT, "?", tokens[position].position
            )
        try:
            return ast.parse_tokens(slotted), True
        except SQLSyntaxError:
            pass  # the text's own parse raises the user-facing error
    return ast.parse_tokens(tokens), False


# --------------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------------- #

#: Stands for "the value of the slot" when the planner is asked which
#: access path an equality takes: the answer must not depend on it.
_PROBE = object()


def lower(db, statement) -> Optional[Callable[[Sequence[Any]], Any]]:
    """The operation ``statement`` lowers to, or None.

    A lowered operation takes the slot values and returns what
    ``run_statement`` would for the bound statement — same rows, same
    exceptions, same Section-3.1 counts — without building a predicate
    tree, planning, or dispatching a plan node.  Only statements whose
    plan cannot depend on the values are lowered: ``INSERT ... VALUES``,
    and a single-table ``SELECT`` / ``DELETE`` / ``UPDATE`` whose whole
    WHERE clause is ``column = ?`` on a non-foreign-key column that
    ``plan_selection`` serves with one index lookup.

    The closures hold the database, the relation and the index and look
    every method up at call time (``index.search_all``, ``db.insert``):
    a wrapper installed on a class after compilation is still reached.
    They are only valid for the schema epoch they were compiled under.
    """
    if isinstance(statement, ast.Insert):
        return _lower_insert(db, statement)
    if isinstance(statement, (ast.Select, ast.Delete, ast.Update)):
        try:
            return _lower_point(db, statement)
        except (CatalogError, QueryError, SchemaError):
            return None  # the bound path raises the user-facing error
    return None


def _lower_insert(db, statement: ast.Insert):
    table = statement.table
    # Per value: (slot index, None) or (None, constant).
    rows = tuple(
        tuple(
            (value.index, None)
            if isinstance(value, ast.Parameter)
            else (None, value)
            for value in row
        )
        for row in statement.rows
    )

    def insert(params: Sequence[Any]) -> list:
        return insert_rows(
            db,
            table,
            [
                [
                    constant if slot is None else params[slot]
                    for slot, constant in row
                ]
                for row in rows
            ],
        )

    return insert


def insert_rows(db, table: str, rows) -> list:
    """Insert ``rows`` into ``table`` all or nothing: when a row fails,
    the rows already inserted are deleted, newest first, and the error
    re-raised.  Returns the new tuple pointers."""
    refs = []
    try:
        for row in rows:
            refs.append(db.insert(table, row))
    except Exception:
        for ref in reversed(refs):
            db.delete(table, ref)
        raise
    return refs


def _lower_point(db, statement):
    if len(statement.conditions) != 1:
        return None
    condition = statement.conditions[0]
    if (
        not isinstance(condition, ast.Condition)
        or condition.op != "="
        or not isinstance(condition.value, ast.Parameter)
    ):
        return None
    if isinstance(statement, ast.Select) and (
        statement.joins
        or statement.aggregates
        or statement.group_by
        or statement.distinct
        or statement.order_by is not None
        or statement.limit is not None
    ):
        return None
    table = statement.table
    relation = db.catalog.relation(table)
    column = condition.column
    if (
        column not in relation.schema.names
        or relation.schema.field(column).references is not None
    ):
        # A foreign-key column stores a pointer: its equality is
        # rewritten per value (``_rewrite_fk_predicate``).
        return None
    plan = db.optimizer.plan_selection(
        table, Comparison(column, Op.EQ, _PROBE)
    )
    if not isinstance(plan, IndexLookupNode) or plan.key is not _PROBE:
        return None
    index = lookup_index(relation, plan)
    slot = condition.value.index

    if isinstance(statement, ast.Select):
        descriptor = ResultDescriptor.whole_relation(relation)
        if statement.columns:
            descriptor = descriptor.project(list(statement.columns))

        def select(params: Sequence[Any]) -> TemporaryList:
            refs = index.search_all(params[slot])
            return TemporaryList(descriptor, [(ref,) for ref in refs])

        return select

    if isinstance(statement, ast.Delete):

        def delete(params: Sequence[Any]) -> int:
            refs = index.search_all(params[slot])
            for ref in refs:
                db.delete(table, ref)
            return len(refs)

        return delete

    # Per assignment: (column, slot index or None, constant).
    assignments = tuple(
        (name, value.index, None)
        if isinstance(value, ast.Parameter)
        else (name, None, value)
        for name, value in statement.assignments
    )

    def update(params: Sequence[Any]) -> int:
        refs = index.search_all(params[slot])
        for ref in refs:
            for name, value_slot, constant in assignments:
                db.update(
                    table,
                    ref,
                    name,
                    constant if value_slot is None else params[value_slot],
                )
        return len(refs)

    return update
