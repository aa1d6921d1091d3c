"""Predicate compilation: AST -> one batch-mask closure per operator.

The tuple engine dispatches through the predicate AST once *per tuple*
(``Predicate.matches`` -> enum checks -> reader closure -> extractor).
Here the AST is walked once per operator and lowered into a chain of
eval-free closures over item *positions*: evaluating a batch reads each
field the predicate names through its ``column`` form (one
``Relation.reader`` pass), runs one list comprehension per comparison
and updates the counters in bulk.

A field is read at most once per item per batch: a field that more than
one comparison names keeps its values in a per-batch column indexed by
position, filled only at the positions some comparison evaluates.

Counting is tuple-engine-equivalent by construction:

* a :class:`Comparison` pass charges one comparison per evaluated item
  (two for BETWEEN, which always tests both bounds) and — in filter
  context — one traversal per evaluated item, exactly what
  ``Comparison.matches`` over counted extractors charges;
* :class:`Conjunction` / :class:`Disjunction` compile to short-circuit
  cascades: each later part is evaluated only at the positions still
  live (AND) or still dead (OR), matching ``all()`` / ``any()``
  short-circuiting item by item — so no field is read, and no storage
  error raised, for an item the per-item path would not read either;
* any other :class:`Predicate` subclass (e.g. the engine's rewritten
  foreign-key comparisons) falls back to row-wise ``matches`` against a
  reader with tuple-engine counting, so nothing is miscounted even for
  predicates this module knows nothing about.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.instrument import count_compare, count_traverse
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Op,
    Predicate,
)

#: ``items -> [bool per item]``
MaskFn = Callable[[Sequence[Any]], List[bool]]

#: ``(items, positions or None for all, per-batch columns) -> the
#: positions that pass, ascending``
SelectFn = Callable[
    [Sequence[Any], Optional[Sequence[int]], Dict[str, list]], List[int]
]

#: ``(positions, values, constant, upper bound) -> passing positions``:
#: one comprehension per operator, so no call per value.
_KEEP = {
    Op.EQ: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v == c],
    Op.NE: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v != c],
    Op.LT: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v < c],
    Op.LE: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v <= c],
    Op.GT: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v > c],
    Op.GE: lambda ps, vs, c, _: [p for p, v in zip(ps, vs) if v >= c],
    Op.BETWEEN: lambda ps, vs, lo, hi: [
        p for p, v in zip(ps, vs) if lo <= v <= hi
    ],
}

_UNREAD = object()


def compile_predicate(predicate: Predicate, access) -> MaskFn:
    """Lower ``predicate`` to a batch-mask closure.

    ``access`` supplies uncounted field readers carrying ``column`` and
    per-item readers (a
    :class:`~repro.query.vectorized.deref.ScanFieldAccess` or
    :class:`~repro.query.vectorized.deref.RowFieldAccess`); its
    ``counts_traversals`` flag says whether each evaluated comparison
    charges a pointer traversal (filter context) or not (scan context,
    where the tuple engine reads through ``Relation.read_field``).
    """
    uses: Dict[str, int] = {}
    select = _compile(predicate, access, uses)

    def mask(items: Sequence[Any]) -> List[bool]:
        out = [False] * len(items)
        for position in select(items, None, {}):
            out[position] = True
        return out

    return mask


def _compile(predicate: Predicate, access, uses: Dict[str, int]) -> SelectFn:
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate, access, uses)
    if isinstance(predicate, (Conjunction, Disjunction)):
        return _compile_cascade(
            predicate.parts,
            access,
            uses,
            conjunctive=isinstance(predicate, Conjunction),
        )
    return _compile_fallback(predicate, access)


def _compile_comparison(
    cmp: Comparison, access, uses: Dict[str, int]
) -> SelectFn:
    field = cmp.field
    uses[field] = uses.get(field, 0) + 1
    read_column = access.extractor(field).column
    keep, low, high = _KEEP[cmp.op], cmp.value, cmp.high
    per_item = 2 if cmp.op is Op.BETWEEN else 1
    counts_traversals = access.counts_traversals

    def select(items, positions, cols):
        if positions is None:
            # The first comparison evaluated: the whole batch, nothing
            # read yet.
            positions = range(len(items))
            values = cols[field] = read_column(items)
        else:
            values = cols.get(field)
            if values is None:
                values = read_column([items[p] for p in positions])
                if uses[field] > 1:
                    cols[field] = column = [_UNREAD] * len(items)
                    for p, value in zip(positions, values):
                        column[p] = value
            else:
                missing = [p for p in positions if values[p] is _UNREAD]
                if missing:
                    fetched = read_column([items[p] for p in missing])
                    for p, value in zip(missing, fetched):
                        values[p] = value
                values = [values[p] for p in positions]
        count_compare(per_item * len(positions))
        if counts_traversals:
            count_traverse(len(positions))
        return keep(positions, values, low, high)

    return select


def _compile_cascade(
    parts: Sequence[Predicate], access, uses: Dict[str, int], conjunctive: bool
) -> SelectFn:
    """AND/OR as a cascade over the still-undecided positions.

    AND: later parts see only positions every earlier part accepted.
    OR: later parts see only positions no earlier part accepted.  This
    is exactly the per-item short-circuit of ``all()`` / ``any()``, so
    op totals match the tuple engine's.
    """
    if not parts:
        # all(()) is True, any(()) is False
        def trivial(items, positions, cols):
            if not conjunctive:
                return []
            return list(range(len(items)) if positions is None else positions)

        return trivial

    compiled = [_compile(part, access, uses) for part in parts]
    first = compiled[0]
    rest = compiled[1:]

    if conjunctive:

        def select(items, positions, cols):
            kept = first(items, positions, cols)
            for part in rest:
                if not kept:
                    break
                kept = part(items, kept, cols)
            return kept

    else:

        def select(items, positions, cols):
            newly = kept = first(items, positions, cols)
            dead = range(len(items)) if positions is None else positions
            for part in rest:
                taken = set(newly)
                dead = [p for p in dead if p not in taken]
                if not dead:
                    break
                newly = part(items, dead, cols)
                kept = kept + newly
            # Ascending runs, one per part: a linear merge.
            return sorted(kept) if kept is not newly else kept

    return select


def _compile_fallback(predicate: Predicate, access) -> SelectFn:
    """Row-wise evaluation for predicate types with no batch lowering."""
    matches = predicate.matches
    reader = access.reader

    def select(items, positions, cols):
        if positions is None:
            positions = range(len(items))
        return [p for p in positions if matches(reader(items[p]))]

    return select
