"""Predicate compilation: AST -> one batch-mask closure per operator.

The tuple engine dispatches through the predicate AST once *per tuple*
(``Predicate.matches`` -> enum checks -> reader closure -> extractor).
Here the AST is walked once per operator and lowered into a chain of
eval-free closures over :mod:`operator` functions; evaluating a batch
is then one column read per comparison (a field the predicate reads
once per item goes through ``Relation.reader``'s ``column`` form), one
list comprehension over the values, and bulk counter updates.

Counting is tuple-engine-equivalent by construction:

* a :class:`Comparison` pass charges one comparison per evaluated item
  (two for BETWEEN, which always tests both bounds) and — in filter
  context — one traversal per evaluated item, exactly what
  ``Comparison.matches`` over counted extractors charges;
* :class:`Conjunction` / :class:`Disjunction` compile to short-circuit
  cascades: each later part is evaluated only over the items still
  live (AND) or still dead (OR), matching ``all()`` / ``any()``
  short-circuiting item by item;
* any other :class:`Predicate` subclass (e.g. the engine's rewritten
  foreign-key comparisons) falls back to row-wise ``matches`` against a
  reader with tuple-engine counting, so nothing is miscounted even for
  predicates this module knows nothing about.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List, Sequence

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

_OP_FUNCS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}


def compile_predicate(predicate: Predicate, access) -> MaskFn:
    """Lower ``predicate`` to a batch-mask closure.

    ``access`` supplies field extractors and per-item readers (a
    :class:`~repro.query.vectorized.deref.ScanFieldAccess` or
    :class:`~repro.query.vectorized.deref.RowFieldAccess`); its
    ``counts_traversals`` flag says whether each evaluated comparison
    charges a pointer traversal (filter context) or not (scan context,
    where the tuple engine reads through ``Relation.read_field``).

    The returned mask publishes the access's accumulated dereference
    savings (``access.flush()``) once per batch, so the hot per-hit
    path inside the extractors stays a bare counter increment.
    """
    multi = _multi_use_fields(predicate)
    inner = _compile(predicate, access, multi)
    flush = access.flush

    def mask(items: Sequence[Any]) -> List[bool]:
        out = inner(items)
        flush()
        return out

    return mask


def _multi_use_fields(predicate: Predicate):
    """Fields the predicate may read more than once per item, or
    ``None`` when that cannot be determined (unknown subclass present).

    Single-use fields get raw (unmemoized) extractors: their memo could
    never hit, so the dict and pointer-hash overhead is pure loss.
    ``None`` memoizes everything, the conservative choice.
    """
    counts: dict = {}
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Comparison):
            counts[node.field] = counts.get(node.field, 0) + 1
        elif isinstance(node, (Conjunction, Disjunction)):
            stack.extend(node.parts)
        else:
            return None
    return {field for field, n in counts.items() if n > 1}


def _compile(predicate: Predicate, access, multi) -> MaskFn:
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate, access, multi)
    if isinstance(predicate, Conjunction):
        return _compile_cascade(
            predicate.parts, access, multi, conjunctive=True
        )
    if isinstance(predicate, Disjunction):
        return _compile_cascade(
            predicate.parts, access, multi, conjunctive=False
        )
    return _compile_fallback(predicate, access)


def _compile_comparison(cmp: Comparison, access, multi) -> MaskFn:
    memoize = multi is None or cmp.field in multi
    extract = access.extractor(cmp.field, memoize=memoize)
    counts_traversals = access.counts_traversals
    if memoize:

        def values(items: Sequence[Any]) -> List[Any]:
            return [extract(item) for item in items]

    else:
        # A single-use field: one column read over the whole batch.
        values = extract.column

    if cmp.op is Op.BETWEEN:
        low, high = cmp.value, cmp.high

        def mask(items: Sequence[Any]) -> List[bool]:
            out = [low <= v <= high for v in values(items)]
            count_compare(2 * len(items))
            if counts_traversals:
                count_traverse(len(items))
            return out

        return mask

    op_fn = _OP_FUNCS[cmp.op]
    value = cmp.value

    def mask(items: Sequence[Any]) -> List[bool]:
        out = [op_fn(v, value) for v in values(items)]
        count_compare(len(items))
        if counts_traversals:
            count_traverse(len(items))
        return out

    return mask


def _compile_cascade(
    parts: Sequence[Predicate], access, multi, conjunctive: bool
) -> MaskFn:
    """AND/OR as a cascade over the still-undecided subset.

    AND: later parts see only items every earlier part accepted.
    OR: later parts see only items no earlier part accepted.  This is
    exactly the per-item short-circuit of ``all()`` / ``any()``, so op
    totals match the tuple engine's.
    """
    if not parts:
        fixed = conjunctive  # all(()) is True, any(()) is False

        def trivial(items: Sequence[Any]) -> List[bool]:
            return [fixed] * len(items)

        return trivial

    compiled = [_compile(part, access, multi) for part in parts]
    first = compiled[0]
    rest = compiled[1:]

    if conjunctive:

        def mask(items: Sequence[Any]) -> List[bool]:
            out = first(items)
            for part in rest:
                live = [i for i, keep in enumerate(out) if keep]
                if not live:
                    break
                flags = part([items[i] for i in live])
                for i, keep in zip(live, flags):
                    if not keep:
                        out[i] = False
            return out

    else:

        def mask(items: Sequence[Any]) -> List[bool]:
            out = first(items)
            for part in rest:
                dead = [i for i, keep in enumerate(out) if not keep]
                if not dead:
                    break
                flags = part([items[i] for i in dead])
                for i, keep in zip(dead, flags):
                    if keep:
                        out[i] = True
            return out

    return mask


def _compile_fallback(predicate: Predicate, access) -> MaskFn:
    """Row-wise evaluation for predicate types with no batch lowering."""
    matches = predicate.matches
    reader = access.reader

    def mask(items: Sequence[Any]) -> List[bool]:
        return [matches(reader(item)) for item in items]

    return mask
