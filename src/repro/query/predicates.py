"""Selection predicates.

A small predicate algebra over named fields, compiled against either a
relation (evaluating through tuple pointers) or a temporary list.  The
optimizer inspects :class:`Comparison` nodes to pick access paths: an
equality on a hash-indexed field becomes a hash lookup, an equality or
range on a tree-indexed field becomes a tree lookup, anything else falls
back to a sequential scan through an unrelated index (Section 4's three
access paths).

Every predicate class answers three questions about itself:
:meth:`~Predicate.fingerprint` (its canonical part of a plan's result-
cache key), :meth:`~Predicate.relations` (relations it reads beyond its
host) and :meth:`~Predicate.qualify` (the same predicate with its
columns prefixed by their owning relation, for a post-join filter).
The two classes the foreign-key rewrite produces, :class:`_NeverMatches`
and :class:`_FKValueComparison`, live here with the rest.  A predicate
class written outside this module inherits the base
:meth:`~Predicate.fingerprint`, which raises :class:`FingerprintError`:
such a plan runs but is never cached.
"""

from __future__ import annotations

import enum
import operator as _operator
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Optional, Tuple

from repro.errors import FingerprintError
from repro.instrument import count_compare
from repro.storage.tuples import TupleRef

#: Default selectivity for predicates the statistics cannot analyse
#: (System R's classic 1/3 for range-shaped conditions).
DEFAULT_SELECTIVITY = 1.0 / 3.0


def value_fingerprint(value: Any) -> Any:
    """Canonical, hashable form of a literal embedded in a plan."""
    # A pointer is an ``int`` subclass: tested first, so the pointer to
    # slot 5 of partition 0 never shares a cache entry with the INT 5.
    if isinstance(value, TupleRef):
        return ("ref", value >> 32, value & 0xFFFFFFFF)
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, tuple):
        return tuple(value_fingerprint(v) for v in value)
    raise FingerprintError(f"uncacheable literal {value!r}")


class Op(enum.Enum):
    """Comparison operators; the ordered ones can use a T-Tree index.

    Section 3.3.5: "Non-equijoins other than 'not equals' can make use of
    ordering of the data" — the same distinction applies to selections.
    """

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"

    @property
    def usable_with_order(self) -> bool:
        """Whether an ordered index can serve this operator."""
        return self is not Op.NE

    @property
    def exact_match(self) -> bool:
        """Whether this operator is an exact-match lookup (hashable)."""
        return self is Op.EQ


class Predicate:
    """Base class; subclasses implement :meth:`matches`."""

    def matches(self, read_field: Callable[[str], Any]) -> bool:
        """Evaluate against a field-reader for one tuple."""
        raise NotImplementedError

    def fingerprint(self) -> Tuple:
        """Canonical nested-tuple form (part of a plan's cache key)."""
        raise FingerprintError(
            f"uncacheable predicate {type(self).__name__}"
        )

    def relations(self) -> FrozenSet[str]:
        """Relations read *in addition to* the host relation."""
        return frozenset()

    def qualify(self, owner: str) -> "Predicate":
        """This predicate with every column prefixed by ``owner.``."""
        return self

    def __and__(self, other: "Predicate") -> "Conjunction":
        return Conjunction((self, other))

    def __or__(self, other: "Predicate") -> "Disjunction":
        return Disjunction((self, other))


@dataclass(frozen=True)
class Comparison(Predicate):
    """``field <op> value`` (or ``field BETWEEN low AND high``)."""

    field: str
    op: Op
    value: Any = None
    high: Any = None  # BETWEEN only

    def __post_init__(self) -> None:
        if self.op is Op.BETWEEN and self.high is None:
            raise ValueError("BETWEEN requires both bounds")

    def matches(self, read_field: Callable[[str], Any]) -> bool:
        actual = read_field(self.field)
        count_compare()
        if self.op is Op.EQ:
            return actual == self.value
        if self.op is Op.NE:
            return actual != self.value
        if self.op is Op.LT:
            return actual < self.value
        if self.op is Op.LE:
            return actual <= self.value
        if self.op is Op.GT:
            return actual > self.value
        if self.op is Op.GE:
            return actual >= self.value
        count_compare()
        return self.value <= actual <= self.high

    def fingerprint(self) -> Tuple:
        return (
            "cmp",
            self.field,
            self.op.value,
            value_fingerprint(self.value),
            value_fingerprint(self.high),
        )

    def qualify(self, owner: str) -> "Comparison":
        return Comparison(
            f"{owner}.{self.field}", self.op, self.value, self.high
        )

    def key_range(self) -> Tuple[Optional[Any], Optional[Any], bool, bool]:
        """(low, high, include_low, include_high) for an ordered index."""
        if self.op is Op.EQ:
            return self.value, self.value, True, True
        if self.op is Op.LT:
            return None, self.value, True, False
        if self.op is Op.LE:
            return None, self.value, True, True
        if self.op is Op.GT:
            return self.value, None, False, True
        if self.op is Op.GE:
            return self.value, None, True, True
        if self.op is Op.BETWEEN:
            return self.value, self.high, True, True
        raise ValueError(f"{self.op} has no key range")

    def __repr__(self) -> str:
        if self.op is Op.BETWEEN:
            return f"({self.field} BETWEEN {self.value!r} AND {self.high!r})"
        return f"({self.field} {self.op.value} {self.value!r})"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """AND of several predicates."""

    parts: Tuple[Predicate, ...]

    def matches(self, read_field: Callable[[str], Any]) -> bool:
        return all(part.matches(read_field) for part in self.parts)

    def fingerprint(self) -> Tuple:
        return ("and",) + tuple(part.fingerprint() for part in self.parts)

    def relations(self) -> FrozenSet[str]:
        return frozenset().union(*(part.relations() for part in self.parts))

    def qualify(self, owner: str) -> "Conjunction":
        return Conjunction(tuple(part.qualify(owner) for part in self.parts))

    def comparisons(self) -> Tuple[Comparison, ...]:
        """Flattened comparison leaves (for access-path selection)."""
        result = []
        for part in self.parts:
            if isinstance(part, Comparison):
                result.append(part)
            elif isinstance(part, Conjunction):
                result.extend(part.comparisons())
        return tuple(result)

    def __repr__(self) -> str:
        return " AND ".join(repr(p) for p in self.parts)


@dataclass(frozen=True)
class Disjunction(Predicate):
    """OR of several predicates — the paper's Query 2 shape ("employees
    who work in the Toy or Shoe Departments")."""

    parts: Tuple[Predicate, ...]

    def matches(self, read_field: Callable[[str], Any]) -> bool:
        return any(part.matches(read_field) for part in self.parts)

    def fingerprint(self) -> Tuple:
        return ("or",) + tuple(part.fingerprint() for part in self.parts)

    def relations(self) -> FrozenSet[str]:
        return frozenset().union(*(part.relations() for part in self.parts))

    def qualify(self, owner: str) -> "Disjunction":
        return Disjunction(tuple(part.qualify(owner) for part in self.parts))

    def equality_keys(self) -> "Optional[Tuple[str, Tuple[Any, ...]]]":
        """``(field, keys)`` when every branch is an equality on one
        common field — servable as a union of index lookups — else None.
        """
        field_name: Optional[str] = None
        keys = []
        for part in self.parts:
            if not isinstance(part, Comparison) or part.op is not Op.EQ:
                return None
            if field_name is None:
                field_name = part.field
            elif part.field != field_name:
                return None
            keys.append(part.value)
        if field_name is None:
            return None
        return field_name, tuple(keys)

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"


class _NeverMatches(Predicate):
    """A predicate that matches nothing (an FK equality on an absent
    referenced key — the join partner does not exist)."""

    def __init__(self, field_name: str) -> None:
        self.field_name = field_name

    def matches(self, read_field) -> bool:
        return False

    def fingerprint(self) -> Tuple:
        return ("never", self.field_name)

    def __repr__(self) -> str:
        return f"({self.field_name} matches nothing)"


class _FKValueComparison(Predicate):
    """Ordered comparison on a foreign-key column's *referenced value*.

    Follows the stored tuple pointer to the referenced relation's key
    field, then applies the original comparison to that value.  NULL
    pointers never match (SQL comparison semantics).
    """

    def __init__(self, comparison: Comparison, target, key_field: str) -> None:
        self.comparison = comparison
        self.target = target
        self.key_field = key_field

    def matches(self, read_field) -> bool:
        pointer = read_field(self.comparison.field)
        if pointer is None:
            return False
        value = self.target.read_field(pointer, self.key_field)
        return self.comparison.matches(
            lambda __: value
        )

    def fingerprint(self) -> Tuple:
        return (
            "fk",
            self.comparison.fingerprint(),
            self.target.name,
            self.key_field,
        )

    def relations(self) -> FrozenSet[str]:
        return frozenset((self.target.name,))

    def qualify(self, owner: str) -> "_FKValueComparison":
        return _FKValueComparison(
            self.comparison.qualify(owner), self.target, self.key_field
        )

    def __repr__(self) -> str:
        return f"(follow {self.comparison!r})"


#: Raw two-value comparators for theta joins, keyed by operator text.
#:
#: These are deliberately *uninstrumented*: the instrumented site is the
#: caller — ``theta_join`` charges one ``count_compare`` per probe
#: before invoking the comparator, so routing every theta comparison
#: through this table keeps Section 3.1 totals exact without double
#: counting.  (An audit found the executor previously kept a private
#: copy of this table; it now lives here, next to the predicate
#: algebra, so new call sites cannot silently fork the semantics.)
THETA_COMPARATORS: "dict[str, Callable[[Any, Any], bool]]" = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def eq(field: str, value: Any) -> Comparison:
    """``field = value``"""
    return Comparison(field, Op.EQ, value)


def ne(field: str, value: Any) -> Comparison:
    """``field != value``"""
    return Comparison(field, Op.NE, value)


def lt(field: str, value: Any) -> Comparison:
    """``field < value``"""
    return Comparison(field, Op.LT, value)


def le(field: str, value: Any) -> Comparison:
    """``field <= value``"""
    return Comparison(field, Op.LE, value)


def gt(field: str, value: Any) -> Comparison:
    """``field > value``"""
    return Comparison(field, Op.GT, value)


def ge(field: str, value: Any) -> Comparison:
    """``field >= value``"""
    return Comparison(field, Op.GE, value)


def between(field: str, low: Any, high: Any) -> Comparison:
    """``field BETWEEN low AND high`` (inclusive)."""
    return Comparison(field, Op.BETWEEN, low, high)
