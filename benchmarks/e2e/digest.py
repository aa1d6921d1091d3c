"""Order-insensitive digests of statement results.

A digest is ``[row count, 64-bit hash]``.  The hash is computed from the
*logical values* of the visible columns (never from tuple pointers), with
plain integer arithmetic, so it is the same in every process, on every
Python version and under every execution engine that returns the same
multiset of rows.  It is what ``expected_digests.json`` stores.

The benchmark schemas hold integers only; foreign-key pointers are
followed to the referenced key value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.storage.temporary import TemporaryList
from repro.storage.tuples import TupleRef

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PRIMES = (
    0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93,
    0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0xA0761D6478BD642F,
    0xE7037ED1A0B428DB, 0x8EBC6AF09C88C6E3,
)


def _mix(x: int) -> int:
    """A 64-bit finalizer: the row hashes are summed, so each must depend
    non-linearly on its values or swapped values would cancel."""
    x &= _MASK
    x ^= x >> 31
    x = (x * _GOLDEN) & _MASK
    x ^= x >> 29
    return x


def _values_hash(values: Tuple[Any, ...]) -> int:
    total = 0
    for position, value in enumerate(values):
        if value is None:
            value = -(1 << 40)
        elif not isinstance(value, int):
            raise TypeError(
                f"digests cover integer columns only, got {value!r}"
            )
        total += (value + 0x5851F42D) * _PRIMES[position % len(_PRIMES)]
        total += position
    return _mix(total)


class Digester:
    """Digests results of one database.

    Per source relation, the hash of a tuple's visible values is memoized
    by tuple pointer while the relation's version is unchanged: a join
    result repeats each source tuple many times, and following a pointer
    is the expensive part.
    """

    def __init__(self, db) -> None:
        self.db = db
        self._memo: Dict[tuple, Dict[TupleRef, int]] = {}

    def _source_memo(self, relation, fields: Tuple[str, ...]):
        key = (relation.name, fields)
        entry = self._memo.get(key)
        if entry is None or entry[0] != relation.version:
            entry = (relation.version, {})
            self._memo[key] = entry
        return entry[1]

    def _source_hasher(self, relation, fields: Tuple[str, ...]):
        memo = self._source_memo(relation, fields)
        schema = relation.schema
        catalog = self.db.catalog
        readers = []
        for name in fields:
            references = schema.field(name).references
            target = (
                (catalog.relation(references.relation), references.field)
                if references is not None
                else None
            )
            readers.append((name, target))

        def hash_of(ref: TupleRef) -> int:
            cached = memo.get(ref)
            if cached is None:
                values = []
                for name, target in readers:
                    value = relation.read_field(ref, name)
                    if target is not None and isinstance(value, TupleRef):
                        value = target[0].read_field(value, target[1])
                    values.append(value)
                cached = memo[ref] = _values_hash(tuple(values))
            return cached

        return hash_of

    def digest(self, result: Any) -> List[int]:
        """``[rows, hash]`` for a SELECT result; ``[n, 0]`` for the
        affected-row count or pointer list a write returns."""
        if result is None:  # the statement raised; already counted
            return [0, 0]
        if isinstance(result, int):
            return [result, 0]
        if not isinstance(result, TemporaryList):
            return [len(result), 0]
        descriptor = result.descriptor
        per_source: Dict[int, List[str]] = {}
        for column in descriptor.columns:
            per_source.setdefault(column.source, []).append(column.field)
        hashers = [
            (
                source,
                self._source_hasher(
                    descriptor.sources[source], tuple(fields)
                ),
                _PRIMES[(source + 3) % len(_PRIMES)],
            )
            for source, fields in sorted(per_source.items())
        ]
        total = 0
        if len(hashers) == 1:
            source, hash_of, _ = hashers[0]
            for row in result.rows():
                total += _mix(hash_of(row[source]) + 1)
        else:
            for row in result.rows():
                acc = 0
                for source, hash_of, prime in hashers:
                    acc += hash_of(row[source]) * prime
                total += _mix(acc)
        return [len(result), total & _MASK]
