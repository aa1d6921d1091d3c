"""Wire encoding between the parent process and morsel workers.

Workers are forked copies of the parent, so relations travel by *name*
(resolved against the worker's inherited catalog snapshot) and tuple
pointers travel as what they are — one machine word each
(:mod:`repro.storage.tuples`).  A morsel of pointer rows is one
*packed* value, ``(row_width, int64 bytes)``: the rows flattened into
an ``array('q')``.  Unpacking yields tuples of plain ``int``\\ s, which
every extractor, compiled predicate and hash kernel takes unchanged
(pointer sites split the word with a shift and a mask; nothing on the
wire ever rebuilds a :class:`~repro.storage.tuples.TupleRef`; DESIGN.md
section 3.16).  Result descriptors travel as specs: the source relation
names plus the ``(source, field, label)`` column triples, rebuilt
worker-side against the same catalog.

Only *plain* predicates cross the boundary: trees of the frozen
``Comparison`` / ``Conjunction`` / ``Disjunction`` dataclasses over
picklable literals.  Anything else (notably the FK-rewrite internals,
which capture live ``Relation`` objects) keeps the operator on the
in-process scalar path.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

from repro.query.predicates import Comparison, Conjunction, Disjunction
from repro.storage.temporary import ResultColumn, ResultDescriptor

#: A pointer row: one pointer word per source relation.
Row = Tuple[int, ...]
#: A packed morsel: ``(row_width, array('q') bytes)``.
Packed = Tuple[int, bytes]

_WORD = 8  # bytes per pointer word on the wire

#: Join/predicate literal types that are safe and cheap to pickle
#: (a ``TupleRef`` literal is an ``int`` and pickles as itself).
_PLAIN_VALUES = (int, float, str, bytes, bool, type(None))

# --------------------------------------------------------------------- #
# trace context
# --------------------------------------------------------------------- #

#: Trace modes carried in a task request's optional third element.
#: ``TRACE_TELEMETRY`` ships timing telemetry only (observability
#: metrics without tracing); ``TRACE_SPANS`` additionally ships the
#: worker's serialized span tree for grafting.
TRACE_TELEMETRY = 1
TRACE_SPANS = 2

#: Telemetry tuple layout shipped back by a traced task:
#: ``(pid, elapsed_seconds, queue_wait_seconds, span_dict_or_None)``.
TELEMETRY_FIELDS = ("pid", "elapsed", "queue_wait", "span")


def trace_request(
    kind: str, payload: tuple, mode: int, index: int, dispatched_at: float
) -> tuple:
    """One task request, with or without a trace context.

    ``mode`` 0 builds the plain two-element request — bit-identical to
    the untraced wire format, so the zero-overhead contract holds when
    observability is off.  Otherwise the context travels as
    ``(mode, morsel_index, dispatch_monotonic)``; ``dispatched_at`` is a
    ``time.monotonic()`` stamp, which on Linux is CLOCK_MONOTONIC and
    therefore comparable across the fork boundary — queue wait is the
    worker-side ``monotonic() - dispatched_at``.
    """
    if not mode:
        return (kind, payload)
    return (kind, payload, (mode, index, dispatched_at))


def encode_refs(refs: Sequence[int]) -> Packed:
    """Tuple pointers -> one packed width-1 morsel."""
    return (1, array("q", refs).tobytes())


def decode_refs(packed: Packed) -> List[int]:
    """A packed width-1 morsel -> its pointer words."""
    words = array("q")
    words.frombytes(packed[1])
    return words.tolist()


def encode_rows(rows: Sequence[Row]) -> Packed:
    """Pointer rows -> one packed morsel (width 0 when empty)."""
    if not rows:
        return (0, b"")
    # ``array`` sizes itself once from a list; fed an iterator it grows
    # word by word (1.7x slower on 100k rows, same bytes).
    words = list(chain.from_iterable(rows))
    return (len(rows[0]), array("q", words).tobytes())


def decode_rows(packed: Packed) -> List[Row]:
    """A packed morsel -> pointer rows (tuples of plain ints)."""
    width, data = packed
    words = array("q")
    words.frombytes(data)
    return list(zip(*[iter(words)] * width))


def slice_packed(packed: Packed, start: int, stop: int) -> Packed:
    """Rows ``[start, stop)`` of a packed morsel, still packed."""
    width, data = packed
    stride = width * _WORD
    return (width, data[start * stride:stop * stride])


def packed_len(packed: Packed) -> int:
    """How many rows a packed morsel holds."""
    width, data = packed
    return len(data) // (width * _WORD) if width else 0


def describe(descriptor: ResultDescriptor) -> Tuple[Any, ...]:
    """A picklable spec from which a worker rebuilds the descriptor."""
    return (
        tuple(relation.name for relation in descriptor.sources),
        tuple(
            (col.source, col.field, col.label)
            for col in descriptor.columns
        ),
    )


def rebuild(catalog, spec: Tuple[Any, ...]) -> ResultDescriptor:
    """Worker-side inverse of :func:`describe`."""
    source_names, column_specs = spec
    return ResultDescriptor(
        [catalog.relation(name) for name in source_names],
        [
            ResultColumn(source, field, label)
            for source, field, label in column_specs
        ],
    )


def describable(catalog, descriptor: ResultDescriptor) -> bool:
    """Can this descriptor be rebuilt from the worker's catalog?

    Every source must be the catalog's *own* registered relation (by
    identity, not just by name) — otherwise the forked snapshot would
    resolve the name to a different object than the parent computed
    against.
    """
    for relation in descriptor.sources:
        name = relation.name
        if name not in catalog or catalog.relation(name) is not relation:
            return False
    return True


def plain_predicate(predicate: Optional[Any]) -> bool:
    """Is ``predicate`` a pure dataclass tree over plain literals?

    The FK rewrite and user-defined ``Predicate`` subclasses may close
    over live engine objects; those must not cross the process boundary
    (and their compiled fallbacks may not decompose per-item anyway).
    """
    if predicate is None:
        return True
    if type(predicate) is Comparison:
        return isinstance(predicate.value, _PLAIN_VALUES) and isinstance(
            predicate.high, _PLAIN_VALUES
        )
    if type(predicate) in (Conjunction, Disjunction):
        return all(plain_predicate(part) for part in predicate.parts)
    return False


def morsel_bounds(total: int, morsel_size: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` slices covering ``total`` items.

    Purely a function of the input size and the configured morsel size —
    never of the worker count — so per-morsel counter charges sum to
    the same totals no matter how many workers drain the morsels.
    """
    return [
        (start, min(start + morsel_size, total))
        for start in range(0, total, morsel_size)
    ]
