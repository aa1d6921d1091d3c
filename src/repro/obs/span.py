"""Span tracing: a per-query tree of measured execution regions.

Each executed query produces a tree of :class:`Span` objects — the root
``query`` span with ``parse``, ``plan``, and per-operator ``execute``
children, which in turn parent index probes, join phases, and cache
lookups.  Every span carries its own :class:`OpCounters` (activated as a
``counters_scope(..., rollup=True)``, so a parent's counters are the
*inclusive* sum of its own operations plus all of its children's — the
per-operator analogue of the paper's Section 3.1 validation counters),
wall-clock elapsed time, and an output cardinality.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.instrument import OpCounters, counters_scope


@dataclass
class Span:
    """One measured region of a query's execution."""

    name: str
    #: Coarse classification: "query" | "phase" | "operator" | "index"
    #: | "join_phase" | "cache" | "morsel" | "worker".
    kind: str = "phase"
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Inclusive operation counts (this region plus all child spans).
    counters: OpCounters = field(default_factory=OpCounters)
    #: Wall-clock seconds (inclusive).
    elapsed: float = 0.0
    #: Output cardinality, when the region produces rows.
    rows_out: Optional[int] = None
    children: List["Span"] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    def self_counters(self) -> OpCounters:
        """Exclusive counts: this span's work minus its children's."""
        merged = OpCounters()
        for child in self.children:
            merged.merge(child.counters)
        return self.counters.diff(merged)

    def total_ops(self) -> int:
        """Inclusive total operation count (crude single-number cost)."""
        return self.counters.total()

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) whose name contains ``name``."""
        for span in self.walk():
            if name in span.name:
                return span
        return None

    def find_all(self, kind: str) -> List["Span"]:
        """Every descendant (or self) of the given ``kind``."""
        return [span for span in self.walk() if span.kind == kind]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (private ``_``-prefixed attrs, which may
        hold live plan-node references, are dropped)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "attrs": {
                key: value
                for key, value in self.attrs.items()
                if not key.startswith("_")
            },
            "counters": self.counters.as_dict(),
            "elapsed": self.elapsed,
            "rows_out": self.rows_out,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from a :meth:`to_dict` serialisation.

        The inverse the worker→coordinator trace transport needs: a
        worker ships ``to_dict()`` output (plain picklable data, no live
        references) and the coordinator grafts ``from_dict()`` of it
        under the dispatching morsel span.
        """
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "phase")),
            attrs=dict(data.get("attrs") or {}),
            counters=OpCounters.from_dict(data.get("counters") or {}),
            elapsed=float(data.get("elapsed") or 0.0),
            rows_out=data.get("rows_out"),
            children=[
                cls.from_dict(child) for child in data.get("children") or []
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, kind={self.kind}, "
            f"rows_out={self.rows_out}, ops={self.total_ops()}, "
            f"children={len(self.children)})"
        )


class SpanTracer:
    """Builds span trees from nested :meth:`span` context managers.

    The tracer keeps a stack of open spans (mirroring the counter-scope
    stack) and a bounded deque of completed root spans — the most recent
    queries — for EXPLAIN ANALYZE rendering and benchmark span export.
    """

    def __init__(self, max_recent: int = 32) -> None:
        self._stack: List[Span] = []
        self.recent: deque = deque(maxlen=max_recent)

    @contextmanager
    def span(
        self, name: str, kind: str = "phase", **attrs: Any
    ) -> Iterator[Span]:
        """Open a span for the ``with`` body.

        The span's counters become the innermost counter scope with
        roll-up, so operations recorded inside propagate to every
        enclosing span *and* to whatever scope the caller had active —
        tracing never hides operations from benchmarks.
        """
        opened = Span(name=name, kind=kind, attrs=attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(opened)
        self._stack.append(opened)
        start = time.perf_counter()
        try:
            with counters_scope(opened.counters, rollup=True):
                yield opened
        finally:
            opened.elapsed = time.perf_counter() - start
            self._stack.pop()
            if parent is None:
                self.recent.append(opened)

    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any query."""
        return self._stack[-1] if self._stack else None

    def last(self) -> Optional[Span]:
        """The most recently completed root span, or None."""
        return self.recent[-1] if self.recent else None

    def clear(self) -> None:
        """Forget completed root spans (open spans are unaffected)."""
        self.recent.clear()
