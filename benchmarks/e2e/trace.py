"""Span tracing installed from outside the engine.

The traced run of a workload wraps the public entry points of each layer
under ``src/repro`` with timing wrappers, replays a fixed prefix of the
statement stream, and restores every wrapped attribute afterwards.  No
file under ``src/`` knows about this module.

A span is ``[name, layer, statement id, parent index, start, end,
count]``.  Spans of one statement share the statement id; the parent
index points at the span that was open when this one started (``-1`` for
the per-statement root the driver opens around ``db.sql``).  ``count``
is a Section-3.1 counter delta for the few sites that ask for one.  A
span's *self time* is its duration minus the part its children cover,
and a layer's time is the sum of the self times of its spans, so layer
times add up to the root time without double counting recursion
(``Executor.execute`` calls itself for join and filter children).

Only per-statement and per-operator functions are wrapped.  Functions
that run once per row (key extractors, predicate leaves, ``count_*``)
never are: a wrapper costs about a microsecond, which is their whole
budget.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

ROOT_LAYER = "root"

NAME, LAYER, STMT, PARENT, START, END, COUNT = range(7)


class Site(NamedTuple):
    """One attribute to wrap: ``getattr(owner, attr)`` becomes a span
    called ``name`` charged to ``layer``.  ``counter`` names an
    :class:`~repro.instrument.OpCounters` field whose delta across the
    call is recorded on the span."""

    owner: Any
    attr: str
    name: str
    layer: str
    counter: Optional[str] = None


def layer_sites(per_row_layers: bool) -> List[Site]:
    """The wrapped entry points, layer by layer.

    ``per_row_layers`` adds the facade, index, storage, transaction
    and log sites.  They run once per statement on a point workload and once per
    row everywhere else, so only ``oltp_point`` turns them on.
    """
    from repro.cache.plan_cache import PlanCache
    from repro.cache.result_cache import ResultCache
    from repro.engine.database import MainMemoryDatabase
    from repro.indexes.ttree import TTreeIndex
    from repro.query.executor import Executor
    from repro.query.optimizer import Optimizer
    from repro.query.parallel import engine as par_engine
    from repro.query.parallel import shm
    from repro.query.parallel.scheduler import MorselScheduler
    from repro.recovery.log import StableLogBuffer
    from repro.sql import lexer, parser
    from repro.sql.interpreter import SQLInterpreter
    from repro.storage.relation import Relation
    from repro.txn.transaction import Transaction

    sites = [
        # The parser binds ``tokenize`` by name at import, so the name in
        # its namespace is the one that has to be replaced.
        Site(parser, "tokenize", "lex", "sql"),
        Site(lexer, "tokenize", "lex", "sql"),
        Site(parser, "parse_statement", "parse", "sql"),
        Site(SQLInterpreter, "execute", "interpret", "sql"),
        Site(PlanCache, "statement_for", "ast_lookup", "cache"),
        Site(PlanCache, "store_statement", "ast_store", "cache"),
        Site(PlanCache, "plan_for", "plan_lookup", "cache"),
        Site(PlanCache, "store_plan", "plan_store", "cache"),
        Site(ResultCache, "lookup_statement", "result_lookup", "cache"),
        Site(ResultCache, "store_statement", "result_store", "cache"),
        Site(ResultCache, "lookup_plan", "subtree_lookup", "cache"),
        Site(ResultCache, "store_plan", "subtree_store", "cache"),
        Site(Optimizer, "plan_selection", "plan_selection", "optimizer"),
        Site(Optimizer, "plan_join", "plan_join", "optimizer"),
        Site(Optimizer, "plan_join_chain", "chain_dp", "optimizer"),
        Site(Executor, "execute", "execute", "executor"),
        # SELECT DISTINCT is lowered by the interpreter onto db.project,
        # the duplicate-elimination operator.
        Site(MainMemoryDatabase, "project", "dedup", "executor"),
        Site(MorselScheduler, "run", "sched_run", "parallel"),
        Site(par_engine, "encode_rows", "pack", "parallel"),
        Site(par_engine, "decode_rows", "pack", "parallel"),
        Site(par_engine, "decode_refs", "pack", "parallel"),
        Site(shm, "write_rows", "pack", "parallel"),
        Site(shm, "read_rows", "pack", "parallel"),
        Site(shm, "write_blob", "pack", "parallel"),
    ]
    if per_row_layers:
        sites += [
            Site(TTreeIndex, "search_all", "index_search", "indexes",
                 "comparisons"),
            Site(TTreeIndex, "insert", "index_insert", "indexes"),
            Site(TTreeIndex, "delete", "index_delete", "indexes"),
            Site(Relation, "insert", "dml", "storage"),
            Site(Relation, "update", "dml", "storage"),
            Site(Relation, "delete", "dml", "storage"),
            # The facade calls a statement (or a transfer) makes once:
            # row resolution, foreign-key rewriting, lock requests.
            Site(MainMemoryDatabase, "select", "facade", "engine"),
            Site(MainMemoryDatabase, "insert", "facade", "engine"),
            Site(MainMemoryDatabase, "update", "facade", "engine"),
            Site(MainMemoryDatabase, "delete", "facade", "engine"),
            Site(MainMemoryDatabase, "begin", "begin", "txn"),
            Site(Transaction, "commit", "commit", "txn"),
            Site(StableLogBuffer, "append", "log_append", "recovery"),
            Site(StableLogBuffer, "commit", "log_append", "recovery"),
            Site(MainMemoryDatabase, "propagate_log", "maintenance",
                 "recovery"),
            Site(MainMemoryDatabase, "checkpoint", "maintenance", "recovery"),
        ]
    return sites


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        #: Statement id stamped on every span opened by a wrapper.
        self.stmt = -1

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, layer: str, stmt: int) -> int:
        """Open a span by hand (the driver's per-statement root)."""
        self.stmt = stmt
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, layer, stmt, stack[-1] if stack else -1,
             time.perf_counter(), 0.0, 0]
        )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, counter: Optional[str]):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if counter is None:

            def wrapper(*args, **kwargs):
                span = [name, layer, tracer.stmt,
                        stack[-1] if stack else -1, clock(), 0.0, 0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[END] = clock()
                    stack.pop()

        else:
            from repro.instrument.counters import current_counters

            def wrapper(*args, **kwargs):
                span = [name, layer, tracer.stmt,
                        stack[-1] if stack else -1, clock(), 0.0, 0]
                stack.append(len(spans))
                spans.append(span)
                before = getattr(current_counters(), counter)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[COUNT] = getattr(current_counters(), counter) - before
                    span[END] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self, sites: Iterable[Site]) -> None:
        """Replace each site's attribute with a timing wrapper."""
        for site in sites:
            # vars() rather than getattr: the original must be put back
            # exactly as the owner held it (plain function on a class).
            original = vars(site.owner)[site.attr]
            setattr(
                site.owner,
                site.attr,
                self._wrap(original, site.name, site.layer, site.counter),
            )
            self._installed.append((site.owner, site.attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether no wrapper of this tracer is installed any more."""
        return not self._installed

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its child spans cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                covered[parent] += span[END] - span[START]
        return [
            span[END] - span[START] - covered[i]
            for i, span in enumerate(spans)
        ]

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans as compact JSON (see the README for the
        layout): string tables plus one integer row per span, times in
        nanoseconds from the first span's start."""
        names: Dict[str, int] = {}
        layers: Dict[str, int] = {}
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [
                names.setdefault(span[NAME], len(names)),
                layers.setdefault(span[LAYER], len(layers)),
                span[STMT],
                span[PARENT],
                round((span[START] - origin) * 1e9),
                round((span[END] - origin) * 1e9),
                span[COUNT],
            ]
            for span in self.spans
        ]
        document = {
            "meta": meta,
            "columns": ["name", "layer", "stmt", "parent", "start_ns",
                        "end_ns", "count"],
            "names": list(names),
            "layers": list(layers),
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


class TraceSummary:
    """Totals the per-layer metrics are computed from."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        selfs = tracer.self_times()
        #: Sum of the root spans' durations.
        self.root_seconds = 0.0
        #: Number of root spans (traced statements).
        self.statements = 0
        #: layer -> summed self time.
        self.layer_self: Dict[str, float] = {}
        #: span name -> [calls, summed duration, summed self time,
        #: summed count].
        self.by_name: Dict[str, list] = {}
        #: (statement id, span name) -> summed duration of the spans of
        #: that name that have no ancestor of the same name.
        self.outermost: Dict[tuple, float] = {}
        for index, span in enumerate(spans):
            duration = span[END] - span[START]
            layer = span[LAYER]
            self.layer_self[layer] = (
                self.layer_self.get(layer, 0.0) + selfs[index]
            )
            if layer == ROOT_LAYER:
                self.root_seconds += duration
                self.statements += 1
                continue
            entry = self.by_name.setdefault(span[NAME], [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += selfs[index]
            entry[3] += span[COUNT]
            if not _has_ancestor_named(spans, span):
                key = (span[STMT], span[NAME])
                self.outermost[key] = self.outermost.get(key, 0.0) + duration

    _NO_SPANS = (0, 0.0, 0.0, 0)

    def calls(self, name: str) -> int:
        return self.by_name.get(name, self._NO_SPANS)[0]

    def seconds(self, name: str) -> float:
        """Summed duration of the spans called ``name``.  Meaningful for
        names that do not nest inside themselves."""
        return self.by_name.get(name, self._NO_SPANS)[1]

    def self_seconds(self, name: str) -> float:
        return self.by_name.get(name, self._NO_SPANS)[2]

    def count(self, name: str) -> int:
        return self.by_name.get(name, self._NO_SPANS)[3]

    def outermost_seconds(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another
        ``name`` span: inclusive time without counting recursion twice."""
        return sum(
            seconds for (_stmt, span_name), seconds in self.outermost.items()
            if span_name == name
        )

    def per_statement(self, name: str, stmts: Sequence[int]) -> List[float]:
        """Outermost ``name`` seconds for each of the given statements."""
        return [self.outermost.get((stmt, name), 0.0) for stmt in stmts]

    def share(self, layer: str) -> float:
        if self.root_seconds <= 0.0:
            return 0.0
        return self.layer_self.get(layer, 0.0) / self.root_seconds

    def accounted_share(self) -> float:
        """Share of root time that some wrapped layer accounts for."""
        if self.root_seconds <= 0.0:
            return 0.0
        root_self = self.layer_self.get(ROOT_LAYER, 0.0)
        return 1.0 - root_self / self.root_seconds


def _has_ancestor_named(spans: List[list], span: list) -> bool:
    name = span[NAME]
    parent = span[PARENT]
    while parent >= 0:
        ancestor = spans[parent]
        if ancestor[NAME] == name:
            return True
        parent = ancestor[PARENT]
    return False
