"""Plan rendering with estimated and actual costs.

Two surfaces share the helpers here:

* ``EXPLAIN <select>`` — the optimizer's plan tree annotated with
  *estimated* rows per operator (no execution); and
* ``EXPLAIN ANALYZE <select>`` — the statement is executed under a span
  tracer and the resulting span tree is rendered with estimated vs.
  actual rows plus each span's operation counters (comparisons, moves,
  hashes, traversals, allocations) and wall-clock — making optimizer
  misestimates (the Section 3.3.1 workload's selectivity skew) directly
  visible per operator.

This module only renders.  Each node's line of text, its children and
its row estimate are the node's own
(:meth:`~repro.query.plan.PlanNode.label`,
:meth:`~repro.query.plan.PlanNode.children`,
:meth:`~repro.query.plan.PlanNode.estimate`), and the estimate uses the
optimizer's own selectivities, so EXPLAIN and the optimizer cannot
disagree.  Estimation is deliberately crude, mirroring the paper's
Section 4 stance that main-memory cost formulas should stay simple:
equality selects ``cardinality / distinct`` rows (exact column
statistics are cheap to keep in memory), range predicates default to one
third, and equijoins divide the cross product by the inner side's
distinct count.
"""

from __future__ import annotations

from typing import List, Optional

from repro.query.plan import PlanNode


def estimate_rows(plan: PlanNode, catalog, optimizer) -> Optional[int]:
    """Estimated output cardinality of a plan subtree (None when the
    catalog no longer has the relations to estimate against)."""
    try:
        return max(0, round(plan.estimate(catalog, optimizer)))
    except Exception:
        return None


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #

def render_plan(plan: PlanNode, catalog, optimizer) -> str:
    """EXPLAIN output: the plan tree with estimated rows per operator."""
    lines: List[str] = []

    def emit(node: PlanNode, depth: int) -> None:
        est = estimate_rows(node, catalog, optimizer)
        suffix = "" if est is None else f"  (est_rows={est})"
        suffix += _forecast_suffix(node)
        lines.append("  " * depth + node.label() + suffix)
        for child in node.children():
            emit(child, depth + 1)

    emit(plan, 0)
    return "\n".join(lines)


def _forecast_suffix(node: PlanNode) -> str:
    """The cost-based orderer's forecast op counts for a join node."""
    ops = getattr(node, "est_ops", None)
    if not ops:
        return ""
    inner = ", ".join(
        f"{name}={ops[name]}"
        for name in (
            "comparisons", "moves", "hashes", "traversals", "allocations"
        )
        if name in ops
    )
    return f"  (forecast: {inner})"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


def _span_annotations(span, catalog, optimizer) -> str:
    parts: List[str] = []
    node = span.attrs.get("_node")
    if node is not None:
        est = estimate_rows(node, catalog, optimizer)
        parts.append(f"est_rows={'?' if est is None else est}")
    if span.rows_out is not None:
        parts.append(f"actual_rows={span.rows_out}")
    ops = getattr(node, "est_ops", None) if node is not None else None
    if ops:
        # Forecast counts sit next to the actual counters below, so a
        # bad cardinality estimate shows up as forecast/actual drift.
        inner = "/".join(
            str(ops[name])
            for name in (
                "comparisons", "moves", "hashes", "traversals",
                "allocations",
            )
            if name in ops
        )
        parts.append(f"forecast_ops={inner}")
    counts = span.counters
    parts.append(f"comparisons={counts.comparisons}")
    parts.append(f"moves={counts.moves}")
    parts.append(f"hashes={counts.hashes}")
    parts.append(f"traversals={counts.traversals}")
    parts.append(f"allocations={counts.allocations}")
    parts.append(f"time={_fmt_ms(span.elapsed)}")
    return "(" + ", ".join(parts) + ")"


def render_analyze(root_span, catalog, optimizer) -> str:
    """EXPLAIN ANALYZE output: the executed span tree, each line carrying
    estimated vs. actual rows and the span's inclusive counters.  When
    the parallel engine executed the statement, a per-worker morsel
    breakdown (aggregated from the grafted worker spans) follows the
    tree."""
    lines: List[str] = []

    def emit(span, depth: int) -> None:
        name = span.name
        if span.kind == "query":
            name = "Query"
        lines.append(
            "  " * depth
            + f"{name}  {_span_annotations(span, catalog, optimizer)}"
        )
        for child in span.children:
            emit(child, depth + 1)

    emit(root_span, 0)
    breakdown = _worker_breakdown(root_span)
    if breakdown:
        lines.append("")
        lines.extend(breakdown)
    return "\n".join(lines)


def _worker_breakdown(root_span) -> List[str]:
    """Per-worker morsel timing aggregated from grafted worker spans."""
    workers = root_span.find_all("worker")
    if not workers:
        return []
    per_pid: dict = {}
    for span in workers:
        pid = span.attrs.get("pid", "?")
        agg = per_pid.setdefault(
            pid, {"morsels": 0, "seconds": 0.0, "ops": 0, "queue_wait": 0.0}
        )
        agg["morsels"] += 1
        agg["seconds"] += span.elapsed
        agg["ops"] += span.total_ops()
        agg["queue_wait"] += float(span.attrs.get("queue_wait", 0.0))
    lines = ["Per-worker morsel breakdown:"]
    for pid in sorted(per_pid, key=str):
        agg = per_pid[pid]
        lines.append(
            f"  worker {pid}: morsels={agg['morsels']}, "
            f"ops={agg['ops']}, time={_fmt_ms(agg['seconds'])}, "
            f"queue_wait={_fmt_ms(agg['queue_wait'])}"
        )
    return lines
