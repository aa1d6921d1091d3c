"""Hotspot summary rendering over the flight recorder and telemetry.

``render_report`` turns one :class:`~repro.obs.core.Observability` (and,
when the parallel engine is configured, the scheduler's per-worker
telemetry) into an aligned plain-text report:

* **statement hotspots** — the flight recorder's per-fingerprint
  profiles ranked by total wall-clock, with calls, mean ops, estimated
  p50/p95/p99 latency, and the reuse-layer outcome mix;
* **tail latency** — workload-wide p50/p95/p99 over every recorded
  statement;
* **slow queries** — the most recent slow-log entries;
* **per-worker telemetry** — morsels, busy/queue-wait seconds, and
  retried/quarantined morsels per worker pid.

The report is inspection-only: rendering reads retained state and
charges nothing, so it can run mid-benchmark without perturbing counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000.0:.3f}ms"


def _clip(text: str, width: int = 48) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return lines


def render_report(
    obs: Any,
    scheduler_stats: Optional[Dict[str, Any]] = None,
    top: int = 10,
    quarantine: Optional[Dict[str, Any]] = None,
    replication: Optional[Dict[str, Any]] = None,
) -> str:
    """The hotspot summary for one observability instance.

    ``scheduler_stats`` is the shape ``db.scheduler_stats()`` returns —
    the scheduler's run counters plus ``workers`` (per-pid telemetry);
    None (or a stats dict without workers) omits that section.
    ``quarantine`` (the shape of ``db.quarantine_report()``) and
    ``replication`` (``db.replication_state()``) add a degraded-state
    section when either is non-empty.
    """
    lines: List[str] = ["Observability report", "====================", ""]

    recorder = getattr(obs, "recorder", None)
    if recorder is not None and recorder.profiles():
        lines.append(f"Statement hotspots (top {top} by total wall-clock):")
        rows = []
        for profile in recorder.profiles()[:top]:
            pct = profile.latency_percentiles()
            rows.append([
                profile.fingerprint,
                str(profile.calls),
                f"{profile.total_seconds * 1000.0:.1f}ms",
                f"{profile.total_ops / profile.calls:,.0f}",
                _fmt_ms(pct.get("p50")),
                _fmt_ms(pct.get("p95")),
                _fmt_ms(pct.get("p99")),
                ",".join(
                    f"{name}={count}"
                    for name, count in sorted(
                        profile.cache_outcomes.items()
                    )
                ),
                _clip(profile.sql),
            ])
        lines.extend(_table(
            ["fingerprint", "calls", "total", "mean_ops",
             "p50", "p95", "p99", "cache", "sql"],
            rows,
        ))
        lines.append("")
        tail = recorder.tail_percentiles()
        lines.append(
            f"Tail latency (all {recorder.overall_latency.count} recorded "
            f"statements): p50={_fmt_ms(tail.get('p50'))} "
            f"p95={_fmt_ms(tail.get('p95'))} p99={_fmt_ms(tail.get('p99'))}"
        )
        lines.append("")
    else:
        lines.append("No flight records (recorder off or no statements).")
        lines.append("")

    slow = list(getattr(obs, "slow_queries", ()) or ())
    if slow:
        lines.append(f"Slow queries (most recent {min(len(slow), top)}):")
        rows = [
            [
                f"{entry.total_ops:,}",
                _fmt_ms(entry.elapsed),
                _clip(entry.sql),
            ]
            for entry in slow[-top:]
        ]
        lines.extend(_table(["ops", "time", "sql"], rows))
        lines.append("")

    workers = (scheduler_stats or {}).get("workers") or {}
    if workers:
        lines.append("Per-worker telemetry:")
        rows = []
        for pid in sorted(workers):
            stats = workers[pid]
            rows.append([
                str(pid),
                str(stats.get("morsels", 0)),
                _fmt_ms(stats.get("busy_seconds", 0.0)),
                _fmt_ms(stats.get("queue_wait_seconds", 0.0)),
                str(stats.get("retried_morsels", 0)),
                str(stats.get("quarantined_morsels", 0)),
            ])
        lines.extend(_table(
            ["worker", "morsels", "busy", "queue_wait", "retried",
             "quarantined"],
            rows,
        ))
        lines.append("")

    if quarantine or replication:
        lines.append("Degraded state:")
        for relation in sorted(quarantine or {}):
            for partition_id, reason in quarantine[relation]:
                lines.append(
                    f"  quarantined {relation}[{partition_id}]: "
                    f"{_clip(reason, 64)}"
                )
        if replication:
            shipper = replication.get("shipper") or {}
            lines.append(
                f"  replication: state={replication.get('state', '-')} "
                f"lag_records={shipper.get('lag_records', 0)} "
                f"epoch={shipper.get('epoch', '-')} "
                f"failovers={replication.get('failovers', 0)} "
                f"heals={replication.get('partition_heals', 0)}"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
