"""Text and JSON reports over recorded runs and traces.

* :func:`run_table` — the run-registry table ``repro runs list`` prints
  from the recorded runs (id, kind, model/dataset, wall time, anomalies,
  headline metrics);
* :func:`epoch_anatomy` — the ``repro obs anatomy`` breakdown of a
  traced training run into phases ranked by exclusive time and
  allocation, as a text table or JSON.

The timeline view of the same trace is :mod:`repro.obs.timeline`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.sentinel import _as_scalar

__all__ = [
    "run_table",
    "AnatomyReport",
    "epoch_anatomy",
]


def _fmt_ts(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.gmtime(ts)) if ts else "-"


def _fmt_metrics(metrics: Dict[str, Any], limit: int = 3) -> str:
    parts = []
    for name, value in list(metrics.items())[:limit]:
        scalar = _as_scalar(value)
        if scalar is not None:
            parts.append(f"{name}={scalar:.4g}")
    return ", ".join(parts)


def run_table(records: Sequence[Any]) -> str:
    """Text table over the :class:`~repro.obs.runs.RunRecord`\\ s that
    ``RunStore.list()`` returns (newest last)."""
    from repro.utils import format_table

    rows = [
        [
            r.run_id,
            r.kind,
            r.model or "-",
            r.dataset or "-",
            _fmt_ts(r.created_at),
            f"{r.wall_time_s:.1f}",
            str(len(r.anomalies)),
            _fmt_metrics(r.metrics),
        ]
        for r in records
    ]
    return format_table(
        ["run", "kind", "model", "dataset", "created (UTC)", "wall s",
         "anom", "metrics"],
        rows,
        title=f"run registry — {len(records)} run(s)",
    )


# ----------------------------------------------------------------------
# Epoch anatomy: time-ordered phase breakdown of a traced training run
# ----------------------------------------------------------------------
def _fmt_bytes(n: Optional[float]) -> str:
    if not n:
        return "-"
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} GiB"


class AnatomyReport:
    """Phases of the traced epochs ranked by exclusive time and allocation.

    Built by :func:`epoch_anatomy` from raw Tracer events.  ``rows`` hold
    one entry per phase name: call count, total and *exclusive* seconds
    (total minus time covered by nested child intervals — so the rows add
    up instead of double counting), and the bytes the memory tracker
    attributed to the same name (per-op allocation for op slices,
    per-phase allocation otherwise).

    ``wall_accounted_fraction`` is the fraction of summed epoch-span wall
    time covered by leaf intervals nested in the epochs — gaps inside any
    phase (uninstrumented Python glue) count as unaccounted.
    ``alloc_accounted_fraction`` is the fraction of all allocated bytes
    that carry a per-op attribution.
    """

    def __init__(self):
        self.epochs = 0
        self.epoch_wall_s = 0.0
        self.wall_accounted_fraction = 0.0
        self.alloc_accounted_fraction: Optional[float] = None
        self.memory: Dict[str, Any] = {}
        self.rows: List[Dict[str, Any]] = []

    def to_json(self) -> Dict[str, Any]:
        return {
            "epochs": self.epochs,
            "epoch_wall_s": self.epoch_wall_s,
            "wall_accounted_fraction": self.wall_accounted_fraction,
            "alloc_accounted_fraction": self.alloc_accounted_fraction,
            "peak_mem_bytes": self.memory.get("peak_bytes"),
            "rows": self.rows,
        }

    def render(self) -> str:
        from repro.utils import format_table

        table_rows = []
        for r in self.rows:
            share = 100.0 * r["excl_s"] / self.epoch_wall_s if self.epoch_wall_s else 0.0
            table_rows.append(
                [
                    r["name"],
                    str(r["count"]),
                    f"{1000.0 * r['total_s']:.2f}",
                    f"{1000.0 * r['excl_s']:.2f}",
                    f"{share:.1f}",
                    _fmt_bytes(r.get("alloc_bytes")),
                ]
            )
        table = format_table(
            ["phase", "calls", "total ms", "excl ms", "% epoch", "alloc"],
            table_rows,
            title=f"Epoch anatomy — {self.epochs} epoch(s), "
            f"{self.epoch_wall_s:.3f}s wall",
        )
        footer = (
            f"wall accounted: {100.0 * self.wall_accounted_fraction:.1f}% "
            f"of epoch time"
        )
        if self.alloc_accounted_fraction is not None:
            footer += (
                f"; allocation attributed: "
                f"{100.0 * self.alloc_accounted_fraction:.1f}% of "
                f"{_fmt_bytes(self.memory.get('total_alloc_bytes'))} allocated "
                f"(peak {_fmt_bytes(self.memory.get('peak_bytes'))})"
            )
        if self.memory.get("leaked_tensors"):
            footer += (
                f"\nWARNING: {self.memory['leaked_tensors']} tensor(s) / "
                f"{_fmt_bytes(self.memory.get('leaked_bytes'))} survived an "
                "epoch boundary (possible leak)"
            )
        return table + "\n" + footer


def epoch_anatomy(
    events: Sequence[Dict[str, Any]],
    memory_summary: Optional[Dict[str, Any]] = None,
) -> AnatomyReport:
    """Distil raw Tracer events into an :class:`AnatomyReport`.

    Works on the same event stream ``repro obs timeline`` consumes: epoch
    spans define the windows, every span/complete interval nested in one
    is a phase, and the ``memory_summary`` event — or an explicitly
    passed dict — supplies per-op allocation.  A trace without an
    ``epoch`` span yields the empty report.
    """
    from repro.obs.timeline import _collect, _nest

    events = list(events)
    if memory_summary is None:
        for ev in reversed(events):
            if ev.get("kind") == "event" and ev.get("name") == "memory_summary":
                memory_summary = ev.get("attrs") or {}
                break

    spans_by_lane, completes_by_lane, _counters, _instants = _collect(events)
    merged: Dict[Any, list] = {}
    for by_lane in (spans_by_lane, completes_by_lane):
        for lane, ivs in by_lane.items():
            merged.setdefault(lane, []).extend(ivs)

    report = AnatomyReport()
    report.memory = dict(memory_summary or {})

    # Nest each lane and pick out the epoch spans on whichever lane the
    # trainer drove.
    epoch_nodes = []
    for ivs in merged.values():
        stack = _nest(ivs)
        while stack:
            node = stack.pop()
            if node.name == "epoch":
                epoch_nodes.append(node)
            stack.extend(node.children)
    if not epoch_nodes:
        return report
    report.epochs = len(epoch_nodes)
    report.epoch_wall_s = sum(n.dur for n in epoch_nodes)

    by_op = {
        name: entry.get("bytes", 0)
        for name, entry in (report.memory.get("by_op") or {}).items()
    }
    phase_alloc = {
        name: entry.get("alloc_bytes", 0)
        for name, entry in (report.memory.get("phases") or {}).items()
    }

    def exclusive_of(node) -> float:
        return max(0.0, node.dur - sum(c.dur for c in node.children))

    # Only descendants of the epoch nodes count, and every non-leaf's
    # internal gap (uninstrumented glue) is unaccounted.
    grouped: Dict[str, Dict[str, Any]] = {}
    unaccounted = 0.0
    for en in epoch_nodes:
        unaccounted += exclusive_of(en)
        stack = list(en.children)
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            exclusive = exclusive_of(node)
            if node.children:
                unaccounted += exclusive
            row = grouped.get(node.name)
            if row is None:
                row = grouped[node.name] = {
                    "name": node.name,
                    "count": 0,
                    "total_s": 0.0,
                    "excl_s": 0.0,
                }
            row["count"] += 1
            row["total_s"] += node.dur
            row["excl_s"] += exclusive

    for row in grouped.values():
        alloc = by_op.get(row["name"])
        if alloc is None:
            alloc = phase_alloc.get(row["name"])
        if alloc:
            row["alloc_bytes"] = alloc

    report.rows = sorted(grouped.values(), key=lambda r: r["excl_s"], reverse=True)
    if report.epoch_wall_s > 0:
        report.wall_accounted_fraction = max(
            0.0, 1.0 - unaccounted / report.epoch_wall_s
        )
    total_alloc = report.memory.get("total_alloc_bytes")
    if total_alloc:
        attributed = sum(
            entry.get("bytes", 0)
            for entry in (report.memory.get("by_op") or {}).values()
        )
        report.alloc_accounted_fraction = attributed / total_alloc
    return report
