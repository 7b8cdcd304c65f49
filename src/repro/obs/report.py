"""Run-registry reporting: text tables, SVG sparklines, HTML report.

``repro runs report`` renders the registry three ways:

* a text table of runs (id, kind, model/dataset, wall time, headline
  metrics) via :func:`run_table`;
* per-run sparkline curves of every per-epoch series in the training
  history (loss, eval metric, grad norm) as dependency-free inline SVG;
* an optional single-file HTML report (``--html``) combining the table,
  the sparklines, and a side-by-side sentinel comparison of the two most
  recent comparable runs.

Everything is stdlib-only so reports can be generated on CI and attached
as artifacts.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.runs import RunRecord, RunStore
from repro.obs.sentinel import SentinelReport, compare_runs

__all__ = [
    "run_table",
    "AnatomyReport",
    "epoch_anatomy",
    "sparkline_svg",
    "history_series",
    "html_report",
    "serving_dashboard_html",
]


def _fmt_ts(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.gmtime(ts)) if ts else "-"


def _fmt_metrics(metrics: Dict[str, Any], limit: int = 3) -> str:
    parts = []
    for name, value in list(metrics.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{name}={value:.4g}")
        elif value is not None:
            parts.append(f"{name}={value}")
    return ", ".join(parts)


def run_table(entries: Sequence[Dict[str, Any]]) -> str:
    """Text table over ``RunStore.list()`` index entries (newest last)."""
    from repro.utils import format_table

    rows = []
    for entry in entries:
        rows.append(
            [
                entry["run_id"],
                entry.get("kind", "?"),
                entry.get("model") or "-",
                entry.get("dataset") or "-",
                _fmt_ts(entry.get("created_at", 0.0)),
                f"{entry.get('wall_time_s', 0.0):.1f}",
                str(entry.get("n_anomalies", 0)),
                _fmt_metrics(entry.get("metrics", {})),
            ]
        )
    return format_table(
        ["run", "kind", "model", "dataset", "created (UTC)", "wall s",
         "anom", "metrics"],
        rows,
        title=f"run registry — {len(entries)} run(s)",
    )


# ----------------------------------------------------------------------
# Sparklines
# ----------------------------------------------------------------------
def sparkline_svg(
    values: Sequence[float],
    width: int = 160,
    height: int = 28,
    stroke: str = "#2563eb",
) -> str:
    """Inline SVG polyline of a numeric series, normalized to its range."""
    values = [float(v) for v in values]
    if not values:
        return f'<svg width="{width}" height="{height}"></svg>'
    pad = 2.0
    lo, hi = min(values), max(values)
    if len(values) == 1 or hi == lo:
        # Degenerate trajectories: a lone sample has no x-extent and a
        # constant series has zero range, which the normalization below
        # would pin to the baseline. Render a centered flat line (plus a
        # dot marking the lone sample) instead.
        mid = height / 2.0
        marker = (
            f'<circle cx="{width / 2.0:.1f}" cy="{mid:.1f}" r="2" '
            f'fill="{stroke}"/>'
            if len(values) == 1
            else ""
        )
        return (
            f'<svg width="{width}" height="{height}" role="img">'
            f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" '
            f'points="{pad:.1f},{mid:.1f} {width - pad:.1f},{mid:.1f}"/>'
            f"{marker}</svg>"
        )
    span = hi - lo
    n = len(values)
    points = []
    for i, v in enumerate(values):
        x = pad + (width - 2 * pad) * (i / (n - 1))
        y = height - pad - (height - 2 * pad) * ((v - lo) / span)
        points.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg>'
    )


def history_series(record: RunRecord) -> Dict[str, List[float]]:
    """Per-epoch numeric series from a training history, by key."""
    series: Dict[str, List[float]] = {}
    for row in record.history:
        for key, value in row.items():
            if key == "epoch" or not isinstance(value, (int, float)):
                continue
            series.setdefault(key, []).append(float(value))
    return {k: v for k, v in series.items() if len(v) >= 2}


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------
_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #111; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #ddd; padding: 4px 10px; text-align: left; }
th { background: #f5f5f5; }
.regressed { color: #b91c1c; font-weight: 600; }
.improved { color: #15803d; }
.ok { color: #666; }
h2 { margin-top: 2rem; }
.spark td { border: none; padding: 2px 10px; }
"""


def _metric_cell(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        mean = sum(value) / len(value) if value else 0.0
        return f"{mean:.4g} (n={len(value)})"
    if isinstance(value, float):
        return f"{value:.4g}"
    return html.escape(str(value))


def _run_section(record: RunRecord) -> List[str]:
    out = [f"<h2>{html.escape(record.run_id)}</h2>"]
    out.append(
        "<p>"
        f"kind=<b>{html.escape(record.kind)}</b>"
        + (f", model=<b>{html.escape(record.model)}</b>" if record.model else "")
        + (f", dataset=<b>{html.escape(record.dataset)}</b>" if record.dataset else "")
        + f", seed={record.seed}, wall={record.wall_time_s:.1f}s"
        + (f", config={record.config_hash}" if record.config_hash else "")
        + "</p>"
    )
    if record.metrics:
        out.append("<table><tr><th>metric</th><th>value</th></tr>")
        for name, value in sorted(record.metrics.items()):
            out.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{_metric_cell(value)}</td></tr>"
            )
        out.append("</table>")
    series = history_series(record)
    if series:
        out.append('<table class="spark">')
        for name, values in sorted(series.items()):
            out.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{sparkline_svg(values)}</td>"
                f"<td>{values[0]:.4g} → {values[-1]:.4g}</td></tr>"
            )
        out.append("</table>")
    if record.anomalies:
        out.append(f"<p class=\"regressed\">{len(record.anomalies)} anomalies:</p><ul>")
        for anomaly in record.anomalies[:20]:
            out.append(f"<li><code>{html.escape(str(anomaly))}</code></li>")
        out.append("</ul>")
    if record.failures:
        out.append(f"<p class=\"regressed\">{len(record.failures)} failures:</p><ul>")
        for failure in record.failures:
            out.append(f"<li><code>{html.escape(str(failure.get('name')))}: "
                       f"{html.escape(str(failure.get('error', '')))}</code></li>")
        out.append("</ul>")
    return out


def _comparison_section(report: SentinelReport) -> List[str]:
    out = [
        "<h2>Latest comparison "
        f"({html.escape(report.baseline_id)} → {html.escape(report.current_id)})</h2>",
        "<table><tr><th>metric</th><th>baseline</th><th>current</th>"
        "<th>delta</th><th>verdict</th></tr>",
    ]
    for v in report.verdicts:
        out.append(
            f'<tr class="{v.status}"><td>{html.escape(v.metric)}</td>'
            f"<td>{v.baseline:.4g}</td><td>{v.current:.4g}</td>"
            f"<td>{v.delta:+.4g} ({100 * v.rel_delta:+.1f}%)</td>"
            f"<td>{v.status}{'*' if v.significant else ''}</td></tr>"
        )
    out.append("</table>")
    return out


def html_report(
    store: RunStore,
    limit: int = 20,
    records: Optional[List[RunRecord]] = None,
) -> str:
    """Single-file HTML report over the newest ``limit`` runs."""
    if records is None:
        entries = store.list()[-limit:]
        records = [store.load(e["run_id"]) for e in entries]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro run registry</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>Run registry — {len(records)} run(s)</h1>",
    ]
    if records:
        parts.append("<table><tr><th>run</th><th>kind</th><th>model</th>"
                     "<th>dataset</th><th>created (UTC)</th><th>wall s</th></tr>")
        for record in records:
            parts.append(
                f"<tr><td><a href='#{html.escape(record.run_id)}'>"
                f"{html.escape(record.run_id)}</a></td>"
                f"<td>{html.escape(record.kind)}</td>"
                f"<td>{html.escape(record.model or '-')}</td>"
                f"<td>{html.escape(record.dataset or '-')}</td>"
                f"<td>{_fmt_ts(record.created_at)}</td>"
                f"<td>{record.wall_time_s:.1f}</td></tr>"
            )
        parts.append("</table>")
    # Side-by-side sentinel comparison of the two newest comparable runs
    # (same kind, and same model+dataset for training runs).
    comparison = _latest_comparable(records)
    if comparison is not None:
        parts.extend(_comparison_section(comparison))
    for record in records:
        parts.append(f"<a id='{html.escape(record.run_id)}'></a>")
        parts.extend(_run_section(record))
    parts.append("</body></html>")
    return "\n".join(parts)


def _latest_comparable(records: List[RunRecord]) -> Optional[SentinelReport]:
    for i in range(len(records) - 1, 0, -1):
        current = records[i]
        for j in range(i - 1, -1, -1):
            earlier = records[j]
            if earlier.kind != current.kind:
                continue
            if current.kind == "train" and (
                earlier.model != current.model
                or earlier.dataset != current.dataset
            ):
                continue
            if not (set(earlier.metrics) & set(current.metrics)):
                continue
            return compare_runs(earlier, current)
    return None


# ----------------------------------------------------------------------
# Live serving dashboard (`repro obs dashboard`)
# ----------------------------------------------------------------------
_DASH_STYLE = _STYLE + """
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 1rem 0; }
.tile { border: 1px solid #ddd; border-radius: 6px; padding: 10px 16px;
        min-width: 140px; }
.tile .label { color: #666; font-size: 12px; text-transform: uppercase; }
.tile .value { font-size: 22px; font-weight: 600; }
.tile.bad .value { color: #b91c1c; }
.tile.good .value { color: #15803d; }
.meta { color: #666; font-size: 12px; }
"""


def _tile(label: str, value: str, tone: str = "") -> str:
    cls = f"tile {tone}".strip()
    return (
        f'<div class="{cls}"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}</div></div>'
    )


def serving_dashboard_html(
    samples: Sequence[Any],
    source_url: str = "",
    slo_status: Optional[Sequence[Dict[str, Any]]] = None,
) -> str:
    """Self-contained dashboard page over polled ``/metrics`` samples.

    ``samples`` are :class:`repro.obs.serving.ServingSample` objects in
    poll order; the newest one feeds the stat tiles and every series
    renders as a sparkline (single-poll pages degrade to flat lines via
    the :func:`sparkline_svg` edge-case handling).
    """
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro serving dashboard</title>",
        f"<style>{_DASH_STYLE}</style></head><body>",
        "<h1>Serving dashboard</h1>",
    ]
    if source_url:
        parts.append(
            f"<p class='meta'>source: <code>{html.escape(source_url)}</code>"
            f", {len(samples)} poll(s), rendered {_fmt_ts(time.time())} UTC</p>"
        )
    if not samples:
        parts.append("<p>no samples polled</p></body></html>")
        return "\n".join(parts)
    latest = samples[-1]
    qps = latest.window_qps
    if len(samples) >= 2 and latest.ts > samples[0].ts:
        qps = max(
            qps,
            (latest.requests - samples[0].requests) / (latest.ts - samples[0].ts),
        )
    parts.append('<div class="tiles">')
    parts.append(_tile("requests", f"{latest.requests:.0f}"))
    parts.append(_tile("QPS (window)", f"{qps:.1f}"))
    parts.append(_tile("p50", f"{latest.p50_ms:.2f} ms"))
    parts.append(_tile("p99", f"{latest.p99_ms:.2f} ms"))
    parts.append(
        _tile(
            "cache hit rate",
            f"{100 * latest.cache_hit_rate:.1f}%",
            tone="good" if latest.cache_hit_rate >= 0.5 else "",
        )
    )
    if latest.ann_recall is not None:
        parts.append(_tile("ANN recall", f"{100 * latest.ann_recall:.2f}%"))
    if latest.burn_rate is not None:
        parts.append(
            _tile(
                "budget burn",
                f"{latest.burn_rate:.2f}x",
                tone="bad" if latest.burn_rate > 1.0 else "good",
            )
        )
    parts.append(
        _tile(
            "SLO violations",
            f"{latest.slo_violations:.0f}",
            tone="bad" if latest.slo_violations else "good",
        )
    )
    parts.append("</div>")

    series = [
        ("QPS", [s.window_qps for s in samples]),
        ("p50 (ms)", [s.p50_ms for s in samples]),
        ("p99 (ms)", [s.p99_ms for s in samples]),
        ("cache hit rate", [s.cache_hit_rate for s in samples]),
        ("error rate", [s.error_rate for s in samples]),
    ]
    if any(s.burn_rate is not None for s in samples):
        series.append(
            ("budget burn", [s.burn_rate or 0.0 for s in samples])
        )
    parts.append("<h2>Trajectories</h2>")
    parts.append('<table class="spark">')
    for name, values in series:
        parts.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{sparkline_svg(values)}</td>"
            f"<td>{values[0]:.4g} → {values[-1]:.4g}</td></tr>"
        )
    parts.append("</table>")

    if slo_status:
        parts.append("<h2>SLOs</h2>")
        parts.append(
            "<table><tr><th>objective</th><th>target</th><th>attained</th>"
            "<th>budget consumed</th><th>burn rates</th><th>verdict</th></tr>"
        )
        for status in slo_status:
            cls = "ok" if status.get("met") else "regressed"
            burns = ", ".join(
                f"{w}: {rate:.2f}x"
                for w, rate in (status.get("burn_rates") or {}).items()
            )
            parts.append(
                f'<tr class="{cls}"><td>{html.escape(str(status.get("slo")))}</td>'
                f"<td>{status.get('target')}</td>"
                f"<td>{status.get('attained')}</td>"
                f"<td>{100 * float(status.get('budget_consumed', 0.0)):.1f}%</td>"
                f"<td>{html.escape(burns)}</td>"
                f"<td>{'met' if status.get('met') else 'VIOLATED'}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)


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
    one entry per (phase name, lane): call count, total and *exclusive*
    seconds (total minus time covered by nested child intervals — so the
    rows add up instead of double counting), share of epoch wall, and the
    bytes the memory tracker attributed to the same name (per-op
    allocation for op slices, per-phase allocation otherwise).

    ``wall_accounted_fraction`` is the fraction of summed epoch-span wall
    time covered by leaf intervals on the epoch's own lane — gaps inside
    any phase (uninstrumented Python glue) count as unaccounted.
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
                    r["lane"],
                    str(r["count"]),
                    f"{1000.0 * r['total_s']:.2f}",
                    f"{1000.0 * r['excl_s']:.2f}",
                    f"{share:.1f}",
                    _fmt_bytes(r.get("alloc_bytes")),
                ]
            )
        table = format_table(
            ["phase", "lane", "calls", "total ms", "excl ms", "% epoch", "alloc"],
            table_rows,
            title=f"Epoch anatomy — {self.epochs} epoch(s), "
            f"{self.epoch_wall_s:.3f}s wall",
        )
        footer = (
            f"wall accounted: {100.0 * self.wall_accounted_fraction:.1f}% "
            f"of epoch time on the driver lane"
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

    def to_html(self) -> str:
        parts = [
            "<!doctype html><html><head><meta charset='utf-8'>",
            "<title>epoch anatomy</title>",
            _STYLE,
            "</head><body>",
            "<h1>Epoch anatomy</h1>",
            f"<p>{self.epochs} epoch(s), {self.epoch_wall_s:.3f}s wall; "
            f"accounted {100.0 * self.wall_accounted_fraction:.1f}% of epoch "
            "time on the driver lane"
            + (
                f"; {100.0 * self.alloc_accounted_fraction:.1f}% of allocation "
                f"attributed (peak {_fmt_bytes(self.memory.get('peak_bytes'))})"
                if self.alloc_accounted_fraction is not None
                else ""
            )
            + "</p>",
            "<table><tr><th>phase</th><th>lane</th><th>calls</th>"
            "<th>total ms</th><th>excl ms</th><th>% epoch</th><th>alloc</th></tr>",
        ]
        for r in self.rows:
            share = 100.0 * r["excl_s"] / self.epoch_wall_s if self.epoch_wall_s else 0.0
            parts.append(
                f"<tr><td>{html.escape(str(r['name']))}</td>"
                f"<td>{html.escape(str(r['lane']))}</td>"
                f"<td>{r['count']}</td>"
                f"<td>{1000.0 * r['total_s']:.2f}</td>"
                f"<td>{1000.0 * r['excl_s']:.2f}</td>"
                f"<td>{share:.1f}</td>"
                f"<td>{_fmt_bytes(r.get('alloc_bytes'))}</td></tr>"
            )
        parts.append("</table>")
        if self.memory.get("leaked_tensors"):
            parts.append(
                f"<p class='regressed'>WARNING: {self.memory['leaked_tensors']} "
                f"tensor(s) / {_fmt_bytes(self.memory.get('leaked_bytes'))} "
                "survived an epoch boundary (possible leak)</p>"
            )
        parts.append("</body></html>")
        return "\n".join(parts)


def epoch_anatomy(
    events: Sequence[Dict[str, Any]],
    memory_summary: Optional[Dict[str, Any]] = None,
) -> AnatomyReport:
    """Distil raw Tracer events into an :class:`AnatomyReport`.

    Works on the same event stream ``repro obs timeline`` consumes: epoch
    spans define the windows, every span/complete interval inside one is
    a phase (intervals on other processes' lanes are listed under their
    own lane but do not enter the driver-lane wall accounting, since they
    run concurrently), and the ``memory_summary`` event — or an explicitly
    passed dict — supplies per-op allocation.
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
    for lane, ivs in spans_by_lane.items():
        merged.setdefault(lane, []).extend(ivs)
    for lane, ivs in completes_by_lane.items():
        merged.setdefault(lane, []).extend(ivs)

    report = AnatomyReport()
    report.memory = dict(memory_summary or {})

    # Nest each lane, then find the epoch windows on whichever lane the
    # trainer drove (fall back to lane roots).
    forests = {lane: _nest(ivs) for lane, ivs in merged.items()}
    all_nodes: Dict[Any, list] = {}
    for lane, roots in forests.items():
        nodes = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        all_nodes[lane] = nodes

    epoch_nodes = [
        n for nodes in all_nodes.values() for n in nodes if n.name == "epoch"
    ]
    if not epoch_nodes:
        epoch_nodes = [r for roots in forests.values() for r in roots]
    if not epoch_nodes:
        return report

    epoch_lanes = {id(n): lane for lane, nodes in all_nodes.items() for n in nodes}
    windows = [(n.t0, n.t1, epoch_lanes[id(n)]) for n in epoch_nodes]
    report.epochs = len(epoch_nodes)
    report.epoch_wall_s = sum(n.dur for n in epoch_nodes)

    driver_pids = {lane[0] for _, _, lane in windows}

    def in_window(node) -> bool:
        mid = 0.5 * (node.t0 + node.t1)
        return any(t0 <= mid <= t1 for t0, t1, _ in windows)

    by_op = {
        name: entry.get("bytes", 0)
        for name, entry in (report.memory.get("by_op") or {}).items()
    }
    phase_alloc = {
        name: entry.get("alloc_bytes", 0)
        for name, entry in (report.memory.get("phases") or {}).items()
    }

    grouped: Dict[Any, Dict[str, Any]] = {}
    unaccounted = 0.0

    def add_row(node, label: str, exclusive: float) -> None:
        key = (node.name, label)
        row = grouped.get(key)
        if row is None:
            row = grouped[key] = {
                "name": node.name,
                "lane": label,
                "count": 0,
                "total_s": 0.0,
                "excl_s": 0.0,
            }
        row["count"] += 1
        row["total_s"] += node.dur
        row["excl_s"] += exclusive

    def exclusive_of(node) -> float:
        return max(0.0, node.dur - sum(c.dur for c in node.children))

    # Driver-lane phases: only descendants of the epoch nodes count, and
    # every non-leaf's internal gap (uninstrumented glue) is unaccounted.
    for en in epoch_nodes:
        unaccounted += exclusive_of(en)
        stack = list(en.children)
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            exclusive = exclusive_of(node)
            if node.children:
                unaccounted += exclusive
            add_row(node, "main", exclusive)

    # Other processes' lanes run concurrently with the driver: list them
    # for attribution but keep them out of the driver-lane wall accounting.
    for lane, nodes in all_nodes.items():
        if lane[0] in driver_pids:
            continue
        label = f"pid {lane[0]}"
        for node in nodes:
            if not in_window(node):
                continue
            add_row(node, label, exclusive_of(node))

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
