"""Regression sentinel: tolerance-gated cross-run metric comparison.

Compares the metrics of two :class:`~repro.obs.runs.RunRecord`\\ s (or raw
metric dicts) and classifies every shared metric as ``improved`` /
``ok`` / ``regressed`` against a per-metric :class:`Tolerance`:

* direction is inferred from the metric name — latency/time/loss-style
  metrics are lower-is-better, everything else higher-is-better;
* a change is a regression when it degrades by more than
  ``max(abs_tol, rel_tol · |baseline|)``, and so is a current value that
  is NaN or ±inf against a finite baseline;
* when both runs carry per-trial sample lists, a percentile-bootstrap
  confidence interval on the mean difference
  (:func:`repro.eval.significance.bootstrap_mean_diff`) annotates the
  verdict — a regression whose CI excludes zero is flagged significant.

This is the engine behind ``repro runs check`` (exit 1 on any
regression — the CI gate; exit 2 on a non-finite baseline value, which
no current value can regress against) and the repo-root ``BENCH_*.json`` trajectory
files that ``benchmarks/run_all.py`` appends to.  See docs/runs.md for
the tolerance table and file formats.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.eval.significance import bootstrap_mean_diff
from repro.obs.runs import _read_object
from repro.utils.artifact import ArtifactError, atomic_write_text

__all__ = [
    "Tolerance",
    "MetricVerdict",
    "SentinelReport",
    "DEFAULT_TOLERANCES",
    "metric_direction",
    "compare_metrics",
    "compare_runs",
    "append_trajectory",
    "load_trajectory",
]


@dataclass(frozen=True)
class Tolerance:
    """Allowed degradation before a metric counts as regressed."""

    #: Relative slack as a fraction of the baseline value.
    rel: float = 0.03
    #: Absolute slack in the metric's own units.
    abs: float = 0.0

    def threshold(self, baseline: float) -> float:
        return max(self.abs, self.rel * abs(baseline))


#: Per-metric overrides; anything absent falls back to ``DEFAULT_TOL``.
#: Quality metrics get tighter relative slack than noisy timing ones.
DEFAULT_TOLERANCES: Dict[str, Tolerance] = {
    "recall@20": Tolerance(rel=0.05, abs=0.005),
    "ndcg@20": Tolerance(rel=0.05, abs=0.005),
    "auc": Tolerance(rel=0.02, abs=0.005),
    "f1": Tolerance(rel=0.05, abs=0.005),
    "qps": Tolerance(rel=0.25),
    "p50_ms": Tolerance(rel=0.30, abs=0.05),
    "p95_ms": Tolerance(rel=0.30, abs=0.05),
    "p99_ms": Tolerance(rel=0.50, abs=0.10),
    "t_per_epoch_s": Tolerance(rel=0.30, abs=0.05),
    # Allocation is near-deterministic given config + dataset, but batch
    # layout may shift a little between numpy versions — 15% + 1 MiB floor.
    "peak_mem_bytes": Tolerance(rel=0.15, abs=1 << 20),
}

DEFAULT_TOL = Tolerance(rel=0.05)

_LOWER_IS_BETTER = (
    "p50", "p95", "p99", "latency", "loss", "time", "seconds",
    "_s", "_ms", "epoch_s", "build", "budget", "burn",
    "bytes", "mem", "leak",
)


def metric_direction(name: str) -> int:
    """+1 when higher is better, -1 when lower is better."""
    leaf = name.rsplit("/", 1)[-1].lower()
    for marker in _LOWER_IS_BETTER:
        if marker in leaf:
            return -1
    return 1


def _tolerance_for(name: str, tolerances: Dict[str, Tolerance]) -> Tolerance:
    if name in tolerances:
        return tolerances[name]
    leaf = name.rsplit("/", 1)[-1]
    return tolerances.get(leaf, DEFAULT_TOL)


@dataclass
class MetricVerdict:
    """One metric's baseline-vs-current classification."""

    metric: str
    baseline: float
    current: float
    delta: float
    rel_delta: float
    direction: int
    status: str  # "improved" | "ok" | "regressed"
    ci: Optional[Dict[str, float]] = None

    @property
    def significant(self) -> bool:
        return bool(self.ci and self.ci.get("significant"))


@dataclass
class SentinelReport:
    """All verdicts of one comparison."""

    verdicts: List[MetricVerdict] = field(default_factory=list)
    baseline_id: str = ""
    current_id: str = ""

    @property
    def regressed(self) -> bool:
        return any(v.status == "regressed" for v in self.verdicts)

    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regressed"]

    def render(self) -> str:
        from repro.utils import format_table

        rows = []
        for v in sorted(self.verdicts, key=lambda v: (v.status != "regressed", v.metric)):
            arrow = {"improved": "▲", "ok": "·", "regressed": "▼"}[v.status]
            ci = ""
            if v.ci is not None:
                ci = f"[{v.ci['ci_low']:+.4g}, {v.ci['ci_high']:+.4g}]"
                if v.significant:
                    ci += "*"
            rows.append(
                [
                    v.metric,
                    f"{v.baseline:.4g}",
                    f"{v.current:.4g}",
                    f"{v.delta:+.4g} ({100 * v.rel_delta:+.1f}%)",
                    f"{arrow} {v.status}",
                    ci,
                ]
            )
        title = "regression sentinel"
        if self.baseline_id or self.current_id:
            title += f" — {self.baseline_id or '?'} → {self.current_id or '?'}"
        table = format_table(
            ["metric", "baseline", "current", "delta", "verdict", "bootstrap CI"],
            rows,
            title=title,
        )
        tail = (
            f"\nREGRESSED: {len(self.regressions())} metric(s) beyond tolerance"
            if self.regressed
            else "\nok: no metric regressed beyond tolerance"
        )
        return table + tail

    def to_json(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_id,
            "current": self.current_id,
            "regressed": self.regressed,
            "verdicts": [
                {
                    "metric": v.metric,
                    "baseline": v.baseline,
                    "current": v.current,
                    "delta": v.delta,
                    "rel_delta": v.rel_delta,
                    "status": v.status,
                    "ci": v.ci,
                }
                for v in self.verdicts
            ],
        }


def _as_scalar(value: Any) -> Optional[float]:
    """Scalar view of a metric value: per-trial lists read as their mean."""
    if isinstance(value, (list, tuple)):
        return float(sum(value) / len(value)) if value else None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _as_samples(value: Any) -> Optional[List[float]]:
    """Per-trial samples when the value is a list of at least two."""
    if isinstance(value, (list, tuple)) and len(value) >= 2:
        return [float(v) for v in value]
    return None


def compare_metrics(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerances: Optional[Dict[str, Tolerance]] = None,
    bootstrap_seed: int = 0,
) -> SentinelReport:
    """Classify every metric present in *both* dicts.

    Values may be scalars or per-trial lists; lists on both sides add a
    bootstrap CI to the verdict.  A non-finite current value against a
    finite baseline regresses, whatever the tolerance.  Metrics present
    on only one side are ignored (the registry schema may grow between
    versions).
    """
    tolerances = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    report = SentinelReport()
    for name in sorted(set(baseline) & set(current)):
        base_val = _as_scalar(baseline[name])
        cur_val = _as_scalar(current[name])
        if base_val is None or cur_val is None:
            continue
        direction = metric_direction(name)
        delta = cur_val - base_val
        rel_delta = delta / abs(base_val) if base_val else 0.0
        # Positive `gain` = better, whatever the metric's direction.
        gain = direction * delta
        threshold = _tolerance_for(name, tolerances).threshold(base_val)
        diverged = not math.isfinite(cur_val) and math.isfinite(base_val)
        if diverged or gain < -threshold:
            status = "regressed"
        elif gain > threshold:
            status = "improved"
        else:
            status = "ok"
        ci = None
        base_samples = _as_samples(baseline[name])
        cur_samples = _as_samples(current[name])
        if base_samples and cur_samples:
            ci = bootstrap_mean_diff(
                cur_samples, base_samples, seed=bootstrap_seed
            )
        report.verdicts.append(
            MetricVerdict(
                metric=name,
                baseline=base_val,
                current=cur_val,
                delta=delta,
                rel_delta=rel_delta,
                direction=direction,
                status=status,
                ci=ci,
            )
        )
    return report


def compare_runs(
    baseline,
    current,
    tolerances: Optional[Dict[str, Tolerance]] = None,
) -> SentinelReport:
    """:func:`compare_metrics` over two :class:`RunRecord`\\ s."""
    report = compare_metrics(
        baseline.metrics, current.metrics, tolerances=tolerances
    )
    report.baseline_id = baseline.run_id
    report.current_id = current.run_id
    return report


# ----------------------------------------------------------------------
# Trajectory files (repo-root BENCH_*.json)
# ----------------------------------------------------------------------
def append_trajectory(path, entry: Dict[str, Any]) -> int:
    """Append one run's entry to a ``BENCH_*.json`` trajectory file.

    The file is a single JSON object ``{"format": 1, "entries": [...]}``
    so the history renders on GitHub and diffs cleanly; entries carry at
    least ``run_id``, ``ts``, and ``metrics``.  The file is replaced
    atomically, so a crash mid-write keeps the old history.  Returns the
    new length; an unreadable file raises as in :func:`load_trajectory`.
    """
    path = Path(path)
    entries = load_trajectory(path)
    entry = dict(entry)
    entry.setdefault("ts", time.time())
    entries.append(entry)
    atomic_write_text(
        path, json.dumps({"format": 1, "entries": entries}, indent=1) + "\n"
    )
    return len(entries)


def load_trajectory(path) -> List[Dict[str, Any]]:
    """A trajectory file's entries (``[]`` when it does not exist); a file
    that is not a JSON object with an ``entries`` array raises
    :class:`~repro.utils.artifact.ArtifactError` naming it."""
    path = Path(path)
    if not path.exists():
        return []
    entries = _read_object(path.read_bytes(), str(path)).get("entries", [])
    if not isinstance(entries, list):
        raise ArtifactError(f"{path}: field 'entries' must be an array")
    return entries
