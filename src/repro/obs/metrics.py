"""Counters, gauges, and latency windows behind one registry.

Promoted from the old ``repro.serve.metrics`` location (the deprecated
shim has been removed; ``repro.serve`` re-exports the registry) so the
trainer, the benchmark harness, and the serving engine all feed the same
registry type.  The surface is modeled on the Prometheus client
(counters + gauges + summaries) with no external dependency.

Every latency number comes from one ring buffer,
:class:`SlidingWindowStats`: time-bounded for the serving SLO windows,
count-bounded (``window_s=math.inf``) for the registry's summaries,
whose percentiles are exact until the ring wraps and describe the most
recent ``capacity`` samples after.

Exported in two forms: :meth:`MetricsRegistry.snapshot` (a plain dict for
JSON endpoints and tests) and :meth:`MetricsRegistry.render` (Prometheus
text exposition for ``GET /metrics``).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["WindowSnapshot", "SlidingWindowStats", "MetricsRegistry"]

#: Samples each registry latency summary keeps (its ring's capacity).
SUMMARY_WINDOW = 4096
#: Percentiles every summary reports, as ``p50``/``p95``/``p99``.
SUMMARY_QUANTILES = (50, 95, 99)
#: Name prefix of every metric in the ``/metrics`` exposition.
METRIC_PREFIX = "repro_serve"


@dataclass(frozen=True)
class WindowSnapshot:
    """Point-in-time view of one sliding window."""

    window_s: float
    count: int
    errors: int
    qps: float
    error_rate: float
    p50: float
    p95: float
    p99: float
    mean: float
    _sorted: Tuple[float, ...] = ()

    @property
    def availability(self) -> float:
        return 1.0 - self.error_rate

    def percentile(self, q: float) -> float:
        """Linearly interpolated q-th percentile (0-100) of the window.

        Total on any window state: an empty window returns 0.0, a single
        sample returns that sample for every q, and q is clamped into
        [0, 100] — never raises.
        """
        if not self._sorted:
            return 0.0
        q = min(100.0, max(0.0, float(q)))
        pos = q / 100.0 * (len(self._sorted) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(self._sorted) - 1)
        frac = pos - lo
        return self._sorted[lo] * (1 - frac) + self._sorted[hi] * frac

    def fraction_over(self, threshold_s: float) -> float:
        """Fraction of retained requests slower than ``threshold_s``."""
        if not self._sorted:
            return 0.0
        idx = bisect.bisect_right(self._sorted, float(threshold_s))
        return (len(self._sorted) - idx) / len(self._sorted)


class SlidingWindowStats:
    """Ring buffer of ``(t, latency, ok)`` over a bounded time window.

    QPS, error rate, and percentiles all describe the last ``window_s``
    seconds, which is what SLO burn rates are defined over.  ``capacity``
    bounds memory under heavy traffic (the window degrades to the most
    recent ``capacity`` observations); with ``window_s=math.inf`` the
    ring is count-bounded only, which is how the registry keeps its
    latency summaries.  ``total_count`` / ``total_errors`` / ``total``
    (summed seconds) are cumulative over the ring's lifetime.
    """

    def __init__(self, window_s: float = 60.0, capacity: int = 16384):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.window_s = float(window_s)
        self._buf: deque = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._created = time.monotonic()
        self.total_count = 0
        self.total_errors = 0
        self.total = 0.0

    def observe(
        self, latency_s: float, ok: bool = True, now: Optional[float] = None
    ) -> None:
        value = float(latency_s)
        if value < 0:
            raise ValueError("latency cannot be negative")
        now = time.monotonic() if now is None else float(now)
        with self._lock:
            self._buf.append((now, value, bool(ok)))
            self.total_count += 1
            self.total += value
            if not ok:
                self.total_errors += 1

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        while self._buf and self._buf[0][0] < horizon:
            self._buf.popleft()

    def snapshot(
        self, now: Optional[float] = None, window_s: Optional[float] = None
    ) -> WindowSnapshot:
        """Stats over the last ``window_s`` seconds (default: the ring's
        whole window; a shorter one reads only the newest entries)."""
        now = time.monotonic() if now is None else float(now)
        window_s = self.window_s if window_s is None else float(window_s)
        if not 0 < window_s <= self.window_s:
            raise ValueError(f"window_s must be in (0, {self.window_s:g}]")
        with self._lock:
            self._trim(now)
            rows = list(self._buf)
        if window_s < self.window_s:
            # Rows are in time order; (t,) sorts before every (t, ...).
            rows = rows[bisect.bisect_left(rows, (now - window_s,)) :]
        count = len(rows)
        errors = sum(1 for _, _, ok in rows if not ok)
        latencies = tuple(sorted(value for _, value, _ in rows))
        # Early in the process lifetime the window is not yet full; use
        # the elapsed fraction so QPS is not underestimated at boot.
        elapsed = min(window_s, max(1e-9, now - self._created))
        snap = WindowSnapshot(
            window_s=window_s,
            count=count,
            errors=errors,
            qps=count / elapsed,
            error_rate=(errors / count) if count else 0.0,
            p50=0.0,
            p95=0.0,
            p99=0.0,
            mean=(sum(latencies) / count) if count else 0.0,
            _sorted=latencies,
        )
        # frozen dataclass: fill the percentile fields via object.__setattr__
        object.__setattr__(snap, "p50", snap.percentile(50))
        object.__setattr__(snap, "p95", snap.percentile(95))
        object.__setattr__(snap, "p99", snap.percentile(99))
        return snap

    def summary(self) -> Dict[str, float]:
        """Cumulative count/sum plus windowed quantiles (``p50``, ...)."""
        snap = self.snapshot()
        out = {"count": float(self.total_count), "sum": self.total}
        for q in SUMMARY_QUANTILES:
            out[f"p{q:g}"] = snap.percentile(q)
        return out


class MetricsRegistry:
    """Named counters, gauges, and latency summaries behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, SlidingWindowStats] = {}
        self._help: Dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric's exposition."""
        with self._lock:
            self._help[name] = str(help_text)

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (queue depth, epoch loss, ...)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = SlidingWindowStats(
                    window_s=math.inf, capacity=SUMMARY_WINDOW
                )
            hist.observe(seconds)

    def time(self, name: str) -> "_Timer":
        """``with metrics.time("recommend"): ...`` convenience."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view: counters, gauges, histogram summaries, ratios."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: hist.summary() for name, hist in self._histograms.items()
            }
        hits = counters.get("cache_hits", 0.0)
        misses = counters.get("cache_misses", 0.0)
        lookups = hits + misses
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def render(self) -> str:
        """Prometheus text exposition of every counter, gauge, histogram,
        each named ``<METRIC_PREFIX>_<name>``.

        Histogram names should carry their unit (the engine records e.g.
        ``recommend_latency_seconds``); quantiles become labeled samples.
        """
        snap = self.snapshot()
        with self._lock:
            helps = dict(self._help)
        lines: List[str] = []

        def declare(name: str, kind: str) -> str:
            metric = f"{METRIC_PREFIX}_{name}"
            if name in helps:
                # HELP text is a single escaped line per the exposition
                # format (backslash and newline must be escaped).
                text = helps[name].replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {metric} {text}")
            lines.append(f"# TYPE {metric} {kind}")
            return metric

        for name, value in sorted(snap["counters"].items()):
            declare(name, "counter")
            lines.append(f"{METRIC_PREFIX}_{name} {value:g}")
        for name, value in sorted(snap["gauges"].items()):
            declare(name, "gauge")
            lines.append(f"{METRIC_PREFIX}_{name} {value:g}")
        declare("cache_hit_rate", "gauge")
        lines.append(f"{METRIC_PREFIX}_cache_hit_rate {snap['cache_hit_rate']:.6f}")
        for name, summary in sorted(snap["histograms"].items()):
            metric = declare(name, "summary")
            for key, value in summary.items():
                if key in ("count", "sum"):
                    lines.append(f"{metric}_{key} {value:g}")
                else:
                    q = float(key[1:]) / 100.0
                    lines.append(f'{metric}{{quantile="{q:g}"}} {value:.9f}')
        return "\n".join(lines) + "\n"


class _Timer:
    def __init__(self, registry: MetricsRegistry, name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)
