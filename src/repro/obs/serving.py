"""Request-scoped serving observability: traces, SLOs, slow requests.

Three pillars behind the serving stack (``docs/observability.md``):

* **request-scoped tracing** — every HTTP request gets a
  :class:`RequestContext` minted at the edge (a ``request_id`` echoed in
  every response): an in-memory :class:`~repro.obs.events.Tracer` that
  records ordinary spans (``cache.lookup``, ``index.query``,
  ``ann.probe``) as the request flows server → engine → cache → index.
  The context is installed per-thread via :func:`use_request` so deep
  layers (the IVF probe loop) can attach spans without threading the
  object through every signature;
* **SLO engine** — :class:`~repro.obs.metrics.SlidingWindowStats` ring
  buffers give windowed (not cumulative) latency/error accounting, and
  :class:`SLOMonitor` evaluates declarative :class:`SLOSpec` objectives
  (``p99 < 25ms``, ``availability >= 99.9%``) into error-budget
  consumption and multi-rate burn rates, emitting structured
  ``slo_violation`` trace events on the met→violated edge;
* **live introspection** — :class:`SlowRequestStore` keeps the N
  slowest request traces in memory (``GET /debug/slow``), and
  :func:`lint_prometheus` checks a ``/metrics`` exposition against the
  text format.

Everything here is stdlib-only and import-light (no ``repro.serve``
imports), so the serving layer can depend on it without cycles.
"""

from __future__ import annotations

import contextlib
import heapq
import re
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import NULL_TRACER, Tracer
from repro.obs.metrics import SlidingWindowStats, WindowSnapshot

__all__ = [
    "RequestContext",
    "current_request",
    "use_request",
    "SLOSpec",
    "SLOStatus",
    "SLOMonitor",
    "SlowRequestStore",
    "lint_prometheus",
]


# ----------------------------------------------------------------------
# Request-scoped tracing
# ----------------------------------------------------------------------
class RequestContext(Tracer):
    """One request's identity plus its timed spans.

    An in-memory :class:`~repro.obs.events.Tracer` whose ``run_id`` is
    the ``request_id``; its spans are ordinary
    :class:`~repro.obs.events.Span` objects nested per thread, so the
    micro-batcher thread records into a context owned by a blocked
    handler thread under its own roots.  When ``sink`` (the server's
    tracer) is enabled every record is also written there, tagged with
    the ``request_id``, so a ``--trace`` file shows each request's
    stages.  The server keeps the slowest :meth:`to_dict` trees
    (:class:`SlowRequestStore`) and echoes ``request_id`` in every
    response, so a slow request is explainable from its own trace alone.
    """

    def __init__(
        self,
        method: str = "",
        path: str = "",
        request_id: Optional[str] = None,
        sink=None,
    ):
        super().__init__(run_id=request_id or uuid.uuid4().hex[:16])
        self.request_id = self.run_id
        self.method = method
        self.path = path
        self.status: Optional[int] = None
        self.error: Optional[str] = None
        self.duration_s: Optional[float] = None
        self._sink = sink if sink is not None and sink.enabled else None
        self._wall = time.time()
        self._t0 = time.perf_counter()

    def _write(self, record: Dict[str, Any]) -> None:
        super()._write(record)
        if self._sink is not None:
            attrs = dict(record.get("attrs") or (), request_id=self.request_id)
            self._sink._write(dict(record, run=self._sink.run_id, attrs=attrs))

    def finish(self, status: int) -> "RequestContext":
        """Stamp the final status/duration; idempotent on duration."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
        self.status = int(status)
        return self

    @property
    def duration_ms(self) -> float:
        elapsed = (
            self.duration_s
            if self.duration_s is not None
            else time.perf_counter() - self._t0
        )
        return 1e3 * elapsed

    def to_dict(self) -> Dict[str, Any]:
        """Span tree as plain JSON-able dicts (slowest-trace dumps), built
        from the ``span_end`` records' ``span``/``parent`` ids; siblings
        are in start order, and a span still open is left out."""
        with self._lock:
            ends = [e for e in self.events if e["kind"] == "span_end"]
        ends.sort(key=lambda e: e["mono"] - e["dur"])
        nodes = {
            e["span"]: {
                "name": e["name"],
                "t_ms": round(1e3 * (e["mono"] - e["dur"] - self._t0), 3),
                "dur_ms": round(1e3 * e["dur"], 3),
                "attrs": e.get("attrs", {}),
                "children": [],
            }
            for e in ends
        }
        spans: List[Dict[str, Any]] = []
        for e in ends:
            parent = nodes.get(e.get("parent"))
            (parent["children"] if parent else spans).append(nodes[e["span"]])
        return {
            "request_id": self.request_id,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "error": self.error,
            "ts": self._wall,
            "dur_ms": round(self.duration_ms, 3),
            "spans": spans,
        }


_ACTIVE = threading.local()


def current_request():
    """The request context installed on this thread (:data:`NULL_TRACER`
    when none is active), so deep layers attach spans unconditionally."""
    return getattr(_ACTIVE, "ctx", None) or NULL_TRACER


@contextlib.contextmanager
def use_request(ctx: Optional[RequestContext]):
    """Install ``ctx`` as this thread's current request for the block."""
    previous = getattr(_ACTIVE, "ctx", None)
    _ACTIVE.ctx = ctx
    try:
        yield ctx
    finally:
        _ACTIVE.ctx = previous


# ----------------------------------------------------------------------
# SLO specs, budgets, burn rates
# ----------------------------------------------------------------------
_SPEC_RE = re.compile(
    r"^\s*(?P<lhs>p\d+(?:\.\d+)?|availability|avail)\s*"
    r"(?P<op><=|<|>=|>)\s*"
    r"(?P<value>[0-9.]+)\s*(?P<unit>ms|s|%)?\s*"
    r"(?:@\s*(?P<window>[0-9.]+)\s*s?)?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over a sliding window.

    ``kind="latency"``: the windowed ``percentile``-th latency must stay
    below ``threshold`` seconds (equivalently: at most ``1 -
    percentile/100`` of requests may be slower — that slack is the error
    budget).  ``kind="availability"``: the windowed non-5xx fraction
    must stay at or above ``threshold`` (budget ``1 - threshold``).
    """

    kind: str  # "latency" | "availability"
    threshold: float  # seconds (latency) or fraction in [0, 1]
    percentile: float = 99.0
    window_s: float = 60.0

    def __post_init__(self):
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "availability" and not 0.0 < self.threshold <= 1.0:
            raise ValueError("availability target must be in (0, 1]")
        if self.kind == "latency" and self.threshold <= 0:
            raise ValueError("latency target must be positive")

    @property
    def name(self) -> str:
        if self.kind == "latency":
            return f"latency_p{self.percentile:g}".replace(".", "_")
        return "availability"

    @property
    def budget(self) -> float:
        """Allowed bad-request fraction (the error budget)."""
        if self.kind == "latency":
            return max(1e-9, 1.0 - self.percentile / 100.0)
        return max(1e-9, 1.0 - self.threshold)

    def describe(self) -> str:
        if self.kind == "latency":
            return (
                f"p{self.percentile:g} < {1e3 * self.threshold:g}ms "
                f"over {self.window_s:g}s"
            )
        return f"availability >= {100 * self.threshold:g}% over {self.window_s:g}s"

    @classmethod
    def parse(cls, text: str, window_s: float = 60.0) -> "SLOSpec":
        """``"p99<25ms"``, ``"p50<0.005s@30"``, ``"availability>=99.9%"``."""
        match = _SPEC_RE.match(str(text))
        if match is None:
            raise ValueError(
                f"bad SLO spec {text!r}; expected e.g. 'p99<25ms', "
                "'p50<0.01s@30', or 'availability>=99.9%'"
            )
        lhs = match.group("lhs").lower()
        value = float(match.group("value"))
        unit = (match.group("unit") or "").lower()
        window = float(match.group("window") or window_s)
        if lhs.startswith("p"):
            if unit == "%":
                raise ValueError(f"latency target in {text!r} cannot be a %")
            threshold = value / 1e3 if unit in ("", "ms") else value
            return cls(
                kind="latency",
                threshold=threshold,
                percentile=float(lhs[1:]),
                window_s=window,
            )
        if unit == "ms" or unit == "s":
            raise ValueError(f"availability target in {text!r} cannot carry {unit}")
        target = value / 100.0 if unit == "%" or value > 1.0 else value
        return cls(kind="availability", threshold=target, window_s=window)


@dataclass
class SLOStatus:
    """One spec's current verdict: attainment, budget, burn rates."""

    spec: SLOSpec
    attained: float  # measured percentile seconds, or availability fraction
    met: bool
    budget_consumed: float  # bad fraction / allowed fraction, over spec window
    burn_rates: Dict[str, float] = field(default_factory=dict)
    window_count: int = 0

    def to_dict(self) -> Dict[str, Any]:
        if self.spec.kind == "latency":
            target: Any = round(1e3 * self.spec.threshold, 6)
            attained: Any = round(1e3 * self.attained, 6)
            unit = "ms"
        else:
            target = self.spec.threshold
            attained = round(self.attained, 6)
            unit = "fraction"
        return {
            "slo": self.spec.describe(),
            "name": self.spec.name,
            "kind": self.spec.kind,
            "unit": unit,
            "target": target,
            "attained": attained,
            "met": self.met,
            "budget_consumed": round(self.budget_consumed, 4),
            "burn_rates": {k: round(v, 4) for k, v in self.burn_rates.items()},
            "window_count": self.window_count,
        }


class SLOMonitor:
    """Evaluates :class:`SLOSpec` objectives over sliding windows.

    Every observation lands in one :class:`SlidingWindowStats` ring
    sized to the longest window; each window length (spec windows plus
    the multi-rate ``burn_windows``) reads its newest entries.
    Violations are edge-triggered: crossing met→violated emits one
    structured ``slo_violation`` event on ``tracer``, bumps the
    ``slo_violations`` counter, and invokes ``on_violation(status)``
    (the server uses that hook to dump the slow-request exemplars); the
    spec re-arms when it recovers.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = (),
        metrics=None,
        tracer=None,
        burn_windows: Sequence[float] = (60.0, 300.0),
        capacity: int = 16384,
        eval_interval: int = 32,
        on_violation: Optional[Callable[[SLOStatus], None]] = None,
    ):
        self.specs = [
            SLOSpec.parse(s) if isinstance(s, str) else s for s in specs
        ]
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self.on_violation = on_violation
        self.burn_windows = tuple(float(w) for w in burn_windows)
        window_lengths = {spec.window_s for spec in self.specs}
        window_lengths.update(self.burn_windows)
        self._window_lengths = sorted(window_lengths)
        self._ring = SlidingWindowStats(
            window_s=max(window_lengths, default=60.0), capacity=capacity
        )
        self._eval_interval = max(1, int(eval_interval))
        self._since_eval = 0
        self._violated: Dict[str, bool] = {spec.name: False for spec in self.specs}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(
        self, latency_s: float, ok: bool = True, now: Optional[float] = None
    ) -> None:
        self._ring.observe(latency_s, ok=ok, now=now)
        if not self.specs:
            return
        with self._lock:
            self._since_eval += 1
            due = self._since_eval >= self._eval_interval
            if due:
                self._since_eval = 0
        if due:
            self.status(now=now)

    # ------------------------------------------------------------------
    def _spec_status(
        self, spec: SLOSpec, snaps: Dict[float, WindowSnapshot]
    ) -> SLOStatus:
        main = snaps[spec.window_s]
        if spec.kind == "latency":
            attained = main.percentile(spec.percentile)
            met = attained <= spec.threshold or main.count == 0
            bad = main.fraction_over(spec.threshold)
        else:
            attained = main.availability
            met = attained >= spec.threshold or main.count == 0
            bad = main.error_rate
        burn = {}
        for w in self.burn_windows:
            snap = snaps[w]
            frac = (
                snap.fraction_over(spec.threshold)
                if spec.kind == "latency"
                else snap.error_rate
            )
            burn[f"{snap.window_s:g}s"] = frac / spec.budget
        return SLOStatus(
            spec=spec,
            attained=attained,
            met=met,
            budget_consumed=bad / spec.budget,
            burn_rates=burn,
            window_count=main.count,
        )

    def status(self, now: Optional[float] = None) -> List[SLOStatus]:
        """Fresh verdict per spec; fires edge-triggered violation events."""
        snaps = {w: self.snapshot(w, now=now) for w in self._window_lengths}
        statuses = [self._spec_status(spec, snaps) for spec in self.specs]
        for status in statuses:
            name = status.spec.name
            newly = not status.met and not self._violated.get(name, False)
            self._violated[name] = not status.met
            if self.metrics is not None:
                prefix = f"slo_{name}"
                self.metrics.set_gauge(f"{prefix}_met", 1.0 if status.met else 0.0)
                self.metrics.set_gauge(
                    f"{prefix}_budget_consumed", status.budget_consumed
                )
                for label, rate in status.burn_rates.items():
                    self.metrics.set_gauge(
                        f"{prefix}_burn_rate_{label}", rate
                    )
            if newly:
                if self.metrics is not None:
                    self.metrics.inc("slo_violations")
                # "name" would collide with Tracer.event's positional arg.
                fields = status.to_dict()
                fields["slo_name"] = fields.pop("name")
                self.tracer.event("slo_violation", **fields)
                if self.on_violation is not None:
                    self.on_violation(status)
        return statuses

    def snapshot(
        self, window_s: Optional[float] = None, now: Optional[float] = None
    ) -> WindowSnapshot:
        """Stats over one window length (default: the shortest)."""
        if window_s is None:
            window_s = self._window_lengths[0]
        return self._ring.snapshot(now=now, window_s=window_s)

    def to_dict(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        return [status.to_dict() for status in self.status(now=now)]


# ----------------------------------------------------------------------
# Slow-request exemplar store
# ----------------------------------------------------------------------
class SlowRequestStore:
    """Keeps the ``capacity`` slowest request traces seen so far.

    A min-heap keyed on duration makes each offer O(log n); the store is
    the backing for ``GET /debug/slow`` and the exemplar dump attached
    to SLO violations — the production answer to "*which* requests were
    slow, and where did their time go?".
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._heap: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def offer(self, trace: Dict[str, Any]) -> bool:
        """Consider one finished-request trace; True when retained."""
        dur = float(trace.get("dur_ms", 0.0))
        with self._lock:
            self._seq += 1
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, (dur, self._seq, trace))
                return True
            if dur > self._heap[0][0]:
                heapq.heapreplace(self._heap, (dur, self._seq, trace))
                return True
        return False

    @property
    def threshold_ms(self) -> float:
        """Minimum duration a new trace must beat to be retained."""
        with self._lock:
            if len(self._heap) < self.capacity:
                return 0.0
            return self._heap[0][0]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Retained traces, slowest first."""
        with self._lock:
            items = list(self._heap)
        return [trace for _, _, trace in sorted(items, key=lambda t: -t[0])]


# ----------------------------------------------------------------------
# Prometheus text exposition: parsing + strict linting
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")
#: Suffixes a summary/histogram family legitimately adds to its name.
_FAMILY_SUFFIXES = ("_sum", "_count", "_bucket")


def _split_labels(raw: str) -> List[Tuple[str, str]]:
    """``a="x",b="y"`` → pairs; raises ValueError on malformed pieces."""
    pairs: List[Tuple[str, str]] = []
    i, n = 0, len(raw)
    while i < n:
        eq = raw.index("=", i)
        name = raw[i:eq]
        if raw[eq + 1] != '"':
            raise ValueError(f"label value for {name!r} is not quoted")
        j = eq + 2
        value_chars: List[str] = []
        while j < n:
            ch = raw[j]
            if ch == "\\":
                if j + 1 >= n or raw[j + 1] not in ('"', "\\", "n"):
                    raise ValueError(f"bad escape in label {name!r}")
                value_chars.append({"n": "\n"}.get(raw[j + 1], raw[j + 1]))
                j += 2
                continue
            if ch == '"':
                break
            if ch == "\n":
                raise ValueError(f"unescaped newline in label {name!r}")
            value_chars.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value for {name!r}")
        pairs.append((name, "".join(value_chars)))
        i = j + 1
        if i < n:
            if raw[i] != ",":
                raise ValueError(f"expected ',' between labels at {raw[i:]!r}")
            i += 1
    return pairs


def _family_of(sample_name: str, declared: Dict[str, str]) -> Optional[str]:
    """Metric family a sample belongs to, honoring summary suffixes."""
    if sample_name in declared:
        return sample_name
    for suffix in _FAMILY_SUFFIXES:
        base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
        if base and base in declared and declared[base] in ("summary", "histogram"):
            return base
    return None


def lint_prometheus(text: str) -> List[str]:
    """Strict line-format check of a ``/metrics`` exposition.

    Returns a list of human-readable violations (empty = valid):
    metric/label name syntax, label quoting and escaping, float-parseable
    values, ``# TYPE``/``# HELP`` placement (before samples, at most once
    per family, known type keyword), samples belonging to a declared
    family, and duplicate series (same name + label set).
    """
    errors: List[str] = []
    declared_type: Dict[str, str] = {}
    declared_help: Dict[str, str] = {}
    seen_series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
    family_started: Dict[str, bool] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line != line.rstrip():
            errors.append(f"line {lineno}: trailing whitespace")
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("TYPE", "HELP"):
                continue  # plain comment
            keyword = parts[1]
            if len(parts) < 3:
                errors.append(f"line {lineno}: # {keyword} missing metric name")
                continue
            family = parts[2]
            if not _METRIC_NAME_RE.match(family):
                errors.append(
                    f"line {lineno}: invalid metric name {family!r} in # {keyword}"
                )
                continue
            registry = declared_type if keyword == "TYPE" else declared_help
            if family in registry:
                errors.append(
                    f"line {lineno}: duplicate # {keyword} for {family!r}"
                )
            if family_started.get(family):
                errors.append(
                    f"line {lineno}: # {keyword} for {family!r} after its samples"
                )
            if keyword == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _TYPES:
                    errors.append(
                        f"line {lineno}: unknown TYPE {kind!r} for {family!r}"
                    )
                declared_type[family] = kind
            else:
                declared_help[family] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {lineno}: unparseable sample line {line!r}")
            continue
        name = match.group("name")
        labels_raw = match.group("labels")
        try:
            labels = _split_labels(labels_raw) if labels_raw else []
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        for label_name, _ in labels:
            if not _LABEL_NAME_RE.match(label_name):
                errors.append(
                    f"line {lineno}: invalid label name {label_name!r}"
                )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                errors.append(f"line {lineno}: unparseable value {value!r}")
        family = _family_of(name, declared_type)
        if family is None:
            errors.append(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        else:
            family_started[family] = True
        series = (name, tuple(sorted(labels)))
        if series in seen_series:
            errors.append(
                f"line {lineno}: duplicate series {name!r} "
                f"(first at line {seen_series[series]})"
            )
        else:
            seen_series[series] = lineno
    return errors
