"""Unified observability: tracing, metrics, profiling, introspection,
and the cross-run layer (registry, sentinel, health).

Pillars, shared by training, evaluation, benchmarking, and serving
(see ``docs/observability.md`` and ``docs/runs.md``):

* :mod:`repro.obs.events` — structured JSONL event log with nested spans
  (:class:`Tracer`, :data:`NULL_TRACER`, process default for benches);
* :mod:`repro.obs.metrics` — counters / gauges / latency summaries
  (:class:`MetricsRegistry`), all latency numbers kept by one ring
  buffer (:class:`SlidingWindowStats`);
* :mod:`repro.obs.profiler` — autograd per-op forward/backward profiler
  (:func:`profile`), surfaced as ``repro profile`` on the CLI;
* :mod:`repro.obs.memory` — tensor allocation tracker
  (:class:`MemoryTracker`): live/peak bytes, per-op attribution,
  epoch-boundary leak detection (``TrainerConfig.track_memory``); it and
  the profiler are autograd observers (:class:`repro.autograd.Observer`),
  registered for the length of a ``with`` block (both nest);
* :mod:`repro.obs.timeline` — Chrome trace-event export of a JSONL trace
  (:func:`build_timeline`; ``repro obs timeline``, opens in Perfetto);
* :mod:`repro.obs.hooks` — CG-KGR guidance-attention capture
  (:func:`capture_attention`), Fig. 5 made queryable;
* :mod:`repro.obs.runs` — persistent experiment-run registry
  (:class:`RunStore` / :class:`RunRecord`), fed by ``Trainer.fit`` and
  ``benchmarks/run_all.py``;
* :mod:`repro.obs.sentinel` — tolerance-gated regression comparison and
  the repo-root ``BENCH_*.json`` trajectory files;
* :mod:`repro.obs.health` — training-health monitor emitting structured
  ``anomaly`` events (:class:`HealthMonitor`,
  :class:`NonFiniteLossError`);
* :mod:`repro.obs.report` — the run table (``repro runs list``) and the
  epoch-anatomy report (:func:`epoch_anatomy`; ``repro obs anatomy``);
* :mod:`repro.obs.serving` — request-scoped tracing
  (:class:`RequestContext`, an in-memory :class:`Tracer` per request;
  :func:`current_request` is :data:`NULL_TRACER` outside one),
  sliding-window SLO/error-budget monitoring
  (:class:`SLOSpec` / :class:`SLOMonitor`), slow-request exemplars
  (:class:`SlowRequestStore`), and the ``/metrics`` exposition linter
  (:func:`lint_prometheus`).
"""

from repro.obs.events import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    default_tracer,
    set_default_tracer,
)
from repro.obs.health import (
    HealthConfig,
    HealthMonitor,
    NonFiniteLossError,
    TrainingHealthError,
)
from repro.obs.hooks import GuidanceAttentionRecorder, capture_attention
from repro.obs.memory import MemoryTracker, track_memory
from repro.obs.metrics import MetricsRegistry, SlidingWindowStats
from repro.obs.profiler import Profiler, ProfileReport, profile
from repro.obs.report import AnatomyReport, epoch_anatomy
from repro.obs.runs import RunRecord, RunStore
from repro.obs.timeline import (
    build_timeline,
    load_trace_events,
    validate_timeline,
    write_timeline,
)
from repro.obs.serving import (
    RequestContext,
    SLOMonitor,
    SLOSpec,
    SlowRequestStore,
    current_request,
    lint_prometheus,
    use_request,
)
from repro.obs.sentinel import (
    DEFAULT_TOLERANCES,
    SentinelReport,
    Tolerance,
    append_trajectory,
    compare_metrics,
    compare_runs,
    load_trajectory,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "default_tracer",
    "set_default_tracer",
    "MetricsRegistry",
    "SlidingWindowStats",
    "Profiler",
    "ProfileReport",
    "profile",
    "MemoryTracker",
    "track_memory",
    "build_timeline",
    "load_trace_events",
    "validate_timeline",
    "write_timeline",
    "AnatomyReport",
    "epoch_anatomy",
    "GuidanceAttentionRecorder",
    "capture_attention",
    "RunStore",
    "RunRecord",
    "RequestContext",
    "current_request",
    "use_request",
    "SLOSpec",
    "SLOMonitor",
    "SlowRequestStore",
    "lint_prometheus",
    "HealthMonitor",
    "HealthConfig",
    "NonFiniteLossError",
    "TrainingHealthError",
    "Tolerance",
    "DEFAULT_TOLERANCES",
    "SentinelReport",
    "compare_metrics",
    "compare_runs",
    "append_trajectory",
    "load_trajectory",
]
