"""Per-layer metrics from the spans of a traced run (``--trace 1``).

Every workload reports every name in :data:`LAYER_METRICS`; a layer that
does no work on a workload reads 0 there (``autograd`` on serve-hot,
``serve`` on train-movie).  "Per step" means per unit of work: one
training step on train-movie, one open-loop request on serve-*.
Span-derived times are self times unless stated otherwise.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List

from common import mean, median, percentile
from tracer import ATTRS, END, NAME, OPS0, OPS1, PARENT, START, descendants, self_times

#: name → unit; BENCHMARK.json's ``per_layer`` list holds the same names.
LAYER_METRICS = {
    "setup.import_s": "s",
    "data.dataset_s": "s",
    "data.negatives_ms": "ms",
    "graph.resample_ms": "ms",
    "graph.sample_ms_per_step": "ms",
    "graph.flow_entities_per_step": "count",
    "core.forward_ms_per_step": "ms",
    "core.score_all_items_ms": "ms",
    "autograd.backward_ms_per_step": "ms",
    "autograd.optim_ms_per_step": "ms",
    "autograd.op_calls_per_step": "count",
    "training.loop_ms_per_epoch": "ms",
    "eval.evaluate_ms": "ms",
    "eval.users_per_call": "count",
    "eval.mask_table_ms": "ms",
    "serve.checkpoint_load_s": "s",
    "serve.index_ready_s": "s",
    "serve.engine_ms": "ms",
    "serve.index_topk_ms": "ms",
    "serve.fallback_ms": "ms",
    "serve.fallback_share": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.batch_wait_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.http_ms": "ms",
    "obs.request_accounting_ms": "ms",
    "host.cpu_wall_ratio": "ratio",
    "gen.late_p90_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.step_coverage_pct": "%",
    "bench.samples": "count",
}

#: Step layers whose self times must cover ≥95% of the step's wall.
STEP_LAYERS = ("core.forward", "graph.sample", "autograd.backward", "autograd.optim")
MIN_STEP_COVERAGE_PCT = 95.0


def _dur(span) -> float:
    return span[END] - span[START]


def _median0(values: List[float]) -> float:
    return median(values) if values else 0.0


def train_layers(result: Dict, setup_parts: List[Dict], trace_from: int) -> Dict[str, float]:
    """Layers of train-movie; epochs ``>= trace_from`` ran traced."""
    spans = result["trace"]["spans"]
    selfs = self_times(spans)
    below = descendants(spans)
    out = {name: 0.0 for name in LAYER_METRICS}

    def under(idx: int, name: str) -> List[int]:
        return [d for d in below[idx] if spans[d][NAME] == name]

    epochs = [i for i, s in enumerate(spans)
              if s[NAME] == "training.epoch" and s[ATTRS]["epoch"] >= trace_from]
    steps = [i for i, s in enumerate(spans)
             if s[NAME] == "train.step" and s[PARENT] in set(epochs)]
    per_step: Dict[str, List[float]] = {k: [] for k in STEP_LAYERS + ("entities", "ops")}
    covered = wall = 0.0
    for idx in steps:
        layer = {name: 0.0 for name in STEP_LAYERS}
        for d in below[idx]:
            if spans[d][NAME] in layer:
                layer[spans[d][NAME]] += selfs[d]
        for name, value in layer.items():
            per_step[name].append(value)
        per_step["entities"].append(sum(spans[d][ATTRS].get("entities", 0)
                                        for d in under(idx, "graph.sample")))
        per_step["ops"].append(spans[idx][OPS1] - spans[idx][OPS0])
        covered += sum(layer.values())
        wall += _dur(spans[idx])

    flush_per_step = []
    for idx in epochs:
        n_steps = sum(1 for s in steps if spans[s][PARENT] == idx)
        flush = sum(_dur(spans[d]) for d in under(idx, "autograd.optim")
                    if spans[d][PARENT] == idx)
        flush_per_step.append(flush / max(1, n_steps))
    evals = [i for i, s in enumerate(spans)
             if s[NAME] == "eval.evaluate" and s[ATTRS]["epoch"] >= trace_from]
    traced = [s for e, s, _ in result["steps"] if e >= trace_from]
    plain = [s for e, s, _ in result["steps"] if 2 <= e < trace_from]

    out.update({
        "setup.import_s": median([p["import_s"] for p in setup_parts]),
        "data.dataset_s": median([p["dataset_s"] for p in setup_parts]),
        "data.negatives_ms": 1e3 * _median0([sum(_dur(spans[d]) for d in under(i, "data.negatives"))
                                             for i in epochs]),
        "graph.resample_ms": 1e3 * _median0([sum(_dur(spans[d]) for d in under(i, "graph.resample"))
                                             for i in epochs]),
        "graph.sample_ms_per_step": 1e3 * _median0(per_step["graph.sample"]),
        "graph.flow_entities_per_step": _median0(per_step["entities"]),
        "core.forward_ms_per_step": 1e3 * _median0(per_step["core.forward"]),
        "core.score_all_items_ms": 1e3 * _median0([_dur(spans[d]) for i in evals
                                                   for d in under(i, "core.score_all_items")]),
        "autograd.backward_ms_per_step": 1e3 * _median0(per_step["autograd.backward"]),
        "autograd.optim_ms_per_step": 1e3 * (_median0(per_step["autograd.optim"])
                                             + _median0(flush_per_step)),
        "autograd.op_calls_per_step": _median0(per_step["ops"]),
        "training.loop_ms_per_epoch": 1e3 * _median0([selfs[i] for i in epochs]),
        "eval.evaluate_ms": 1e3 * _median0([_dur(spans[i]) for i in evals]),
        "eval.users_per_call": _median0([len(under(i, "core.score_all_items")) for i in evals]),
        "eval.mask_table_ms": 1e3 * _median0([_dur(s) for s in spans if s[NAME] == "eval.mask_table"]),
        "host.cpu_wall_ratio": result["cpu_wall_ratio"],
        "trace.overhead_pct": 100.0 * (median(traced) / median(plain) - 1.0),
        "trace.step_coverage_pct": 100.0 * covered / wall if wall else 0.0,
        "bench.samples": float(len(steps)),
    })
    return out


def serve_layers(dump: Dict, driven: Dict, plain_p50: float, cpu_ratio: float) -> Dict[str, float]:
    """Layers of serve-*, over the open-loop phase of the traced server.

    The server's span clock and the generator's loop clock are both
    CLOCK_MONOTONIC, so spans are matched to the phase by time.
    """
    spans = dump["spans"]
    selfs = self_times(spans)
    phase = driven["phases"]["open"]
    n = max(1, phase.sent)
    out = {name: 0.0 for name in LAYER_METRICS}

    def in_phase(span) -> bool:
        return phase.started <= span[START] <= phase.ended

    def named(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s[NAME] == name and in_phase(s)]

    def setup_total(name: str, use_self: bool) -> float:
        """Time in a call that only the server's boot makes."""
        return sum(selfs[i] if use_self else _dur(s) for i, s in enumerate(spans) if s[NAME] == name)

    engine = named("serve.engine")

    # Batcher wait = submit → future done, minus the engine call that
    # answered it (the batcher thread's last engine call ending first).
    batcher_calls = sorted((spans[i][END], _dur(spans[i])) for i in engine
                           if spans[i][PARENT] is None)
    ends = [end for end, _ in batcher_calls]
    waits, round_trips = [], []
    for i in named("serve.batch_wait"):
        pos = bisect_right(ends, spans[i][END]) - 1
        engine_dur = batcher_calls[pos][1] if pos >= 0 else 0.0
        round_trips.append(_dur(spans[i]))
        waits.append(max(0.0, _dur(spans[i]) - engine_dur))
    fallbacks = named("serve.fallback")
    before, after = driven["open_metrics"]

    def delta(name: str) -> float:
        key = f"repro_serve_{name}"
        return after.get(key, 0.0) - before.get(key, 0.0)

    lookups = delta("cache_hits") + delta("cache_misses")
    flushes = delta("microbatch_size_count")
    client = [s.done - s.sent for s in phase.samples]
    handled = [spans[i][ATTRS].get("handle_s", 0.0) for i in named("obs.request_accounting")]
    graph = named("graph.sample")
    out.update({
        "setup.import_s": dump["import_s"],
        "data.dataset_s": setup_total("data.dataset", False),
        "graph.sample_ms_per_step": 1e3 * sum(_dur(spans[i]) for i in graph) / n,
        "graph.flow_entities_per_step": sum(spans[i][ATTRS].get("entities", 0) for i in graph) / n,
        "core.forward_ms_per_step": 1e3 * sum(selfs[i] for i in named("core.score_all_items")) / n,
        "core.score_all_items_ms": 1e3 * _median0([_dur(spans[i]) for i in named("core.score_all_items")]),
        "autograd.op_calls_per_step": sum(spans[i][OPS1] - spans[i][OPS0] for i in engine
                                          if spans[i][PARENT] is None) / n,
        "eval.mask_table_ms": 1e3 * setup_total("eval.mask_table", False),
        "serve.checkpoint_load_s": setup_total("serve.checkpoint_load", True),
        "serve.index_ready_s": setup_total("serve.index_ready", True),
        "serve.engine_ms": 1e3 * sum(selfs[i] for i in engine) / n,
        "serve.index_topk_ms": 1e3 * sum(selfs[i] for i in named("serve.index_topk")) / n,
        "serve.fallback_ms": 1e3 * mean([_dur(spans[i]) for i in fallbacks]),
        "serve.fallback_share": len(fallbacks) / n,
        "serve.cache_hit_ratio": delta("cache_hits") / lookups if lookups else 0.0,
        "serve.batch_wait_ms": 1e3 * mean(waits),
        "serve.batch_size_mean": delta("microbatch_size_sum") / flushes if flushes else 0.0,
        "serve.http_ms": 1e3 * (mean(client) - mean(round_trips)),
        "obs.request_accounting_ms": 1e3 * mean([selfs[i] for i in named("obs.request_accounting")]),
        "host.cpu_wall_ratio": cpu_ratio,
        "gen.late_p90_ms": 1e3 * percentile(phase.late, 90),
        "trace.overhead_pct": 100.0 * (median([s.latency for s in phase.samples]) / plain_p50 - 1.0),
        "trace.step_coverage_pct": 100.0 * mean(handled) / mean(client) if client else 0.0,
        "bench.samples": float(phase.sent),
    })
    return out
