"""Serving latency/throughput — precomputed index + cache vs naive
per-request full-catalogue scoring.

A zipf-skewed request stream (hot users dominate, as in production
traffic) is replayed against three serving strategies:

* **naive** — every request runs the model's full-catalogue scoring
  loop, the only serving path that existed before ``repro.serve``;
* **index** — the precomputed :class:`TopKIndex`, result cache disabled;
* **index+cache** — the full :class:`ServingEngine` with its LRU cache.

Reported per strategy: QPS and p50/p95/p99 request latency (plus the
one-off index build time and the cache hit rate), and SLO attainment
against the serving objectives (``p99<25ms``, ``availability>=99.9%``):
target, attained percentile, and error-budget consumption land in
``BENCH_serving.json``. Scale knobs: ``REPRO_SERVE_REQUESTS`` (default
400), ``REPRO_EPOCHS``.
"""

import math
import os
import time

import numpy as np

from benchmarks import harness
from repro.core import CGKGR, paper_config
from repro.baselines import BPRMF
from repro.data import generate_profile
from repro.eval.ranking import build_mask_table
from repro.serve import ServingEngine, TopKIndex, topk_from_scores
from repro.obs.metrics import SlidingWindowStats
from repro.obs.serving import SLOMonitor, SLOSpec
from repro.training import Trainer, TrainerConfig
from repro.utils import format_table

K = 20
SLO_SPECS = ("p99<25ms", "availability>=99.9%")


def n_requests(default: int = 400) -> int:
    return int(os.environ.get("REPRO_SERVE_REQUESTS", default))


def _zipf_users(n_users: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Skewed user draw: rank r is ~1/r as likely as rank 1."""
    ranks = rng.permutation(n_users)
    weights = 1.0 / (1.0 + np.arange(n_users, dtype=np.float64))
    weights /= weights.sum()
    return ranks[rng.choice(n_users, size=n, p=weights)]


def _replay(answer, users: np.ndarray) -> dict:
    hist = SlidingWindowStats(window_s=math.inf, capacity=len(users))
    latencies = []
    start = time.perf_counter()
    for user in users:
        tick = time.perf_counter()
        answer(int(user))
        latency = time.perf_counter() - tick
        hist.observe(latency)
        latencies.append(latency)
    total = time.perf_counter() - start
    summary = hist.summary()
    summary["qps"] = len(users) / total
    summary["latencies"] = latencies
    return summary


def _slo_statuses(latencies: list) -> list:
    """Replay recorded latencies through the serving SLO monitor.

    One wide window holds the whole replay so attainment reflects every
    request, not just the tail that would survive a 60s serving window.
    """
    window = 4 * 3600.0
    specs = [SLOSpec.parse(text, window_s=window) for text in SLO_SPECS]
    monitor = SLOMonitor(specs, burn_windows=(window,))
    now = time.monotonic()
    for value in latencies:
        monitor.observe(value, ok=True, now=now)
    return monitor.status(now=now)


def _bench_model(name: str, model, dataset, users: np.ndarray) -> list:
    mask_splits = [dataset.train, dataset.valid]
    mask_table = build_mask_table(mask_splits, dataset.n_users)

    tick = time.perf_counter()
    index = TopKIndex.build(model, mask_splits=mask_splits)
    build_time = time.perf_counter() - tick

    def naive(user: int):
        return topk_from_scores(model.score_all_items(user), K, mask_table[user])

    uncached = ServingEngine(index, model=model, cache_size=0)
    cached = ServingEngine(index, model=model, cache_size=4096)

    rows = []
    for label, key, summary in (
        ("naive full scoring", "naive", _replay(naive, users)),
        ("index (no cache)", "index",
         _replay(lambda u: uncached.recommend(u, K), users)),
        ("index + LRU cache", "index_cache",
         _replay(lambda u: cached.recommend(u, K), users)),
    ):
        statuses = _slo_statuses(summary.pop("latencies"))
        latency = next(s for s in statuses if s.spec.kind == "latency")
        harness.record_bench_metrics(
            "serving",
            {
                f"{name}/{key}/qps": summary["qps"],
                f"{name}/{key}/p50_ms": 1e3 * summary["p50"],
                f"{name}/{key}/p95_ms": 1e3 * summary["p95"],
                f"{name}/{key}/slo_p99_target_ms": 1e3 * latency.spec.threshold,
                f"{name}/{key}/slo_p99_attained_ms": 1e3 * latency.attained,
                f"{name}/{key}/slo_attained": float(all(s.met for s in statuses)),
                f"{name}/{key}/slo_budget_consumed": latency.budget_consumed,
            },
        )
        verdict = "met" if all(s.met for s in statuses) else "MISSED"
        rows.append(
            [
                f"{name} · {label}",
                f"{summary['qps']:.0f}",
                f"{1e3 * summary['p50']:.3f}",
                f"{1e3 * summary['p95']:.3f}",
                f"{1e3 * summary['p99']:.3f}",
                f"{verdict} ({latency.budget_consumed:.2f}x)",
            ]
        )
    hit_rate = cached.cache_info()["hit_rate"]
    rows[-1][0] += f" (hit rate {hit_rate:.2f})"
    rows[1][0] += f" (build {build_time:.2f}s, {index.mode})"
    return rows


def run() -> str:
    dataset = generate_profile("music", seed=0)
    requests = n_requests()
    users = _zipf_users(dataset.n_users, requests, np.random.default_rng(7))

    config = TrainerConfig(
        epochs=min(harness.n_epochs(), 5), eval_task="none", seed=0
    )
    rows = []
    for name, model in (
        ("BPRMF", BPRMF(dataset, dim=16, lr=1e-2, seed=0)),
        ("CG-KGR", CGKGR(dataset, paper_config("music"), seed=0)),
    ):
        Trainer(model, config).fit()
        rows.extend(_bench_model(name, model, dataset, users))

    return format_table(
        ["strategy", "QPS", "p50 (ms)", "p95 (ms)", "p99 (ms)", "SLO (budget)"],
        rows,
        title=(
            f"Serving latency — music, {requests} zipf-skewed requests, "
            f"top-{K} with seen-item masking"
        ),
    )


def test_serving_latency(benchmark):
    output = benchmark.pedantic(run, rounds=1, iterations=1)
    harness.save_result("serving_latency", output)
    assert "QPS" in output
