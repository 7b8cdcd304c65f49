"""ANN retrieval — IVF recall-vs-latency against exact dense scoring.

Million-item catalogues make the exact index's O(items) scan per request
the serving bottleneck; :class:`repro.serve.ann.IVFIndex` bounds the
scan to the probed inverted lists. This bench quantifies the trade at
synthetic scale:

* a **recall@20-vs-latency curve** across ``nprobe`` (one build per
  scale, probing widened knob by knob);
* a **latency/memory sweep** over catalogue sizes (default 10⁵ and 10⁶
  items; add ``10000000`` to ``REPRO_ANN_SCALES`` for the 10⁷ point).

Item/user representations are a topic-mixture (clusterable, like
trained two-tower embeddings) — isotropic noise would make *any*
coarse quantizer look bad and no real catalogue looks like that.

The headline operating point per scale is the smallest ``nprobe``
whose measured recall@20 ≥ 0.95; its p50 is compared against exact
full-catalogue scoring (``topk_from_scores`` over ``items @ query``).

Scale knobs: ``REPRO_ANN_SCALES`` (comma list of catalogue sizes),
``REPRO_ANN_DIM`` (default 32), ``REPRO_ANN_QUERIES`` (default 64).
"""

import math
import os
import time

import numpy as np

from benchmarks import harness
from repro.obs.metrics import SlidingWindowStats
from repro.serve import IVFIndex
from repro.serve.index import topk_from_scores
from repro.utils import format_table

K = 20
RECALL_TARGET = 0.95
NPROBE_GRID = (1, 2, 4, 8, 16, 32, 64)
N_TOPICS = 64


def scales() -> list:
    raw = os.environ.get("REPRO_ANN_SCALES", "100000,1000000")
    return [int(s) for s in raw.split(",") if s.strip()]


def ann_dim() -> int:
    return int(os.environ.get("REPRO_ANN_DIM", 32))


def n_queries() -> int:
    return int(os.environ.get("REPRO_ANN_QUERIES", 64))


def scale_label(n: int) -> str:
    if n % 1_000_000 == 0:
        return f"{n // 1_000_000}m"
    if n % 1_000 == 0:
        return f"{n // 1_000}k"
    return str(n)


def synthetic_reps(n_items: int, n_users: int, dim: int, seed: int = 0):
    """Topic-mixture embeddings shared by the recall/latency measurements."""
    rng = np.random.default_rng(seed)
    topics = rng.normal(size=(N_TOPICS, dim))
    items = topics[rng.integers(0, N_TOPICS, n_items)]
    items += 0.15 * rng.standard_normal((n_items, dim))
    users = topics[rng.integers(0, N_TOPICS, n_users)]
    users += 0.15 * rng.standard_normal((n_users, dim))
    return users, items


def _p50_ms(answer, queries: np.ndarray) -> float:
    hist = SlidingWindowStats(window_s=math.inf, capacity=len(queries))
    for user in queries:
        tick = time.perf_counter()
        answer(int(user))
        hist.observe(time.perf_counter() - tick)
    return 1e3 * hist.summary()["p50"]


def _bench_scale(n_items: int, curve_rows: list, sweep_rows: list) -> None:
    label = scale_label(n_items)
    dim = ann_dim()
    users, items = synthetic_reps(n_items, n_queries(), dim, seed=0)
    queries = np.arange(len(users))
    nlist = max(64, int(round(np.sqrt(n_items))))

    tick = time.perf_counter()
    index = IVFIndex.from_representations(
        users, items, len(users), n_items, nlist=nlist, nprobe=8, seed=0
    )
    build_s = time.perf_counter() - tick

    exact_p50 = _p50_ms(
        lambda u: topk_from_scores(items @ users[u], K), queries
    )

    # One build, nprobe widened knob by knob: the recall/latency curve.
    operating = None
    for nprobe in NPROBE_GRID:
        if nprobe > index.nlist:
            break
        index.nprobe = nprobe
        recall = index._measure_recall(probe_users=32, k=K, seed=0)[
            f"recall@{K}"
        ]
        p50 = _p50_ms(lambda u: index.topk([u], K), queries)
        harness.record_bench_metrics(
            "serving",
            {
                f"ann/{label}/nprobe{nprobe}/recall@20": recall,
                f"ann/{label}/nprobe{nprobe}/p50_ms": p50,
            },
        )
        curve_rows.append(
            [
                label,
                str(nprobe),
                f"{recall:.4f}",
                f"{p50:.3f}",
                f"{exact_p50:.3f}",
                f"{exact_p50 / max(p50, 1e-9):.1f}x",
            ]
        )
        if operating is None and recall >= RECALL_TARGET:
            operating = (nprobe, recall, p50)
    if operating is None:  # never hit the target: report the widest probe
        operating = (index.nprobe, recall, p50)

    op_nprobe, op_recall, op_p50 = operating
    index.nprobe = op_nprobe
    speedup = exact_p50 / max(op_p50, 1e-9)
    raw_mb = index.memory_bytes() / 2**20

    harness.record_bench_metrics(
        "serving",
        {
            f"ann/{label}/recall@20": op_recall,
            f"ann/{label}/p50_ms": op_p50,
            f"ann/{label}/exact_p50_ms": exact_p50,
            f"ann/{label}/speedup_x": speedup,
            f"ann/{label}/build_s": build_s,
            f"ann/{label}/raw_mb": raw_mb,
        },
    )
    sweep_rows.append(
        [
            label,
            f"{nlist}/{op_nprobe}",
            f"{op_recall:.4f}",
            f"{op_p50:.3f}",
            f"{exact_p50:.3f}",
            f"{speedup:.1f}x",
            f"{build_s:.1f}",
            f"{raw_mb:.1f}",
        ]
    )
    del index, items, users


def run() -> str:
    curve_rows: list = []
    sweep_rows: list = []
    for n_items in scales():
        _bench_scale(n_items, curve_rows, sweep_rows)

    curve = format_table(
        ["scale", "nprobe", "recall@20", "p50 (ms)", "exact p50", "speedup"],
        curve_rows,
        title=(
            f"IVF recall@{K} vs latency across nprobe "
            f"(dim={ann_dim()}, {n_queries()} queries, nlist≈√n)"
        ),
    )
    sweep = format_table(
        [
            "scale", "nlist/nprobe", "recall@20", "p50 (ms)",
            "exact p50", "speedup", "build (s)", "raw (MB)",
        ],
        sweep_rows,
        title=(
            f"ANN sweep — operating point = smallest nprobe with "
            f"recall@{K} ≥ {RECALL_TARGET}"
        ),
    )
    return curve + "\n\n" + sweep


def test_ann_retrieval(benchmark):
    output = benchmark.pedantic(run, rounds=1, iterations=1)
    harness.save_result("ann_retrieval", output)
    assert "recall@20" in output
