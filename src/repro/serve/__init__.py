"""Offline→online serving layer (infrastructure beyond the paper).

Pipeline: train → :func:`save_checkpoint` → :func:`load_checkpoint` →
:class:`TopKIndex` (precomputed representations) → :class:`ServingEngine`
(cache, micro-batching, fallback) → :class:`RecommendationServer` (HTTP JSON API
with Prometheus-style metrics). At catalogue scale :class:`IVFIndex`
(``mode="ann"``) replaces the exact scan with IVF approximate
retrieval that self-reports recall@K. See ``docs/serving.md``.
"""

from repro.serve.checkpoint import (
    build_model,
    dataset_from_spec,
    load_checkpoint,
    model_key_of,
    read_manifest,
    save_checkpoint,
)
from repro.serve.engine import MicroBatcher, ServingEngine, engine_from_checkpoint
from repro.serve.index import TopKIndex, load_index, topk_from_scores
from repro.serve.ann import IVFIndex, kmeans
from repro.obs.metrics import MetricsRegistry
from repro.serve.server import RecommendationServer

__all__ = [
    "IVFIndex",
    "kmeans",
    "load_index",
    "save_checkpoint",
    "load_checkpoint",
    "read_manifest",
    "dataset_from_spec",
    "build_model",
    "model_key_of",
    "TopKIndex",
    "topk_from_scores",
    "ServingEngine",
    "MicroBatcher",
    "engine_from_checkpoint",
    "MetricsRegistry",
    "RecommendationServer",
]
