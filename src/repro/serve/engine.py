"""Online serving engine: cache → index → model fallback.

``ServingEngine`` answers recommendation requests through three tiers:

1. an LRU cache of recent ``(user, k)`` results (hot users repeat);
2. the precomputed :class:`~repro.serve.index.TopKIndex`;
3. on-the-fly scoring through the model for *cold* users that were left
   out of the index (graceful degradation instead of a 404); all cold
   users of one call share one ``score_users`` call.

``recommend_many`` is the one walk through the tiers; ``recommend`` is
``recommend_many`` of one user.

``MicroBatcher`` sits in front of the engine for concurrent frontends
(the HTTP server handles each request on its own thread): requests are
queued and flushed as one vectorized index query when either the batch
fills or a small wait window elapses — classic serving micro-batching.

Every tier bumps counters in a :class:`~repro.obs.metrics.MetricsRegistry`
(``requests``, ``cache_hits``/``cache_misses``, ``fallback_users``) and
request latency lands in the ``recommend_latency_seconds`` histogram.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.serve.index import TopKIndex, topk_from_scores
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import current_request, use_request
from repro.utils.artifact import ArtifactError

Result = Tuple[np.ndarray, np.ndarray]  # (items, scores), each length k


def engine_from_checkpoint(
    path: str,
    dataset=None,
    users: Optional[Sequence[int]] = None,
    mask_valid: bool = True,
    mode: str = "auto",
    cache_size: int = 1024,
    metrics: Optional[MetricsRegistry] = None,
    ann_params: Optional[dict] = None,
    use_saved_index: bool = True,
) -> "ServingEngine":
    """Checkpoint directory → ready-to-serve engine (offline → online).

    Loads the model (:func:`repro.serve.checkpoint.load_checkpoint`),
    precomputes the retrieval index over ``users`` (default: everyone)
    with the user's known history masked, and attaches the model for
    cold-user fallback.

    A checkpoint exported with a prebuilt index (``repro export
    --index-mode ...`` writes ``index.npz`` next to the weights) boots
    without rebuilding, when the saved index covers the request
    (``users=None`` and a compatible ``mode``); its sha256 must match
    the one the weights recorded. ``use_saved_index=False`` forces a
    rebuild. ``mode="ann"`` builds the approximate
    :class:`~repro.serve.ann.IVFIndex` with ``ann_params``
    (``nlist``/``nprobe``/``seed``/...).
    """
    from repro.serve.checkpoint import INDEX_FILE, load_checkpoint, read_manifest

    model = load_checkpoint(path, dataset)
    index = None
    shipped = read_manifest(path)["index"]
    if use_saved_index and users is None and shipped:
        from repro.serve.index import load_index

        index_path = os.path.join(path, INDEX_FILE)
        saved = load_index(index_path)
        if saved.sha256 != shipped["sha256"]:
            raise ArtifactError(
                f"{index_path}: sha256 fingerprint mismatch with the manifest"
            )
        if mode in ("auto", saved.mode):
            index = saved
    if index is None:
        mask_splits = [model.dataset.train]
        if mask_valid:
            mask_splits.append(model.dataset.valid)
        index = TopKIndex.build(
            model,
            users=users,
            mask_splits=mask_splits,
            mode=mode,
            ann_params=ann_params,
        )
    return ServingEngine(index, model=model, cache_size=cache_size, metrics=metrics)


class ServingEngine:
    """Thread-safe recommendation serving over an index + optional model."""

    def __init__(
        self,
        index: TopKIndex,
        model: Optional[Recommender] = None,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.index = index
        self.model = model
        self.cache_size = int(cache_size)
        self.metrics = metrics or MetricsRegistry()
        self._cache: "OrderedDict[Tuple[int, int, bool], Result]" = OrderedDict()
        self._lock = threading.RLock()
        # An approximate index carries its build-time self-measurement
        # (recall@K vs exact, nlist/nprobe); surface it as gauges so
        # /metrics exports the retrieval quality next to the latency.
        for key, value in (getattr(index, "stats", None) or {}).items():
            self.metrics.set_gauge(
                f"ann_{key.replace('@', '_at_')}", float(value)
            )

    # ------------------------------------------------------------------
    def _cache_get(self, key) -> Optional[Result]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
                self.metrics.inc("cache_hits")
            else:
                self.metrics.inc("cache_misses")
            return result

    def _cache_put(self, key, result: Result) -> None:
        if self.cache_size <= 0:
            return
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    def _known_user(self, user: int) -> int:
        """``user`` as an int; ``KeyError`` (a 404) outside the id space."""
        user = int(user)
        if not 0 <= user < self.index.n_users:
            raise KeyError(f"unknown user id {user}")
        return user

    def _fallback(
        self, users: List[int], k: int, mask_seen: bool
    ) -> List[Result]:
        """Cold-user path: score the catalogue for every user through the
        model in one :meth:`~repro.baselines.base.Recommender.score_users`
        call, so the user-independent item side is built once."""
        if self.model is None:
            raise KeyError(
                f"users {users} are not in the index and no model is "
                "attached for fallback scoring"
            )
        self.metrics.inc("fallback_users", len(users))
        with current_request().span(
            "model.fallback", n_users=len(users), k=int(k)
        ):
            scores = self.model.score_users(users)
            return [
                topk_from_scores(
                    row, k, self.index.mask_table[user] if mask_seen else None
                )
                for user, row in zip(users, scores)
            ]

    def recommend(self, user: int, k: int = 10, mask_seen: bool = True) -> Result:
        """Top-``k`` (items, scores) for one user, cached."""
        return self.recommend_many([user], k, mask_seen)[0]

    def recommend_many(
        self, users: Sequence[int], k: int = 10, mask_seen: bool = True
    ) -> List[Result]:
        """Top-``k`` (items, scores) per user: cache, then one vectorized
        index query for the uncached indexed users, then one model
        fallback call for the rest."""
        users = [self._known_user(u) for u in users]
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k, mask_seen = int(k), bool(mask_seen)
        self.metrics.inc("requests", len(users))
        self.metrics.inc("batched_queries")
        ctx = current_request()
        results: Dict[int, Result] = {}
        to_index: List[int] = []
        to_fallback: List[int] = []
        with ctx.span("cache.lookup", n_users=len(users)) as span:
            for user in set(users):
                cached = self._cache_get((user, k, mask_seen))
                if cached is not None:
                    results[user] = cached
                elif self.index.contains(user):
                    to_index.append(user)
                else:
                    to_fallback.append(user)
            span.set(hits=len(results), misses=len(to_index) + len(to_fallback))
        if not to_index and not to_fallback:
            # The latency histogram times the work behind a cache miss.
            return [results[user] for user in users]
        with self.metrics.time("recommend_latency_seconds"):
            fresh: List[Tuple[int, Result]] = []
            if to_index:
                with ctx.span(
                    "index.query",
                    mode=self.index.mode,
                    n_users=len(to_index),
                    k=k,
                ):
                    items, scores = self.index.topk(
                        to_index, k, mask_seen=mask_seen
                    )
                fresh = list(zip(to_index, zip(items, scores)))
            if to_fallback:
                fresh += zip(to_fallback, self._fallback(to_fallback, k, mask_seen))
            for user, result in fresh:
                results[user] = result
                self._cache_put((user, k, mask_seen), result)
        return [results[user] for user in users]

    def score(self, user: int, items: Sequence[int]) -> np.ndarray:
        """Raw scores of explicit (user, item) candidates."""
        user = self._known_user(user)
        item_arr = np.asarray(items, dtype=np.int64)
        if item_arr.size and (
            item_arr.min() < 0 or item_arr.max() >= self.index.n_items
        ):
            raise KeyError("item id out of range")
        self.metrics.inc("score_requests")
        with self.metrics.time("score_latency_seconds"):
            if self.model is not None:
                users = np.full(item_arr.size, user, dtype=np.int64)
                return self.model.predict(users, item_arr)
            return self.index.scores_of([user])[0][item_arr]

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, float]:
        with self._lock:
            size = len(self._cache)
        snap = self.metrics.snapshot()
        return {
            "size": size,
            "capacity": self.cache_size,
            "hits": snap["counters"].get("cache_hits", 0.0),
            "misses": snap["counters"].get("cache_misses", 0.0),
            "hit_rate": snap["cache_hit_rate"],
        }


class MicroBatcher:
    """Collects concurrent requests into vectorized engine calls.

    ``submit`` returns a :class:`concurrent.futures.Future`; a background
    worker flushes the queue whenever ``max_batch`` requests are waiting
    or the oldest has waited ``max_wait_ms`` — so a lone request pays at
    most the wait window and a burst is answered by one blocked matmul.
    """

    def __init__(
        self,
        engine: ServingEngine,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self._queue: List[Tuple[int, int, Future]] = []
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def submit(self, user: int, k: int = 10, ctx=None) -> "Future[Result]":
        """Queue one request; ``ctx`` (a
        :class:`~repro.obs.serving.RequestContext`) receives the flush's
        ``engine.microbatch`` span so batched requests stay traceable."""
        future: "Future[Result]" = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.append((int(user), int(k), future, ctx))
            self._cond.notify()
        return future

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._worker.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                deadline = time.monotonic() + self.max_wait
                while len(self._queue) < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch, self._queue = self._queue, []
            self.engine.metrics.inc("microbatch_flushes")
            self.engine.metrics.observe("microbatch_size", len(batch))
            by_k: Dict[int, List[Tuple[int, Future, object]]] = {}
            for user, k, future, ctx in batch:
                by_k.setdefault(k, []).append((user, future, ctx))
            for k, group in by_k.items():
                users = [user for user, _, _ in group]
                contexts = [ctx for _, _, ctx in group if ctx is not None]
                # A lone request keeps its full trace (engine/index spans
                # attach to its context); a real batch is one shared
                # engine call, so each member just records the flush.
                solo = contexts[0] if len(group) == 1 and contexts else None
                try:
                    with contextlib.ExitStack() as stack:
                        for ctx in contexts:
                            stack.enter_context(
                                ctx.span(
                                    "engine.microbatch",
                                    batch=len(group),
                                    k=int(k),
                                )
                            )
                        if solo is not None:
                            stack.enter_context(use_request(solo))
                        results = self.engine.recommend_many(users, k)
                except Exception as exc:  # propagate to every waiter
                    for _, future, _ in group:
                        future.set_exception(exc)
                    continue
                for (_, future, _), result in zip(group, results):
                    future.set_result(result)
