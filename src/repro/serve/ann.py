"""Approximate top-K retrieval: IVF coarse quantization.

Exact retrieval (:class:`~repro.serve.index.TopKIndex`) scores every
item for every query — O(users × items) memory/build and an O(items)
scan per request, which caps serving at synthetic scale. This module
trades a measured amount of recall for an O(√items)-ish scan, the same
way industrial two-tower stacks put a trained-embedding ANN stage in
front of exact scoring:

* :func:`kmeans` — pure-numpy Lloyd iterations with deterministic
  seeding and empty-cluster re-splitting (the coarse quantizer);
* :class:`IVFIndex` — items bucketed into ``nlist`` inverted lists by
  nearest centroid; a query ranks centroids by inner product, probes the
  best ``nprobe`` lists, and scores only those candidates exactly.
  Probing widens automatically until enough unmasked candidates exist to
  fill ``k``, so degenerate configurations degrade toward exact search
  instead of returning short results.

Scores are inner products (``u @ I.T``, max-inner-product search), so
cluster ranking uses ``u @ centroid`` — probing the lists whose *content*
is most likely to contain high-scoring items.

Every build self-reports recall@K against exact brute force on a
held-out probe set of users (``IVFIndex.stats``), so the recall knob is
a number, not a hope; build/probe phases emit
:mod:`repro.obs` spans. Tie-breaking matches the exact index
(descending score, ascending item id), so at ``nprobe == nlist`` the
results coincide with brute force.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.graph.interactions import InteractionGraph
from repro.obs.events import default_tracer
from repro.obs.serving import current_request
from repro.serve.index import TopKIndex, _resolve_users, topk_from_scores

__all__ = ["kmeans", "assign_to_centroids", "IVFIndex"]


# ----------------------------------------------------------------------
# k-means coarse quantizer
# ----------------------------------------------------------------------
def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray, block_size: Optional[int] = None
) -> np.ndarray:
    """Nearest-centroid (L2) label per point, blocked to bound memory.

    The default block size adapts to the centroid count so the distance
    scratch matrix stays ~64 MB regardless of ``nlist``.
    """
    x = np.asarray(points, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    if block_size is None:
        block_size = max(1024, (1 << 23) // max(1, len(c)))
    c_sq = (c * c).sum(axis=1)
    labels = np.empty(len(x), dtype=np.int64)
    for start in range(0, len(x), block_size):
        block = x[start : start + block_size]
        # ||x - c||^2 = ||x||^2 - 2 x·c + ||c||^2; ||x||^2 is constant
        # per row so the argmin only needs the last two terms.
        dists = c_sq[None, :] - 2.0 * (block @ c.T)
        labels[start : start + len(block)] = np.argmin(dists, axis=1)
    return labels


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    n_iters: int = 25,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd k-means → ``(centroids, labels)``.

    * ``n_clusters`` is clamped to the number of points (``nlist >
      n_items`` cannot produce more clusters than items);
    * initial centroids are a seeded distinct-point sample, so a fixed
      seed gives bit-identical output;
    * a cluster that empties is re-split deterministically: its centroid
      is moved onto the point farthest from the centroid of the largest
      remaining cluster (ties broken by lowest point index).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or not len(x):
        raise ValueError("kmeans needs a non-empty (n, d) matrix")
    k = max(1, min(int(n_clusters), len(x)))
    rng = np.random.default_rng(seed)
    centroids = x[np.sort(rng.choice(len(x), size=k, replace=False))].copy()
    labels = np.full(len(x), -1, dtype=np.int64)
    for _ in range(max(1, int(n_iters))):
        new_labels = assign_to_centroids(x, centroids)
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(new_labels == donor)
            gaps = ((x[members] - centroids[donor]) ** 2).sum(axis=1)
            stray = members[int(np.argmax(gaps))]
            new_labels[stray] = empty
            counts[donor] -= 1
            counts[empty] += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for dim in range(x.shape[1]):
            centroids[:, dim] = np.bincount(
                labels, weights=x[:, dim], minlength=k
            )
        centroids /= np.maximum(counts, 1)[:, None]
    return centroids, labels


# ----------------------------------------------------------------------
# IVF index
# ----------------------------------------------------------------------
class IVFIndex(TopKIndex):
    """Approximate :class:`TopKIndex` over inverted centroid lists.

    Same query surface as the exact index (``topk`` / ``scores_of`` /
    ``contains`` / ``memory_bytes``) so :class:`ServingEngine`, the HTTP
    API, and the benches swap it in via config. ``mode`` is ``"ann"``.
    """

    _MODES = ("ann",)

    def __init__(
        self,
        user_ids: np.ndarray,
        n_users: int,
        n_items: int,
        mask_table: List[np.ndarray],
        user_reps: np.ndarray,
        centroids: np.ndarray,
        list_items: np.ndarray,
        list_offsets: np.ndarray,
        nprobe: int,
        item_reps: np.ndarray,
        block_size: int = 256,
        stats: Optional[Dict[str, float]] = None,
    ):
        super().__init__(
            user_ids,
            n_users,
            n_items,
            "ann",
            mask_table,
            user_reps=np.asarray(user_reps, dtype=np.float64),
            item_reps=np.asarray(item_reps, dtype=np.float64),
            block_size=block_size,
        )
        self.centroids = np.asarray(centroids, dtype=np.float64)
        #: Item ids grouped by cluster; cluster ``c`` owns
        #: ``list_items[list_offsets[c]:list_offsets[c+1]]`` (ascending ids).
        self.list_items = np.asarray(list_items, dtype=np.int64)
        self.list_offsets = np.asarray(list_offsets, dtype=np.int64)
        self.nprobe = max(1, min(int(nprobe), self.nlist))
        #: Build-time self-measurement: recall@K vs exact brute force on a
        #: probe set of users, plus the knobs that produced it.
        self.stats: Dict[str, float] = dict(stats or {})
        # Rolling probe accounting (how much of the catalogue each query
        # actually scanned) — surfaced by /healthz and the bench.
        self.n_queries = 0
        self.n_candidates_scanned = 0

    # ------------------------------------------------------------------
    @property
    def nlist(self) -> int:
        return len(self.centroids)

    def memory_bytes(self) -> int:
        return (
            super().memory_bytes()
            + self.centroids.nbytes
            + self.list_items.nbytes
            + self.list_offsets.nbytes
        )

    def candidate_fraction(self) -> float:
        """Mean fraction of the catalogue scanned per query so far."""
        if not self.n_queries:
            return 0.0
        return self.n_candidates_scanned / (self.n_queries * self.n_items)

    # ------------------------------------------------------------------
    @classmethod
    def from_representations(
        cls,
        user_reps: np.ndarray,
        item_reps: np.ndarray,
        n_users: int,
        n_items: int,
        user_ids: Optional[np.ndarray] = None,
        mask_table: Optional[List[np.ndarray]] = None,
        nlist: int = 64,
        nprobe: int = 8,
        seed: int = 0,
        train_size: Optional[int] = None,
        probe_users: int = 32,
        recall_k: int = 20,
        block_size: int = 256,
    ) -> "IVFIndex":
        """Build from raw ``(U, I)`` matrices (the bench path).

        ``train_size`` caps the k-means training sample (default
        ``min(n_items, max(10·nlist, 4096))``); every item is still
        assigned to its nearest centroid in one blocked pass.
        """
        tracer = default_tracer()
        users = (
            np.arange(n_users, dtype=np.int64)
            if user_ids is None
            else np.asarray(user_ids, dtype=np.int64)
        )
        if mask_table is None:
            mask_table = [np.empty(0, dtype=np.int64) for _ in range(n_users)]
        item_reps = np.asarray(item_reps, dtype=np.float64)
        user_reps = np.asarray(user_reps, dtype=np.float64)
        nlist_eff = max(1, min(int(nlist), n_items))
        rng = np.random.default_rng(seed)

        with tracer.span("ann.build", nlist=nlist_eff, nprobe=nprobe,
                         n_items=n_items):
            if train_size is None:
                train_size = min(n_items, max(10 * nlist_eff, 4096))
            with tracer.span("ann.kmeans", train_size=train_size):
                if train_size < n_items:
                    sample = np.sort(
                        rng.choice(n_items, size=train_size, replace=False)
                    )
                    centroids, _ = kmeans(item_reps[sample], nlist_eff, seed=seed)
                else:
                    centroids, _ = kmeans(item_reps, nlist_eff, seed=seed)
            with tracer.span("ann.assign"):
                assignments = assign_to_centroids(item_reps, centroids)
                # Stable sort by cluster keeps ids ascending within lists.
                order = np.argsort(assignments, kind="stable")
                list_items = order.astype(np.int64)
                counts = np.bincount(assignments, minlength=len(centroids))
                list_offsets = np.zeros(len(centroids) + 1, dtype=np.int64)
                np.cumsum(counts, out=list_offsets[1:])

            index = cls(
                users,
                n_users,
                n_items,
                mask_table,
                user_reps=user_reps,
                centroids=centroids,
                list_items=list_items,
                list_offsets=list_offsets,
                nprobe=nprobe,
                item_reps=item_reps,
                block_size=block_size,
            )
            with tracer.span("ann.recall_probe", probe_users=probe_users):
                index.stats = index._measure_recall(
                    probe_users=probe_users, k=recall_k, seed=seed
                )
            tracer.event(
                "ann_built",
                nlist=nlist_eff,
                nprobe=index.nprobe,
                recall=index.stats.get(f"recall@{recall_k}"),
                memory_bytes=index.memory_bytes(),
            )
        return index

    @classmethod
    def build(
        cls,
        model: Recommender,
        users: Optional[Sequence[int]] = None,
        mask_splits: Optional[Sequence[InteractionGraph]] = None,
        block_size: int = 256,
        **ann_params,
    ) -> "IVFIndex":
        """Build over a trained model's factorized representations.

        Models without ``representations()`` (CG-KGR's guidance couples
        the item representation to the user) cannot be approximated this
        way — use the exact dense index for them.
        """
        dataset = model.dataset
        reps = model.representations()
        if reps is None:
            raise ValueError(
                f"{model.name} does not expose factorized representations; "
                "mode='ann' needs them — use mode='dense' instead"
            )
        user_matrix, item_matrix = reps
        user_ids, mask_table = _resolve_users(dataset, users, mask_splits)
        return cls.from_representations(
            np.ascontiguousarray(np.asarray(user_matrix, dtype=np.float64)[user_ids]),
            np.ascontiguousarray(item_matrix),
            dataset.n_users,
            dataset.n_items,
            user_ids=user_ids,
            mask_table=mask_table,
            block_size=block_size,
            **ann_params,
        )

    # ------------------------------------------------------------------
    def scores_of(self, users: Sequence[int]) -> np.ndarray:
        """Full score rows (used by ``/score`` fallback), one matvec per
        user."""
        rows = self._index_rows(users)
        out = np.empty((len(rows), self.n_items), dtype=np.float64)
        for pos, query in enumerate(self._user_reps[rows]):
            out[pos] = self._item_reps @ query
        return out

    def _probe(self, user: int, k: int, mask_seen: bool) -> Tuple[np.ndarray, np.ndarray]:
        """One ANN query: rank lists, widen probing until k can be filled."""
        with current_request().span(
            "ann.probe", user=int(user), k=int(k), nprobe=int(self.nprobe)
        ) as ctx_span:
            return self._probe_inner(user, k, mask_seen, ctx_span)

    def _probe_inner(
        self, user: int, k: int, mask_seen: bool, ctx_span
    ) -> Tuple[np.ndarray, np.ndarray]:
        row = self._row_of[int(user)]
        query = self._user_reps[row]
        cluster_scores = self.centroids @ query
        cluster_order = np.argsort(-cluster_scores, kind="stable")
        masked = self.mask_table[int(user)] if mask_seen else None
        n_masked = 0 if masked is None else len(masked)
        # Probing nprobe lists is the budget; keep widening while the
        # probed lists cannot possibly hold k unmasked items.
        needed = min(int(k) + n_masked, self.n_items)
        chunks: List[np.ndarray] = []
        gathered = 0
        probed = 0
        for cluster in cluster_order:
            if probed >= self.nprobe and gathered >= needed:
                break
            lo, hi = self.list_offsets[cluster], self.list_offsets[cluster + 1]
            if hi > lo:
                chunks.append(self.list_items[lo:hi])
                gathered += hi - lo
            probed += 1
        candidates = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        self.n_queries += 1
        self.n_candidates_scanned += len(candidates)
        ctx_span.set(
            lists_probed=probed,
            candidates=len(candidates),
            candidate_fraction=round(len(candidates) / max(1, self.n_items), 6),
        )
        scores = self._item_reps[candidates] @ query
        if masked is not None and n_masked:
            scores[np.isin(candidates, masked, assume_unique=False)] = -np.inf
        # Same ordering contract as the exact index: descending score,
        # ties broken by ascending item id.
        return topk_from_scores(scores, k, ids=candidates)

    def topk(
        self, users: Sequence[int], k: int, mask_seen: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        u = np.asarray(users, dtype=np.int64)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._index_rows(u)
        # _probe_inner widens until min(k + n_masked, n_items) candidates
        # are gathered, so every probe returns exactly k_eff items.
        k_eff = min(int(k), self.n_items)
        items = np.empty((len(u), k_eff), dtype=np.int64)
        values = np.empty((len(u), k_eff), dtype=np.float64)
        for pos, user in enumerate(u):
            items[pos], values[pos] = self._probe(int(user), k_eff, mask_seen)
        return items, values

    # ------------------------------------------------------------------
    def _measure_recall(
        self,
        probe_users: int = 32,
        k: int = 20,
        seed: int = 0,
    ) -> Dict[str, float]:
        """Recall@k of this index vs exact scoring on sampled users."""
        rng = np.random.default_rng(seed + 1)
        n_probe = min(int(probe_users), len(self.user_ids))
        stats = {
            "nlist": float(self.nlist),
            "nprobe": float(self.nprobe),
            "probe_users": float(n_probe),
            "recall_k": float(k),
        }
        if not n_probe:
            stats[f"recall@{k}"] = 0.0
            return stats
        chosen = self.user_ids[
            np.sort(rng.choice(len(self.user_ids), size=n_probe, replace=False))
        ]
        overlap = 0.0
        for user in chosen:
            row = self._row_of[int(user)]
            exact_scores = self._item_reps @ self._user_reps[row]
            exact_top, _ = topk_from_scores(
                exact_scores, k, self.mask_table[int(user)]
            )
            approx_top, _ = self.topk([int(user)], k)
            overlap += len(np.intersect1d(exact_top, approx_top[0])) / max(
                1, len(exact_top)
            )
        stats[f"recall@{k}"] = overlap / n_probe
        return stats

    # ------------------------------------------------------------------
    def _artifact(self) -> Tuple[Dict[str, np.ndarray], dict]:
        arrays, meta = super()._artifact()
        arrays.update(
            centroids=self.centroids,
            list_items=self.list_items,
            list_offsets=self.list_offsets,
        )
        del meta["mode"]
        meta.update(kind="ivf", nprobe=self.nprobe, stats=self.stats)
        return arrays, meta

    @classmethod
    def _from_artifact(
        cls, arrays: Dict[str, np.ndarray], meta: dict
    ) -> "IVFIndex":
        # Indexes exported before product quantization was removed also
        # carry each item's cluster id, which the inverted lists hold.
        arrays = {k: v for k, v in arrays.items() if k != "item_cluster"}
        return super()._from_artifact(arrays, meta)
