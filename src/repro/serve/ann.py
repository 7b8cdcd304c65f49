"""Approximate top-K retrieval: IVF coarse quantization + optional PQ.

Exact retrieval (:class:`~repro.serve.index.TopKIndex`) scores every
item for every query — O(users × items) memory/build and an O(items)
scan per request, which caps serving at synthetic scale. This module
trades a measured amount of recall for an O(√items)-ish scan, the same
way industrial two-tower stacks put a trained-embedding ANN stage in
front of exact scoring:

* :func:`kmeans` — pure-numpy Lloyd iterations with deterministic
  seeding and empty-cluster re-splitting (the coarse quantizer);
* :class:`ProductQuantizer` — per-subspace codebooks compressing item
  residuals to ``pq_m`` uint8 codes each, for memory-bounded catalogues;
* :class:`IVFIndex` — items bucketed into ``nlist`` inverted lists by
  nearest centroid; a query ranks centroids by inner product, probes the
  best ``nprobe`` lists, and scores only those candidates (exactly, or
  through a PQ lookup table). Probing widens automatically until enough
  unmasked candidates exist to fill ``k``, so degenerate configurations
  degrade toward exact search instead of returning short results.

Scores are inner products (``u @ I.T``, max-inner-product search), so
cluster ranking uses ``u @ centroid`` — probing the lists whose *content*
is most likely to contain high-scoring items.

Every build self-reports recall@K against exact brute force on a
held-out probe set of users (``IVFIndex.stats``), so the recall knob is
a number, not a hope; build/probe phases emit
:mod:`repro.obs` spans. Tie-breaking matches the exact index
(descending score, ascending item id), so at ``nprobe == nlist`` with PQ
off the results coincide with brute force.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.graph.interactions import InteractionGraph
from repro.obs.events import default_tracer
from repro.obs.serving import current_request
from repro.serve.index import TopKIndex, _resolve_users, topk_from_scores

__all__ = ["kmeans", "assign_to_centroids", "ProductQuantizer", "IVFIndex"]


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
# Product quantization of residuals
# ----------------------------------------------------------------------
class ProductQuantizer:
    """``m`` per-subspace codebooks; one uint8 code per subvector.

    Compresses an ``(n, d)`` float matrix to ``(n, m)`` uint8 codes plus
    ``m · ksub · (d/m)`` float codebook entries — a 32×+ reduction for
    float64 reps at ``m = d/2``. Scoring decodes through a per-query
    lookup table (asymmetric distance computation), never materializing
    the reconstruction for more than the probed candidates.
    """

    def __init__(self, codebooks: np.ndarray):
        books = np.asarray(codebooks, dtype=np.float64)
        if books.ndim != 3:
            raise ValueError("codebooks must be (m, ksub, dsub)")
        self.codebooks = books

    @property
    def m(self) -> int:
        return self.codebooks.shape[0]

    @property
    def ksub(self) -> int:
        return self.codebooks.shape[1]

    @property
    def dsub(self) -> int:
        return self.codebooks.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.dsub

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls, vectors: np.ndarray, m: int, ksub: int = 256, seed: int = 0
    ) -> "ProductQuantizer":
        x = np.asarray(vectors, dtype=np.float64)
        if x.ndim != 2 or not len(x):
            raise ValueError("fit needs a non-empty (n, d) matrix")
        dim = x.shape[1]
        if m < 1 or dim % m:
            raise ValueError(f"pq_m={m} must divide the embedding dim {dim}")
        if ksub > 256:
            raise ValueError("ksub > 256 does not fit uint8 codes")
        dsub = dim // m
        books = np.empty((m, ksub, dsub), dtype=np.float64)
        for sub in range(m):
            block = x[:, sub * dsub : (sub + 1) * dsub]
            centroids, _ = kmeans(block, ksub, seed=seed + sub)
            # Fewer distinct points than ksub → pad by repeating the
            # first centroid; codes simply never reference the padding.
            if len(centroids) < ksub:
                pad = np.repeat(centroids[:1], ksub - len(centroids), axis=0)
                centroids = np.concatenate([centroids, pad])
            books[sub] = centroids
        return cls(books)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        x = np.asarray(vectors, dtype=np.float64)
        if x.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x.shape[1]}")
        codes = np.empty((len(x), self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = x[:, sub * self.dsub : (sub + 1) * self.dsub]
            codes[:, sub] = assign_to_centroids(block, self.codebooks[sub])
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty((len(codes), self.dim), dtype=np.float64)
        for sub in range(self.m):
            out[:, sub * self.dsub : (sub + 1) * self.dsub] = self.codebooks[
                sub
            ][codes[:, sub]]
        return out

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """``(m, ksub)`` of ``query_sub · codeword`` inner products."""
        q = np.asarray(query, dtype=np.float64).reshape(self.m, self.dsub)
        return np.einsum("ms,mks->mk", q, self.codebooks)

    def scores_from_codes(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Inner products of the table's query with the coded vectors."""
        total = np.zeros(len(codes), dtype=np.float64)
        for sub in range(self.m):
            total += table[sub][codes[:, sub]]
        return total

    def memory_bytes(self) -> int:
        return self.codebooks.nbytes


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
        item_reps: Optional[np.ndarray] = None,
        pq: Optional[ProductQuantizer] = None,
        pq_codes: Optional[np.ndarray] = None,
        item_cluster: Optional[np.ndarray] = None,
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
            item_reps=None if item_reps is None else np.asarray(item_reps, dtype=np.float64),
            block_size=block_size,
        )
        if (pq is None) != (pq_codes is None):
            raise ValueError("pq and pq_codes must be supplied together")
        if item_reps is None and pq is None:
            raise ValueError("need raw item_reps or a PQ compression")
        self.centroids = np.asarray(centroids, dtype=np.float64)
        #: Item ids grouped by cluster; cluster ``c`` owns
        #: ``list_items[list_offsets[c]:list_offsets[c+1]]`` (ascending ids).
        self.list_items = np.asarray(list_items, dtype=np.int64)
        self.list_offsets = np.asarray(list_offsets, dtype=np.int64)
        self.nprobe = max(1, min(int(nprobe), self.nlist))
        self.pq = pq
        self.pq_codes = pq_codes
        self._item_cluster = (
            None if item_cluster is None else np.asarray(item_cluster, dtype=np.int64)
        )
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

    @property
    def compressed(self) -> bool:
        return self.pq is not None

    def memory_bytes(self) -> int:
        total = self._user_reps.nbytes + self.centroids.nbytes
        total += self.list_items.nbytes + self.list_offsets.nbytes
        if self._item_reps is not None:
            total += self._item_reps.nbytes
        if self.pq is not None:
            total += self.pq.memory_bytes() + self.pq_codes.nbytes
        return total

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
        pq_m: int = 0,
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
                         pq_m=pq_m, n_items=n_items):
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

            pq = codes = None
            raw_reps: Optional[np.ndarray] = item_reps
            if pq_m:
                with tracer.span("ann.pq", pq_m=pq_m):
                    residuals = item_reps - centroids[assignments]
                    # Codebooks train on a sample; encoding still covers
                    # every item in one blocked pass per subspace.
                    pq_train = min(n_items, 16384)
                    if pq_train < n_items:
                        sample = np.sort(
                            rng.choice(n_items, size=pq_train, replace=False)
                        )
                        pq = ProductQuantizer.fit(
                            residuals[sample], pq_m, seed=seed
                        )
                    else:
                        pq = ProductQuantizer.fit(residuals, pq_m, seed=seed)
                    codes = pq.encode(residuals)
                    raw_reps = None  # compressed mode drops the raw matrix

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
                item_reps=raw_reps,
                pq=pq,
                pq_codes=codes,
                item_cluster=assignments,
                block_size=block_size,
            )
            with tracer.span("ann.recall_probe", probe_users=probe_users):
                index.stats = index._measure_recall(
                    item_reps, probe_users=probe_users, k=recall_k, seed=seed
                )
            tracer.event(
                "ann_built",
                nlist=nlist_eff,
                nprobe=index.nprobe,
                pq_m=pq_m,
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
    def _candidate_scores(
        self, user_vec: np.ndarray, candidates: np.ndarray,
        cluster_scores: np.ndarray,
    ) -> np.ndarray:
        """Inner products for the probed candidates only."""
        if self._item_reps is not None:
            return self._item_reps[candidates] @ user_vec
        # PQ path: score = u·centroid(cluster) + u·decode(residual code),
        # the second term via one (m, ksub) lookup table per query.
        table = self.pq.lookup_table(user_vec)
        approx = self.pq.scores_from_codes(table, self.pq_codes[candidates])
        return approx + cluster_scores[self._item_cluster[candidates]]

    def scores_of(self, users: Sequence[int]) -> np.ndarray:
        """Full score rows (used by ``/score`` fallback): exact when the
        raw item matrix is retained, PQ-reconstructed otherwise."""
        rows = self._index_rows(users)
        queries = self._user_reps[rows]
        out = np.empty((len(rows), self.n_items), dtype=np.float64)
        for pos, query in enumerate(queries):
            if self._item_reps is not None:
                out[pos] = self._item_reps @ query
            else:
                cluster_scores = self.centroids @ query
                table = self.pq.lookup_table(query)
                out[pos] = (
                    self.pq.scores_from_codes(table, self.pq_codes)
                    + cluster_scores[self._item_cluster]
                )
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
            compressed=self.compressed,
        )
        scores = self._candidate_scores(query, candidates, cluster_scores)
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
        exact_item_reps: np.ndarray,
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
            "pq_m": float(self.pq.m if self.pq is not None else 0),
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
            exact_scores = exact_item_reps @ self._user_reps[row]
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
        if self._item_cluster is not None:
            arrays["item_cluster"] = self._item_cluster
        if self.pq is not None:
            arrays["pq_codebooks"] = self.pq.codebooks
            arrays["pq_codes"] = self.pq_codes
        del meta["mode"]
        meta.update(kind="ivf", nprobe=self.nprobe, stats=self.stats)
        return arrays, meta

    @classmethod
    def _from_artifact(
        cls, arrays: Dict[str, np.ndarray], meta: dict
    ) -> "IVFIndex":
        arrays = dict(arrays)
        codebooks = arrays.pop("pq_codebooks", None)
        if codebooks is not None:
            arrays["pq"] = ProductQuantizer(codebooks)
        return super()._from_artifact(arrays, meta)
