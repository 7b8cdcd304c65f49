"""Offline top-K retrieval index over precomputed representations.

Answers ``top-K items for user u`` without touching the model at request
time. Two build modes, picked automatically:

* **factorized** — the model exposes final user/item matrices with
  ``scores = U @ I.T`` (:meth:`Recommender.representations`, e.g. BPRMF,
  LightGCN); queries are blocked matmuls against the item matrix.
* **dense** — models whose item representation depends on the target
  user (CG-KGR's collaborative guidance, KGCN's user-relation attention)
  cannot be factorized exactly, so the index precomputes full score rows
  via the same :meth:`~repro.baselines.base.Recommender.score_users` path
  the ranking protocol uses — build cost equals one full evaluation
  sweep, queries are row lookups.

Either way the query path is: score row → per-user seen-item mask
(shared with :func:`repro.eval.ranking.build_mask_table`, so serving and
evaluation mask identically) → ``np.argpartition`` top-K with the same
tie-breaking as the brute-force protocol (descending score, ascending
item id). Top-K equality with :func:`evaluate_topk` is test-enforced.

A third mode, ``"ann"``, dispatches to the approximate
:class:`repro.serve.ann.IVFIndex` (same query surface, measured recall
instead of exactness) for catalogues where the O(items) scan is too
slow; :func:`load_index` reloads either kind from its ``.npz``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.eval.ranking import build_mask_table
from repro.graph.interactions import InteractionGraph
from repro.utils.artifact import ArtifactError, load_npz, save_npz


def topk_from_scores(
    scores: np.ndarray,
    k: int,
    masked: Optional[np.ndarray] = None,
    ids: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` (items, scores) of one score row, masked items excluded.

    Matches :func:`repro.eval.ranking.rank_items` ordering exactly:
    descending score with ties broken by ascending item id.  ``ids``
    names the item behind each score when the row covers only a subset
    of the catalogue (the IVF probe's candidates); without it, position
    ``i`` is item ``i``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    row = np.asarray(scores, dtype=np.float64)
    if masked is not None and masked.size:
        row = row.copy()
        row[masked] = -np.inf
    k = min(int(k), row.size)
    if k < row.size:
        part = np.argpartition(-row, k - 1)[:k]
        # argpartition picks an arbitrary subset of items tied at the
        # k-th boundary; gather every item at the boundary score so the
        # lexsort below breaks the tie by ascending id, like rank_items.
        boundary = row[part].min()
        pool = np.concatenate(
            [part[row[part] > boundary], np.flatnonzero(row == boundary)]
        )
    else:
        pool = np.arange(row.size)
    pool_ids = pool if ids is None else ids[pool]
    order = pool[np.lexsort((pool_ids, -row[pool]))[:k]]
    return (order if ids is None else ids[order]), row[order]


def _resolve_users(
    dataset,
    users: Optional[Sequence[int]],
    mask_splits: Optional[Sequence[InteractionGraph]],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """``(user_ids, mask_table)`` an index build covers: every user when
    ``users`` is ``None``, and the train split masked by default."""
    if users is None:
        user_ids = np.arange(dataset.n_users, dtype=np.int64)
    else:
        user_ids = np.unique(np.asarray(users, dtype=np.int64))
        if user_ids.size and (
            user_ids[0] < 0 or user_ids[-1] >= dataset.n_users
        ):
            raise ValueError("indexed user ids out of range")
    if mask_splits is None:
        mask_splits = [dataset.train]
    return user_ids, build_mask_table(mask_splits, dataset.n_users)


class TopKIndex:
    """Precomputed user→item retrieval over a trained recommender."""

    #: Modes a class accepts; :class:`repro.serve.ann.IVFIndex` narrows
    #: this to ``("ann",)`` while reusing the rest of the constructor.
    _MODES = ("factorized", "dense")
    #: sha256 of the file :func:`load_index` read this index from.
    sha256: Optional[str] = None

    def __init__(
        self,
        user_ids: np.ndarray,
        n_users: int,
        n_items: int,
        mode: str,
        mask_table: List[np.ndarray],
        user_reps: Optional[np.ndarray] = None,
        item_reps: Optional[np.ndarray] = None,
        score_rows: Optional[np.ndarray] = None,
        block_size: int = 256,
    ):
        if mode not in self._MODES:
            raise ValueError(f"unknown index mode {mode!r}")
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.mode = mode
        self.mask_table = mask_table
        self.block_size = int(block_size)
        self._user_reps = user_reps
        self._item_reps = item_reps
        self._score_rows = score_rows
        self._row_of = np.full(self.n_users, -1, dtype=np.int64)
        self._row_of[self.user_ids] = np.arange(len(self.user_ids))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Recommender,
        users: Optional[Sequence[int]] = None,
        mask_splits: Optional[Sequence[InteractionGraph]] = None,
        mode: str = "auto",
        block_size: int = 256,
        ann_params: Optional[dict] = None,
    ) -> "TopKIndex":
        """Precompute representations (or score rows) for ``users``.

        ``users=None`` indexes the full user id space; pass a subset to
        bound memory on large catalogues — the serving engine falls back
        to on-the-fly scoring for users left out.

        ``mode="ann"`` builds the approximate
        :class:`~repro.serve.ann.IVFIndex` instead (same query surface;
        ``ann_params`` forwards ``nlist``/``nprobe``/``seed``
        etc. to :meth:`IVFIndex.from_representations`).
        """
        if mode not in ("auto", "factorized", "dense", "ann"):
            raise ValueError(f"unknown index mode {mode!r}")
        if mode == "ann":
            from repro.serve.ann import IVFIndex

            return IVFIndex.build(
                model,
                users=users,
                mask_splits=mask_splits,
                block_size=block_size,
                **(ann_params or {}),
            )
        if ann_params:
            raise ValueError("ann_params only apply to mode='ann'")
        dataset = model.dataset
        user_ids, mask_table = _resolve_users(dataset, users, mask_splits)

        reps = None if mode == "dense" else model.representations()
        if mode == "factorized" and reps is None:
            raise ValueError(
                f"{model.name} does not expose factorized representations; "
                "use mode='dense' (or 'auto')"
            )
        if reps is not None:
            user_matrix, item_matrix = reps
            return cls(
                user_ids,
                dataset.n_users,
                dataset.n_items,
                "factorized",
                mask_table,
                user_reps=np.ascontiguousarray(user_matrix[user_ids]),
                item_reps=np.ascontiguousarray(item_matrix),
                block_size=block_size,
            )

        # Dense: one score row per indexed user, computed through the
        # exact code path the offline ranking protocol uses, block_size
        # users per call.
        rows = np.empty((len(user_ids), dataset.n_items), dtype=np.float64)
        for start in range(0, len(user_ids), block_size):
            block = user_ids[start : start + block_size]
            rows[start : start + len(block)] = model.score_users(block)
        return cls(
            user_ids,
            dataset.n_users,
            dataset.n_items,
            "dense",
            mask_table,
            score_rows=rows,
            block_size=block_size,
        )

    # ------------------------------------------------------------------
    @property
    def n_indexed_users(self) -> int:
        return len(self.user_ids)

    def memory_bytes(self) -> int:
        total = 0
        for arr in (self._user_reps, self._item_reps, self._score_rows):
            if arr is not None:
                total += arr.nbytes
        return total

    def contains(self, user: int) -> bool:
        return 0 <= int(user) < self.n_users and self._row_of[int(user)] >= 0

    def _index_rows(self, users: Sequence[int]) -> np.ndarray:
        """Index rows of ``users``; ``KeyError`` names any not indexed."""
        users = np.asarray(users, dtype=np.int64)
        rows = self._row_of[users]
        if (rows < 0).any():
            raise KeyError(f"users not in index: {users[rows < 0].tolist()}")
        return rows

    def scores_of(self, users: Sequence[int]) -> np.ndarray:
        """``(len(users), n_items)`` score rows for indexed users."""
        rows = self._index_rows(users)
        if self.mode == "dense":
            return self._score_rows[rows]
        out = np.empty((len(rows), self.n_items), dtype=np.float64)
        for start in range(0, len(rows), self.block_size):
            block = rows[start : start + self.block_size]
            out[start : start + len(block)] = (
                self._user_reps[block] @ self._item_reps.T
            )
        return out

    def topk(
        self, users: Sequence[int], k: int, mask_seen: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` (items, scores) per user; seen items masked by default."""
        u = np.asarray(users, dtype=np.int64)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self.scores_of(u)
        k_eff = min(int(k), self.n_items)
        items = np.empty((len(u), k_eff), dtype=np.int64)
        values = np.empty((len(u), k_eff), dtype=np.float64)
        for pos, user in enumerate(u):
            masked = self.mask_table[int(user)] if mask_seen else None
            items[pos], values[pos] = topk_from_scores(scores[pos], k_eff, masked)
        return items, values

    # ------------------------------------------------------------------
    # Serialization: one .npz per index, so a built index ships with the
    # checkpoint (`repro export --index-mode ...`) instead of being
    # rebuilt on every `repro serve` boot.
    # ------------------------------------------------------------------
    def _artifact(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Arrays + meta for :func:`save_npz`.  Every name except ``kind``
        and the packed mask table is a constructor argument, which is how
        :meth:`_from_artifact` rebuilds the index."""
        lengths = [len(row) for row in self.mask_table]
        arrays = {
            "user_ids": self.user_ids,
            "mask_items": np.concatenate(self.mask_table).astype(np.int64),
            "mask_offsets": np.cumsum([0] + lengths, dtype=np.int64),
            "user_reps": self._user_reps,
            "item_reps": self._item_reps,
            "score_rows": self._score_rows,
        }
        meta = {
            "kind": "exact",
            "mode": self.mode,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "block_size": self.block_size,
        }
        return {k: v for k, v in arrays.items() if v is not None}, meta

    @classmethod
    def _from_artifact(
        cls, arrays: Dict[str, np.ndarray], meta: dict
    ) -> "TopKIndex":
        args = dict(arrays)
        offsets = args.pop("mask_offsets")
        args["mask_table"] = np.split(args.pop("mask_items"), offsets[1:-1])
        args.update(
            (k, v) for k, v in meta.items() if k not in ("kind", "format", "sha256")
        )
        index = cls(**args)
        index.sha256 = meta["sha256"]
        return index

    def save(self, path: str) -> str:
        """Serialize the index to one verified ``.npz``, bit-exactly."""
        save_npz(path, *self._artifact())
        return path

    @classmethod
    def load(cls, path: str) -> "TopKIndex":
        """Load a saved index of this class (:func:`load_index`: any kind)."""
        index = load_index(path)
        if type(index) is not cls:
            name = type(index).__name__
            raise ValueError(
                f"{path} holds a {name}; use {name}.load or load_index()"
            )
        return index


def load_index(path: str) -> TopKIndex:
    """Load any saved index, dispatching exact vs ANN on its ``kind``."""
    arrays, meta = load_npz(path, ("exact", "ivf"))
    if meta["kind"] == "exact":
        return TopKIndex._from_artifact(arrays, meta)
    if "pq_codebooks" in arrays:
        raise ArtifactError(
            f"{path}: PQ-compressed IVF index; product quantization was "
            "removed, re-export it without PQ"
        )
    from repro.serve.ann import IVFIndex

    return IVFIndex._from_artifact(arrays, meta)
