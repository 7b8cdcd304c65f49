"""LightGCN (He et al., SIGIR 2020) — extra CF reference.

Not part of the paper's Table IV line-up, but the paper's introduction
motivates CG-KGR against "graph neural network based methods simulating
the CF process"; LightGCN is today's canonical such baseline, so the
reproduction ships it for context.  Propagation is the parameter-free
normalized neighborhood average ``E^(l+1) = D^{-1/2} A D^{-1/2} E^(l)``
over the user-item bipartite graph; the final representation averages all
layers; training is BPR.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.autograd import no_grad, ops
from repro.autograd.nn import Embedding
from repro.autograd.tensor import Tensor
from repro.baselines.base import Recommender
from repro.data.dataset import RecDataset


class LightGCN(Recommender):
    """Linear light graph convolution over the interaction graph."""

    name = "LightGCN"

    def __init__(
        self,
        dataset: RecDataset,
        dim: int = 16,
        n_layers: int = 2,
        lr: float = 5e-3,
        l2: float = 1e-5,
        seed: int = 0,
    ):
        super().__init__(dataset, seed)
        self.dim = dim
        self.n_layers = n_layers
        self.lr = lr
        self.l2 = l2
        self.user_embedding = Embedding(dataset.n_users, dim, self.rng)
        self.item_embedding = Embedding(dataset.n_items, dim, self.rng)
        self._norm_rows, self._norm_cols, self._norm_vals = self._normalized_adjacency()
        self._cached: np.ndarray | None = None

    def _normalized_adjacency(self):
        """Symmetric-normalized bipartite adjacency as COO triplets."""
        train = self.dataset.train
        user_deg = np.zeros(self.dataset.n_users)
        item_deg = np.zeros(self.dataset.n_items)
        np.add.at(user_deg, train.users, 1.0)
        np.add.at(item_deg, train.items, 1.0)
        norm = 1.0 / np.sqrt(
            np.maximum(user_deg[train.users], 1.0) * np.maximum(item_deg[train.items], 1.0)
        )
        return train.users.copy(), train.items.copy(), norm

    # ------------------------------------------------------------------
    def _propagate(self) -> Tensor:
        """Layer-averaged embeddings: (n_users + n_items, d)."""
        users = self.user_embedding.weight
        items = self.item_embedding.weight
        user_layers: List[Tensor] = [users]
        item_layers: List[Tensor] = [items]
        rows, cols, vals = self._norm_rows, self._norm_cols, self._norm_vals
        for _ in range(self.n_layers):
            # users <- items and items <- users through the weighted edges.
            gathered_items = ops.gather_rows(item_layers[-1], cols)
            weighted_items = ops.mul(gathered_items, vals[:, None])
            new_users = ops.scatter_rows(weighted_items, rows, self.dataset.n_users)
            gathered_users = ops.gather_rows(user_layers[-1], rows)
            weighted_users = ops.mul(gathered_users, vals[:, None])
            new_items = ops.scatter_rows(weighted_users, cols, self.dataset.n_items)
            user_layers.append(new_users)
            item_layers.append(new_items)
        user_final = _mean_layers(user_layers)
        item_final = _mean_layers(item_layers)
        return ops.concat([user_final, item_final], axis=0)

    # ------------------------------------------------------------------
    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        table = self._propagate()
        v_u = ops.gather_rows(table, users)
        v_i = ops.gather_rows(table, items + self.dataset.n_users)
        return ops.sum(ops.mul(v_u, v_i), axis=-1)

    def representations(self):
        with no_grad():
            table = self._propagate().numpy()
        return table[: self.dataset.n_users], table[self.dataset.n_users :]

    def loss(self, users, pos_items, neg_items) -> Tensor:
        self._cached = None
        table = self._propagate()
        v_u = ops.gather_rows(table, np.asarray(users))
        pos = ops.sum(ops.mul(v_u, ops.gather_rows(table, np.asarray(pos_items) + self.dataset.n_users)), axis=-1)
        neg = ops.sum(ops.mul(v_u, ops.gather_rows(table, np.asarray(neg_items) + self.dataset.n_users)), axis=-1)
        return ops.neg(ops.mean(ops.log_sigmoid(ops.sub(pos, neg))))

    def pairwise_loss(self, users, pos_items, neg_items) -> Tensor:
        self._cached = None  # parameters are about to change
        return super().pairwise_loss(users, pos_items, neg_items)

    def predict(self, users, items, batch_size: int = 8192) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        with no_grad():
            if self._cached is None:
                self._cached = self._propagate().numpy()
        table = self._cached
        return (table[users] * table[items + self.dataset.n_users]).sum(axis=-1)

    def begin_epoch(self, epoch: int) -> None:
        self._cached = None


def _mean_layers(layers: List[Tensor]) -> Tensor:
    total = layers[0]
    for layer in layers[1:]:
        total = ops.add(total, layer)
    return ops.mul(total, 1.0 / len(layers))
