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

from typing import List

from repro.autograd import ops
from repro.autograd.nn import Embedding
from repro.autograd.tensor import Tensor
from repro.baselines.base import PropagatedRecommender, normalized_bipartite
from repro.data.dataset import RecDataset


class LightGCN(PropagatedRecommender):
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
        super().__init__(dataset, seed, user_offset=0, item_offset=dataset.n_users)
        self.dim = dim
        self.n_layers = n_layers
        self.lr = lr
        self.l2 = l2
        self.user_embedding = Embedding(dataset.n_users, dim, self.rng)
        self.item_embedding = Embedding(dataset.n_items, dim, self.rng)
        self._norm_rows, self._norm_cols, self._norm_vals = normalized_bipartite(dataset)

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

    def representations(self):
        table = self.node_table()
        return table[: self.dataset.n_users], table[self.dataset.n_users :]


def _mean_layers(layers: List[Tensor]) -> Tensor:
    total = layers[0]
    for layer in layers[1:]:
        total = ops.add(total, layer)
    return ops.mul(total, 1.0 / len(layers))
