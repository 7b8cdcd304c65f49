"""NGCF — Neural Graph Collaborative Filtering (Wang et al., SIGIR 2019).

The paper's reference [1] for GNN-based CF.  Each propagation layer mixes
the normalized neighborhood sum with an elementwise neighbor-affinity
term:

``e_u^(l+1) = LeakyReLU(W1 (e_u + Σ n_ui e_i) + W2 Σ n_ui (e_i ⊙ e_u))``

with ``n_ui = 1/√(|N_u||N_i|)``; the final representation concatenates
all layers; training is BPR.  Shipped as an extra CF reference beyond the
paper's Table IV line-up.
"""

from __future__ import annotations

from typing import List

from repro.autograd import init, ops
from repro.autograd.nn import Embedding, Parameter
from repro.autograd.tensor import Tensor
from repro.baselines.base import PropagatedRecommender, normalized_bipartite
from repro.data.dataset import RecDataset


class NGCF(PropagatedRecommender):
    """Neural graph collaborative filtering on the bipartite graph."""

    name = "NGCF"

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
        self.w_sum = [
            Parameter(init.xavier_uniform((dim, dim), self.rng))
            for _ in range(n_layers)
        ]
        self.w_affinity = [
            Parameter(init.xavier_uniform((dim, dim), self.rng))
            for _ in range(n_layers)
        ]
        self._norm_rows, self._norm_cols, self._norm_vals = normalized_bipartite(dataset)

    # ------------------------------------------------------------------
    def _propagate(self) -> Tensor:
        """All-layer concatenated embeddings: (n_users+n_items, (L+1)d)."""
        users = self.user_embedding.weight
        items = self.item_embedding.weight
        user_out: List[Tensor] = [users]
        item_out: List[Tensor] = [items]
        rows, cols, norm = self._norm_rows, self._norm_cols, self._norm_vals[:, None]
        for layer in range(self.n_layers):
            u_cur, i_cur = user_out[-1], item_out[-1]
            msg_items = ops.mul(ops.gather_rows(i_cur, cols), norm)
            msg_users = ops.mul(ops.gather_rows(u_cur, rows), norm)
            sum_to_users = ops.scatter_rows(msg_items, rows, self.dataset.n_users)
            sum_to_items = ops.scatter_rows(msg_users, cols, self.dataset.n_items)
            aff_items = ops.mul(msg_items, ops.gather_rows(u_cur, rows))
            aff_users = ops.mul(msg_users, ops.gather_rows(i_cur, cols))
            aff_to_users = ops.scatter_rows(aff_items, rows, self.dataset.n_users)
            aff_to_items = ops.scatter_rows(aff_users, cols, self.dataset.n_items)
            new_users = ops.leaky_relu(
                ops.add(
                    ops.matmul(ops.add(u_cur, sum_to_users), self.w_sum[layer]),
                    ops.matmul(aff_to_users, self.w_affinity[layer]),
                )
            )
            new_items = ops.leaky_relu(
                ops.add(
                    ops.matmul(ops.add(i_cur, sum_to_items), self.w_sum[layer]),
                    ops.matmul(aff_to_items, self.w_affinity[layer]),
                )
            )
            user_out.append(new_users)
            item_out.append(new_items)
        users_final = ops.concat(user_out, axis=-1)
        items_final = ops.concat(item_out, axis=-1)
        return ops.concat([users_final, items_final], axis=0)
