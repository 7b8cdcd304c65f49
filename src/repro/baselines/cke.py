"""CKE — Collaborative Knowledge-base Embedding (Zhang et al., KDD 2016).

Regularization-based: matrix factorization where the item latent vector is
the sum of a free CF embedding and the item's structural knowledge
embedding, learned jointly with a TransR objective over KG triples.  The
CF part uses BPR; the KG part scores ``‖M_r h + r - M_r t‖²`` and prefers
true triples over tail-corrupted ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd import init, ops
from repro.autograd.nn import Embedding, Parameter
from repro.autograd.tensor import Tensor
from repro.baselines.base import Recommender
from repro.baselines.transr import transr_kg_loss
from repro.data.dataset import RecDataset


class CKE(Recommender):
    """MF + TransR knowledge embedding, jointly trained."""

    name = "CKE"

    def __init__(
        self,
        dataset: RecDataset,
        dim: int = 16,
        lr: float = 5e-3,
        l2: float = 1e-5,
        kg_weight: float = 0.5,
        kg_batch_size: int = 128,
        seed: int = 0,
    ):
        super().__init__(dataset, seed)
        self.dim = dim
        self.lr = lr
        self.l2 = l2
        self.kg_weight = kg_weight
        self.kg_batch_size = kg_batch_size
        self.user_embedding = Embedding(dataset.n_users, dim, self.rng)
        self.item_cf_embedding = Embedding(dataset.n_items, dim, self.rng)
        self.entity_embedding = Embedding(dataset.n_entities, dim, self.rng)
        self.relation_embedding = Embedding(dataset.n_relations, dim, self.rng)
        self.relation_projection = Parameter(
            init.xavier_uniform((dataset.n_relations, dim, dim), self.rng)
        )

    # ------------------------------------------------------------------
    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        v_u = self.user_embedding(users)
        # Item latent = CF embedding + structural knowledge embedding.
        v_i = ops.add(self.item_cf_embedding(items), self.entity_embedding(items))
        return ops.sum(ops.mul(v_u, v_i), axis=-1)

    # ------------------------------------------------------------------
    def kg_loss(self) -> Tensor:
        """TransR BPR loss on a random KG batch with corrupted tails."""
        return transr_kg_loss(
            self.entity_embedding,
            self.relation_embedding,
            self.relation_projection,
            self.dataset.kg.triples,
            self.dataset.n_entities,
            self.kg_batch_size,
            self.rng,
        )

    def loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        cf = self.bpr_loss(users, pos_items, neg_items)
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))

    def pairwise_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        # BPR + batch-row EmbLoss from the base, keeping the TransR term.
        cf = super().pairwise_loss(users, pos_items, neg_items)
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))
