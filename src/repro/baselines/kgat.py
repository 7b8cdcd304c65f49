"""KGAT — Knowledge Graph Attention Network (Wang et al., KDD 2019).

Regularization-based: users, items and entities live in one *unified
graph* (Sec. II); embeddings are refined by attentive propagation layers
whose edge weights come from a TransR-style score
``π(h, r, t) = (W_r e_t)^T tanh(W_r e_h + e_r)``, and training couples a
BPR CF loss with a TransR KG loss.

Faithfulness notes: the original propagates over the full adjacency; we
propagate over fixed-size sampled neighbor tables (resampled per epoch)
so the whole comparison shares one sampling substrate — on graphs this
size K covers most true neighborhoods.  The paper initializes KGAT from
pretrained BPRMF embeddings; :meth:`pretrain` reproduces that and the
benches call it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import init, ops
from repro.autograd.nn import Embedding, Parameter
from repro.autograd.tensor import Tensor
from repro.baselines.base import PropagatedRecommender
from repro.baselines.transr import transr_kg_loss
from repro.data.dataset import RecDataset
from repro.graph.sampling import _build_table
from repro.graph.unified import UnifiedGraph


class KGAT(PropagatedRecommender):
    """Attentive propagation on the unified user-item-entity graph."""

    name = "KGAT"

    def __init__(
        self,
        dataset: RecDataset,
        dim: int = 16,
        n_layers: int = 2,
        neighbor_size: int = 8,
        kg_weight: float = 0.5,
        kg_batch_size: int = 128,
        lr: float = 5e-3,
        l2: float = 1e-5,
        seed: int = 0,
    ):
        # Users sit past the entities in the unified node table.
        super().__init__(dataset, seed, user_offset=dataset.kg.n_entities, item_offset=0)
        self.dim = dim
        self.n_layers = n_layers
        self.neighbor_size = neighbor_size
        self.kg_weight = kg_weight
        self.kg_batch_size = kg_batch_size
        self.lr = lr
        self.l2 = l2

        self.unified = UnifiedGraph(dataset.kg, dataset.train)
        self.node_embedding = Embedding(self.unified.n_nodes, dim, self.rng)
        self.relation_embedding = Embedding(self.unified.n_relations, dim, self.rng)
        self.relation_projection = Parameter(
            init.xavier_uniform((self.unified.n_relations, dim, dim), self.rng)
        )
        # Bi-interaction aggregator weights per layer.
        self.w_sum = [
            Parameter(init.xavier_uniform((dim, dim), self.rng)) for _ in range(n_layers)
        ]
        self.w_mul = [
            Parameter(init.xavier_uniform((dim, dim), self.rng)) for _ in range(n_layers)
        ]

        self._sample_rng = np.random.default_rng(seed + 1)
        # Structural, so built once; each epoch only redraws the tables.
        self._adjacency = self.unified.adjacency()
        self._resample_adjacency()

    # ------------------------------------------------------------------
    def _resample_adjacency(self) -> None:
        self._neighbors, self._relations, self._has = _build_table(
            self._adjacency.__getitem__,
            self.unified.n_nodes,
            self.neighbor_size,
            self._sample_rng,
        )

    def begin_epoch(self, epoch: int) -> None:
        super().begin_epoch(epoch)
        self._resample_adjacency()

    def extra_state(self) -> dict:
        return {
            "neighbors": self._neighbors.copy(),
            "relations": self._relations.copy(),
            "has": self._has.copy(),
        }

    def load_extra_state(self, state: dict) -> None:
        super().load_extra_state(state)
        self._neighbors = state["neighbors"].copy()
        self._relations = state["relations"].copy()
        self._has = state["has"].copy()

    # ------------------------------------------------------------------
    def _propagate(self) -> Tensor:
        """All-node embeddings after attentive propagation: (N, (1+L)·d)."""
        current = self.node_embedding.weight  # (N, d)
        outputs: List[Tensor] = [current]
        neighbors = self._neighbors  # (N, K)
        relations = self._relations
        mask = np.repeat(self._has[:, None], self.neighbor_size, axis=1)
        for layer in range(self.n_layers):
            nb_vec = ops.gather_rows(current, neighbors)  # (N, K, d)
            rel_vec = self.relation_embedding(relations)
            projections = ops.index_select(self.relation_projection, relations)  # (N, K, d, d)
            h_proj = ops.einsum("nd,nkpd->nkp", current, projections)
            t_proj = ops.einsum("nkd,nkpd->nkp", nb_vec, projections)
            keys = ops.tanh(ops.add(h_proj, rel_vec))
            scores = ops.sum(ops.mul(t_proj, keys), axis=-1)  # (N, K)
            weights = ops.masked_softmax(scores, mask, axis=-1)
            summary = ops.einsum("nk,nkd->nd", weights, nb_vec)
            term_sum = ops.leaky_relu(ops.matmul(ops.add(current, summary), self.w_sum[layer]))
            term_mul = ops.leaky_relu(ops.matmul(ops.mul(current, summary), self.w_mul[layer]))
            current = ops.add(term_sum, term_mul)
            outputs.append(current)
        return ops.concat(outputs, axis=-1)

    # ------------------------------------------------------------------
    def kg_loss(self) -> Tensor:
        """TransR BPR loss over the unified graph's triples."""
        return transr_kg_loss(
            self.node_embedding,
            self.relation_embedding,
            self.relation_projection,
            self.unified.all_triples(),
            self.unified.n_nodes,
            self.kg_batch_size,
            self.rng,
        )

    def loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        cf = super().loss(users, pos_items, neg_items)
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))

    def pairwise_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        # KGAT's native CF loss is already BPR over propagated embeddings;
        # the objective axis only swaps optimizer weight decay for the
        # batch-row EmbLoss of the official implementation and keeps the
        # TransR KG term.
        users = np.asarray(users, dtype=np.int64)
        cf = ops.bpr_loss(*self._pos_neg_scores(users, pos_items, neg_items))
        if self.l2:
            rows = self.batch_embeddings(users, pos_items, neg_items)
            cf = ops.add(cf, ops.mul(ops.emb_loss(rows), self.l2))
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))

    def batch_embeddings(self, users, pos_items, neg_items):
        # Users and items share the unified node table; three blocks so
        # EmbLoss normalizes by the batch size, matching the official KGAT
        # recipe.
        users = np.asarray(users, dtype=np.int64) + self.user_offset
        return [
            self.node_embedding(users),
            self.node_embedding(np.asarray(pos_items, dtype=np.int64)),
            self.node_embedding(np.asarray(neg_items, dtype=np.int64)),
        ]

    # ------------------------------------------------------------------
    def pretrain(self, epochs: int = 20) -> None:
        """Initialize user/item rows from a quickly-trained BPRMF
        (Sec. IV-B: "we use pre-trained embeddings from BPRMF")."""
        from repro.baselines.bprmf import BPRMF
        from repro.training.trainer import Trainer, TrainerConfig

        mf = BPRMF(self.dataset, dim=self.dim, seed=self.seed)
        trainer = Trainer(mf, TrainerConfig(epochs=epochs, verbose=False, early_stop_patience=epochs))
        trainer.fit()
        weights = self.node_embedding.weight.data
        weights[: self.dataset.n_items] = mf.item_embedding.weight.data
        weights[self.user_offset :] = mf.user_embedding.weight.data
        self.drop_table()
