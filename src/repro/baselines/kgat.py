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

from typing import List, Sequence

import numpy as np

from repro.autograd import init, no_grad, ops
from repro.autograd.nn import Embedding, Parameter
from repro.autograd.tensor import Tensor
from repro.baselines.base import Recommender
from repro.baselines.transr import transr_kg_loss
from repro.data.dataset import RecDataset
from repro.graph.sampling import _build_table
from repro.graph.unified import UnifiedGraph


class KGAT(Recommender):
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
        super().__init__(dataset, seed)
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
        self._resample_adjacency()
        self._cached_embeddings: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _resample_adjacency(self) -> None:
        adjacency = self.unified.adjacency()
        self._neighbors, self._relations, self._has = _build_table(
            lambda n: adjacency[n], self.unified.n_nodes, self.neighbor_size, self._sample_rng
        )

    def begin_epoch(self, epoch: int) -> None:
        self._resample_adjacency()
        self._cached_embeddings = None

    def extra_state(self) -> dict:
        return {
            "neighbors": self._neighbors.copy(),
            "relations": self._relations.copy(),
            "has": self._has.copy(),
        }

    def load_extra_state(self, state: dict) -> None:
        self._neighbors = state["neighbors"].copy()
        self._relations = state["relations"].copy()
        self._has = state["has"].copy()
        self._cached_embeddings = None

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
    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        all_nodes = self._propagate()
        user_nodes = users + self.unified.n_entities
        v_u = ops.gather_rows(all_nodes, user_nodes)
        v_i = ops.gather_rows(all_nodes, items)
        return ops.sum(ops.mul(v_u, v_i), axis=-1)

    def predict(self, users, items, batch_size: int = 4096) -> np.ndarray:
        # One propagation pass serves the whole evaluation sweep.
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        with no_grad():
            if self._cached_embeddings is None:
                self._cached_embeddings = self._propagate().numpy()
        table = self._cached_embeddings
        v_u = table[users + self.unified.n_entities]
        v_i = table[items]
        return (v_u * v_i).sum(axis=-1)

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
        self._cached_embeddings = None  # parameters are about to change
        all_nodes = self._propagate()  # one propagation serves pos and neg
        v_u = ops.gather_rows(all_nodes, np.asarray(users) + self.unified.n_entities)
        pos = ops.sum(ops.mul(v_u, ops.gather_rows(all_nodes, pos_items)), axis=-1)
        neg = ops.sum(ops.mul(v_u, ops.gather_rows(all_nodes, neg_items)), axis=-1)
        cf = ops.neg(ops.mean(ops.log_sigmoid(ops.sub(pos, neg))))
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))

    def pairwise_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        # KGAT's native CF loss is already BPR over propagated embeddings;
        # the objective axis only swaps optimizer weight decay for the
        # batch-row EmbLoss of the official implementation and keeps the
        # TransR KG term.
        self._cached_embeddings = None  # parameters are about to change
        all_nodes = self._propagate()
        users = np.asarray(users, dtype=np.int64)
        v_u = ops.gather_rows(all_nodes, users + self.unified.n_entities)
        pos = ops.sum(ops.mul(v_u, ops.gather_rows(all_nodes, pos_items)), axis=-1)
        neg = ops.sum(ops.mul(v_u, ops.gather_rows(all_nodes, neg_items)), axis=-1)
        cf = ops.bpr_loss(pos, neg)
        if self.l2:
            rows = self.batch_embeddings(users, pos_items, neg_items)
            cf = ops.add(cf, ops.mul(ops.emb_loss(rows), self.l2))
        return ops.add(cf, ops.mul(self.kg_loss(), self.kg_weight))

    def batch_embeddings(self, users, pos_items, neg_items):
        # Users and items share the unified node table (users offset past
        # the entities); three blocks so EmbLoss normalizes by the batch
        # size, matching the official KGAT recipe.
        users = np.asarray(users, dtype=np.int64) + self.unified.n_entities
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
        weights[self.unified.n_entities :] = mf.user_embedding.weight.data
        self._cached_embeddings = None
