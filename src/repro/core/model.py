"""The CG-KGR model (Sec. III, Algorithm 1).

Forward pass for a batch of target pairs ``(u, i)``:

1. **Interactive information summarization** — multi-head collaboration
   attention over ``S(u)`` and ``S_UI(i)`` (Eq. 1-5), aggregated with
   ``g`` (Eq. 6) to produce ``v_u`` and ``v_i``.
2. **Guidance signal encoding** — ``f(v_u, v_i)`` (Eq. 10-12).
3. **Knowledge extraction with collaborative guidance** — a single sweep
   from hop L down to hop 1 over a sampled node flow; at each hop the
   guidance-gated knowledge-aware attention (Eq. 13-15, 19) weighs child
   entities and ``g`` folds the summary into the parent (Eq. 16-20).
   Hop 0 yields the knowledge-enriched item embedding ``v_i^u``.
4. **Prediction** — inner product ``ŷ = v_u^T v_i^u`` (Eq. 21).

Only ``f`` couples a user to an item, so the forward is split in two:
:meth:`CGKGR._item_side` (item summary, node flow, entity gathers, the
per-(tail, relation) projections) and :meth:`CGKGR._pair_side` (user
summary, guidance, the guided per-hop attention and aggregation, Eq. 21).
``score_pairs`` — and so training — runs both over its batch;
``score_users`` builds the item side once per item block and runs the
pair side per user.

Training uses pointwise sigmoid cross-entropy over positives and per-epoch
resampled negatives with L2 weight decay (Eq. 22, sign corrected; see
DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad, ops
from repro.autograd.nn import Embedding
from repro.autograd.tensor import Tensor
from repro.baselines import base
from repro.baselines.base import Recommender
from repro.core.aggregators import make_aggregator
from repro.core.attention import (
    CollaborationAttention,
    KnowledgeAwareAttention,
    _uniform_weights,
    edge_rows,
    tail_projections,
)
from repro.core.config import CGKGRConfig
from repro.core.encoders import make_encoder
from repro.data.dataset import RecDataset
from repro.graph.sampling import NeighborSampler, NodeFlow


@dataclass
class ItemSide:
    """The half of a forward that depends only on the items and the weights.

    Only the guidance ``f(v_u, v_i)`` couples a user to an item (Sec.
    III-B), so ranking a catalogue for many users builds this once per
    item block.  ``values[l]``, ``heads[l]`` and ``edges[l]`` are hop
    ``l``'s child values before aggregation (hop 0: ``v_i``), parent heads
    and :func:`~repro.core.attention.edge_rows`; all empty at depth 0,
    ``heads``/``edges`` also without attention.
    """

    items: np.ndarray
    v_item0: Tensor
    v_item: Tensor
    flow: Optional[NodeFlow] = None
    values: List[Tensor] = field(default_factory=list)
    heads: List[Optional[Tensor]] = field(default_factory=list)
    edges: List[Optional[Tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=list
    )


class CGKGR(Recommender):
    """Attentive knowledge-aware GCN with collaborative guidance."""

    name = "CG-KGR"

    def __init__(
        self,
        dataset: RecDataset,
        config: Optional[CGKGRConfig] = None,
        seed: int = 0,
    ):
        super().__init__(dataset, seed)
        self.config = config or CGKGRConfig()
        cfg = self.config
        self.l2 = cfg.l2
        self.lr = cfg.lr
        self.batch_size = cfg.batch_size

        self.user_embedding = Embedding(dataset.n_users, cfg.dim, self.rng)
        # Items are entities 0..n_items-1 (I ⊆ E): one shared table.
        self.entity_embedding = Embedding(dataset.n_entities, cfg.dim, self.rng)

        self.collab_attention = CollaborationAttention(cfg.dim, cfg.n_heads, self.rng)
        self.kg_attention = KnowledgeAwareAttention(
            cfg.dim, cfg.n_heads, dataset.n_relations, self.rng
        )
        self.encoder = make_encoder(cfg.encoder)
        self.user_aggregator = make_aggregator(cfg.aggregator, cfg.dim, self.rng, cfg.activation)
        self.item_aggregator = make_aggregator(cfg.aggregator, cfg.dim, self.rng, cfg.activation)
        self.kg_aggregator = make_aggregator(cfg.aggregator, cfg.dim, self.rng, cfg.activation)

        self.sampler = NeighborSampler(
            kg=dataset.kg,
            interactions=dataset.train,
            user_sample_size=cfg.user_sample_size,
            item_sample_size=cfg.item_sample_size,
            kg_sample_size=cfg.kg_sample_size,
            rng=np.random.default_rng(seed + 1),
            kg_strategy=cfg.kg_sampling,
        )

        #: Observers called with per-hop guidance-attention payloads
        #: (see :mod:`repro.obs.hooks`); empty list = zero overhead.
        self._attention_observers: List = []

    # ------------------------------------------------------------------
    # Observability hooks (repro.obs.hooks.capture_attention)
    # ------------------------------------------------------------------
    def add_attention_observer(self, observer) -> None:
        """Register ``observer(payload)`` for per-hop attention captures.

        While at least one observer is attached, every knowledge-extraction
        sweep emits, per hop, a payload with ``level``, ``items``,
        ``entities``, ``relations``, ``mask``, and ``weights`` (all numpy):
        the normalized attention that hop's forward computed.  Only emitted
        when ``config.use_attention`` is on.
        """
        self._attention_observers.append(observer)

    def remove_attention_observer(self, observer) -> None:
        self._attention_observers.remove(observer)

    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """Redraw fixed-size neighborhoods (Alg. 1 samples per iteration)."""
        if self.config.resample_each_epoch:
            self.sampler.resample()

    def extra_state(self) -> dict:
        return self.sampler.state()

    def load_extra_state(self, state: dict) -> None:
        self.sampler.load_state(state)

    def export_config(self) -> dict:
        from dataclasses import asdict

        return asdict(self.config)

    # ------------------------------------------------------------------
    # Interactive information summarization (Sec. III-A)
    # ------------------------------------------------------------------
    def _summarize_user(self, users: np.ndarray, v_user0: Tensor) -> Tensor:
        """``v_u = g(v_u, v_S(u))`` (Eq. 3-6)."""
        neighborhood = self.sampler.user_neighborhood(users)
        neighbor_items = self.entity_embedding(neighborhood.indices)
        weights = self._collab_weights(v_user0, neighbor_items, neighborhood.mask)
        summary = self.collab_attention(weights, neighbor_items)
        return self.user_aggregator(v_user0, summary)

    def _summarize_item(self, items: np.ndarray, v_item0: Tensor) -> Tensor:
        """``v_i = g(v_i, v_S_UI(i))`` (Eq. 5-6)."""
        neighborhood = self.sampler.item_neighborhood(items)
        neighbor_users = self.user_embedding(neighborhood.indices)
        weights = self._collab_weights(v_item0, neighbor_users, neighborhood.mask)
        summary = self.collab_attention(weights, neighbor_users)
        return self.item_aggregator(v_item0, summary)

    def _collab_weights(
        self, center: Tensor, neighbors: Tensor, mask: np.ndarray
    ) -> Tensor:
        """Eq. 1-2 weights, or uniform averaging for the w/o ATT ablation."""
        if self.config.use_attention:
            return self.collab_attention.weights(center, neighbors, mask)
        return Tensor(_uniform_weights(mask))

    def _item_side(self, items: np.ndarray) -> ItemSide:
        """Everything of the forward that depends only on ``items`` and the
        weights: the interactive item summary, the node flow, its entity
        gathers and each hop's attention heads and edge projections."""
        cfg = self.config
        v_item0 = self.entity_embedding(items)
        if cfg.use_interactive:
            v_item = self._summarize_item(items, v_item0)
        else:
            v_item = v_item0
        side = ItemSide(items=items, v_item0=v_item0, v_item=v_item)
        depth = cfg.effective_depth
        if depth == 0:
            return side
        batch = len(items)
        flow = self.sampler.kg_node_flow(items, depth, cfg.no_traverse_back)
        side.flow = flow
        # Hop 0 starts from the interactively enriched v_i (Table I:
        # "embeddings of item i with interactive information"), deeper
        # hops from the entity table.
        side.values = [ops.reshape(v_item, (batch, 1, cfg.dim))]
        for level in range(1, depth + 1):
            side.values.append(self.entity_embedding(flow.entities[level]))
        if cfg.use_attention:
            pt = tail_projections(
                self.kg_attention.relation_matrices, self.entity_embedding.weight
            )
            side.heads, side.edges = [None], [None]
            for level in range(1, depth + 1):
                # Attention heads: hop-0 uses v_i (Eq. 14), deeper hops the
                # original entity embeddings (Eq. 19).
                if level == 1:
                    head = ops.reshape(v_item, (batch, 1, cfg.dim))
                else:
                    head = self.entity_embedding(flow.entities[level - 1])
                side.heads.append(head)
                side.edges.append(
                    edge_rows(pt, flow.entities[level], flow.relations[level])
                )
        return side

    def _encode_user(
        self, users: np.ndarray, side: ItemSide
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """``(v_u, f)``: the interactive user summary (Sec. III-A) and the
        guidance signal (Eq. 10-12) of each pair over a built item side."""
        v_user0 = self.user_embedding(users)
        if self.config.use_interactive:
            v_user = self._summarize_user(users, v_user0)
        else:
            v_user = v_user0
        guidance = self._guidance_signal(v_user0, side.v_item0, v_user, side.v_item)
        return v_user, guidance

    def _pair_side(self, users: np.ndarray, side: ItemSide) -> Tensor:
        """``ŷ`` of each (user, item) pair over a built item side: user
        summary and guidance, guided knowledge extraction, and the Eq. 21
        inner product."""
        v_user, guidance = self._encode_user(users, side)
        v_item_final = self._extract_knowledge(side, guidance)
        return ops.sum(ops.mul(v_user, v_item_final), axis=-1)

    def _guidance_signal(
        self, v_user0: Tensor, v_item0: Tensor, v_user: Tensor, v_item: Tensor
    ) -> Optional[Tensor]:
        """Guidance ``f`` per the configured mode; ``None`` disables gating
        (the w/o CG ablation's all-one vector)."""
        cfg = self.config
        if not cfg.use_guidance:
            return None
        if not cfg.use_interactive or cfg.guidance_mode == "ne":
            return self.encoder(v_user0, v_item0)
        if cfg.guidance_mode == "pf":
            return self.encoder(v_user, v_item0)
        if cfg.guidance_mode == "ag":
            return self.encoder(v_user0, v_item)
        return self.encoder(v_user, v_item)

    # ------------------------------------------------------------------
    # Knowledge extraction with collaborative guidance (Sec. III-B)
    # ------------------------------------------------------------------
    def _extract_knowledge(
        self, side: ItemSide, guidance: Optional[Tensor]
    ) -> Tensor:
        """Single sweep hop L → 1 over a node flow (Alg. 1 lines 10-14)."""
        cfg = self.config
        if side.flow is None:
            return side.v_item
        flow = side.flow
        batch = len(side.items)
        k = cfg.kg_sample_size
        vectors = list(side.values)  # current values per hop
        for level in range(cfg.effective_depth, 0, -1):
            mask = flow.masks[level]
            if cfg.use_attention:
                weights = self.kg_attention.weights(
                    side.heads[level],
                    guidance,
                    self.entity_embedding.weight,
                    side.edges[level],
                    mask,
                    k,
                )
                if self._attention_observers:
                    payload = {
                        "level": level,
                        "items": side.items,
                        "entities": flow.entities[level],
                        "relations": flow.relations[level],
                        "mask": mask,
                        "weights": weights.numpy().reshape(mask.shape),
                    }
                    for observer in self._attention_observers:
                        observer(payload)
            else:
                weights = Tensor(_uniform_weights(mask.reshape(batch, -1, k)))
            summary = self.kg_attention(weights, vectors[level])
            vectors[level - 1] = self.kg_aggregator(vectors[level - 1], summary)

        return ops.reshape(vectors[0], (batch, cfg.dim))

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return self._pair_side(users, self._item_side(items))

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        """Each user against the full catalogue, building the item side
        once per item block and running only the pair side per user —
        the same forward, shapes and blocks as :meth:`score_all_items`."""
        users = np.asarray(users, dtype=np.int64)
        n_items = self.dataset.n_items
        out = np.empty((len(users), n_items), dtype=np.float64)
        with no_grad():
            for start in range(0, n_items, base.ITEM_BLOCK):
                items = np.arange(
                    start, min(start + base.ITEM_BLOCK, n_items), dtype=np.int64
                )
                side = self._item_side(items)
                stop = start + len(items)
                for row, user in enumerate(users):
                    pair_users = np.full(len(items), user, dtype=np.int64)
                    out[row, start:stop] = self._pair_side(pair_users, side).numpy()
        return out

    def predict(self, users, items, batch_size: int = 512) -> np.ndarray:
        # Smaller inference batches than the generic default: the node-flow
        # gather is O(batch · K^L · H · d) memory.
        return super().predict(users, items, batch_size=batch_size)

    # ------------------------------------------------------------------
    # Introspection (Fig. 5 case study)
    # ------------------------------------------------------------------
    def explain(self, user: int, item: int) -> Dict[str, np.ndarray]:
        """First-hop KG attention with and without collaborative guidance.

        Returns the sampled hop-1 entities/relations of ``item`` and the
        normalized attention each receives (a) under the full guidance
        signal of ``(user, item)`` and (b) with guidance disabled — the
        Fig. 5 visualization.  A w/o ATT model reports the uniform weights
        it applies in both columns; a model without KG extraction (depth 0
        or ``use_kg`` off) raises ``ValueError``.
        """
        cfg = self.config
        if cfg.effective_depth == 0:
            raise ValueError(
                f"{self.name} has no KG extraction (effective depth 0): "
                "there is no knowledge attention to explain"
            )
        users = np.asarray([user], dtype=np.int64)
        items = np.asarray([item], dtype=np.int64)
        with no_grad():
            side = self._item_side(items)
            flow = side.flow
            mask = flow.masks[1]
            if not cfg.use_attention:
                guided = unguided = _uniform_weights(mask)
            else:
                _, guidance = self._encode_user(users, side)
                guided, unguided = (
                    self.kg_attention.weights(
                        side.heads[1],
                        signal,
                        self.entity_embedding.weight,
                        side.edges[1],
                        mask,
                        cfg.kg_sample_size,
                    ).numpy().reshape(mask.shape)
                    for signal in (guidance, None)
                )
        return {
            "entities": flow.entities[1][0],
            "relations": flow.relations[1][0],
            "mask": mask[0],
            "guided_weights": guided[0],
            "unguided_weights": unguided[0],
        }
