"""Fixed-size neighbor sampling and multi-hop node flows (Alg. 1).

The paper's ``Sample_neighbor`` draws a fixed number of neighbors per node
(with replacement when the true neighborhood is smaller) so that batched
propagation has a rectangular shape.  Like the official KGCN-family
implementations, we materialize padded *adjacency tables* once per sampler
(``(n_nodes, K)`` arrays) and re-draw them on demand (per epoch) — node-flow
construction is then pure numpy indexing, which keeps the engine fast.
A redraw is a few batched rng calls over CSR adjacencies
(:func:`_sample_table_csr`); :func:`_build_table` is the per-node loop
that only KGAT's unified graph is sampled with.

Nodes with no neighbors are padded with themselves and masked out; the
attention layers use :func:`~repro.autograd.ops.masked_softmax`, so padded
slots receive exactly zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.interactions import InteractionGraph
from repro.graph.knowledge_graph import KnowledgeGraph


@dataclass
class SampledNeighbors:
    """Fixed-size neighborhood of a batch of nodes.

    Attributes
    ----------
    indices:
        ``(batch, K)`` neighbor ids (padded entries hold the center node
        or 0 and must be ignored via ``mask``).
    relations:
        ``(batch, K)`` relation ids, or ``None`` for bipartite neighborhoods
        where the only relation is ``r*``.
    mask:
        ``(batch, K)`` booleans; False marks padding.
    """

    indices: np.ndarray
    mask: np.ndarray
    relations: Optional[np.ndarray] = None


@dataclass
class NodeFlow:
    """Multi-hop KG sub-graph rooted at a batch of items (Alg. 1).

    ``entities[0]`` has shape ``(batch, 1)`` and holds the root items;
    ``entities[l]`` has shape ``(batch, K**l)``. ``relations[l]`` /
    ``masks[l]`` (same shape, ``l >= 1``) give the relation connecting each
    node to its parent ``entities[l-1][:, j // K]`` and its validity.
    """

    entities: List[np.ndarray] = field(default_factory=list)
    relations: List[np.ndarray] = field(default_factory=list)
    masks: List[np.ndarray] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.entities) - 1


def _build_table(adjacency_of, n_nodes: int, size: int, rng: np.random.Generator):
    """Sample a ``(n_nodes, size)`` neighbor table with replacement, one
    node at a time.

    Only KGAT samples with this loop (its unified graph); every other
    sampler runs :func:`_sample_table_csr`.  It stays because KGAT's rng
    draw order pins its trained parameters and the CI-gated
    ``topk/movie/KGAT/obj-*/recall@20`` numbers: switching KGAT to the CSR
    draws moved movie@0 recall@20 from 0.3217 to 0.3033 (ce) and 0.2971
    (bpr), outside the gate's 0.016.
    """
    neighbor_table = np.zeros((n_nodes, size), dtype=np.int64)
    relation_table = np.zeros((n_nodes, size), dtype=np.int64)
    has_neighbors = np.zeros(n_nodes, dtype=bool)
    for node in range(n_nodes):
        neighbors = adjacency_of(node)
        if not neighbors:
            # Padding id 0 is always in range for the *target* id space
            # (which may differ from the node's own space, e.g. an item's
            # user-neighborhood); the mask guarantees it is never used.
            continue
        has_neighbors[node] = True
        n = len(neighbors)
        chosen = rng.choice(n, size=size, replace=n < size)
        for slot, k in enumerate(chosen):
            rel, other = neighbors[k]
            neighbor_table[node, slot] = other
            relation_table[node, slot] = rel
    return neighbor_table, relation_table, has_neighbors


@dataclass
class _CSRAdjacency:
    """Flat adjacency in CSR form, built once per sampler.

    Node ``v``'s edges live at ``values[offsets[v]:offsets[v+1]]`` (targets)
    and ``relations[...]`` (edge labels, all zero for bipartite
    interaction adjacencies).
    """

    offsets: np.ndarray  # (n_nodes + 1,) int64
    values: np.ndarray  # (nnz,) int64
    relations: np.ndarray  # (nnz,) int64

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def _csr_from_pairs(sources: np.ndarray, targets: np.ndarray, n_nodes: int,
                    relations: Optional[np.ndarray] = None) -> _CSRAdjacency:
    """Group ``(source, target[, relation])`` edge lists by source."""
    sources = np.asarray(sources, dtype=np.int64)
    order = np.argsort(sources, kind="stable")
    counts = np.bincount(sources, minlength=n_nodes)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    values = np.asarray(targets, dtype=np.int64)[order]
    rels = (
        np.zeros(len(values), dtype=np.int64)
        if relations is None
        else np.asarray(relations, dtype=np.int64)[order]
    )
    return _CSRAdjacency(offsets=offsets, values=values, relations=rels)


def _sample_table_csr(
    csr: _CSRAdjacency,
    size: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
):
    """Sample a ``(n_nodes, size)`` neighbor table over a CSR adjacency.

    Nodes with at least ``size`` (selectable) neighbors are sampled
    without replacement via random sort keys (exponential keys over the
    weights — Efraimidis & Spirakis — when ``weights`` is given); smaller
    neighborhoods are filled with replacement from batched inverse-CDF
    draws.  Everything is batched ``rng`` draws plus fancy indexing — no
    per-node Python loop.
    """
    n_nodes = len(csr.offsets) - 1
    counts = csr.counts
    has = counts > 0
    neighbor_table = np.zeros((n_nodes, size), dtype=np.int64)
    relation_table = np.zeros((n_nodes, size), dtype=np.int64)
    if not has.any():
        return neighbor_table, relation_table, has

    lo = csr.offsets[:-1]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        cum0 = np.concatenate([[0.0], np.cumsum(weights)])
        totals = cum0[csr.offsets[1:]] - cum0[lo]
        support = np.add.reduceat(
            (weights > 0).astype(np.int64),
            np.minimum(lo, len(weights) - 1),
        ) * has
        # Nodes whose weights sum to zero fall back to uniform draws.
        uniform_rows = has & (totals <= 0)
        weighted = has & ~uniform_rows
        exact = weighted & (support >= size)
        replace_w = weighted & ~exact
    else:
        uniform_rows = has
        exact = np.zeros(n_nodes, dtype=bool)
        replace_w = np.zeros(n_nodes, dtype=bool)

    def fill(rows: np.ndarray, positions: np.ndarray) -> None:
        neighbor_table[rows] = csr.values[positions]
        relation_table[rows] = csr.relations[positions]

    # Uniform nodes: without replacement when the neighborhood is large
    # enough, otherwise batched with-replacement draws.
    large = np.flatnonzero(uniform_rows & (counts >= size))
    small = np.flatnonzero(uniform_rows & (counts < size))
    if small.size:
        draws = (rng.random((small.size, size)) * counts[small, None]).astype(np.int64)
        np.minimum(draws, counts[small, None] - 1, out=draws)
        fill(small, lo[small, None] + draws)
    if large.size:
        width = int(counts[large].max())
        keys = rng.random((large.size, width))
        keys[np.arange(width)[None, :] >= counts[large, None]] = np.inf
        chosen = np.argpartition(keys, size - 1, axis=1)[:, :size]
        fill(large, lo[large, None] + chosen)

    # Weighted nodes with enough non-zero-weight neighbors: smallest
    # exponential/weight keys == weighted sampling without replacement.
    exact_rows = np.flatnonzero(exact)
    if exact_rows.size:
        width = int(counts[exact_rows].max())
        cols = np.arange(width)[None, :]
        valid = cols < counts[exact_rows, None]
        w = np.zeros((exact_rows.size, width))
        w[valid] = weights[(lo[exact_rows, None] + np.minimum(cols, counts[exact_rows, None] - 1))[valid]]
        keys = np.full((exact_rows.size, width), np.inf)
        positive = valid & (w > 0)
        keys[positive] = rng.standard_exponential(positive.sum()) / w[positive]
        chosen = np.argpartition(keys, size - 1, axis=1)[:, :size]
        fill(exact_rows, lo[exact_rows, None] + chosen)

    # Weighted nodes with fewer selectable neighbors than slots: draw
    # with replacement by inverse CDF over the per-node weight segment.
    replace_rows = np.flatnonzero(replace_w)
    if replace_rows.size:
        base = cum0[lo[replace_rows]]
        targets = base[:, None] + rng.random((replace_rows.size, size)) * totals[replace_rows, None]
        positions = np.searchsorted(cum0, targets, side="right") - 1
        np.clip(
            positions,
            lo[replace_rows, None],
            csr.offsets[1:][replace_rows, None] - 1,
            out=positions,
        )
        fill(replace_rows, positions)

    return neighbor_table, relation_table, has


class NeighborSampler:
    """Samples ``S(u)``, ``S_UI(i)`` and KG node flows for CG-KGR.

    Parameters
    ----------
    kg:
        Knowledge graph (items aligned to entities ``0..n_items-1``).
    interactions:
        *Training* interactions only — evaluation pairs must never leak
        into the sampled neighborhoods.
    user_sample_size, item_sample_size, kg_sample_size:
        ``|S(u)|``, ``|S_UI(i)|`` and ``|S_KG(e)|`` of Table III.
    rng:
        Source of sampling randomness.
    kg_strategy:
        ``"uniform"`` (the paper) or ``"degree"``: bias KG draws toward
        well-connected neighbors (the future-work non-uniform sampler of
        Sec. VI).

    Tables are redrawn as batched draws over CSR adjacencies built once
    here (:func:`_sample_table_csr`).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        interactions: InteractionGraph,
        user_sample_size: int,
        item_sample_size: int,
        kg_sample_size: int,
        rng: np.random.Generator,
        kg_strategy: str = "uniform",
    ):
        if min(user_sample_size, item_sample_size, kg_sample_size) < 1:
            raise ValueError("sample sizes must be >= 1")
        if kg_strategy not in ("uniform", "degree"):
            raise ValueError(f"unknown kg sampling strategy {kg_strategy!r}")
        self.kg = kg
        self.interactions = interactions
        self.user_sample_size = int(user_sample_size)
        self.item_sample_size = int(item_sample_size)
        self.kg_sample_size = int(kg_sample_size)
        self.kg_strategy = kg_strategy
        self._rng = rng
        # CSR adjacencies are structural: built once, reused every epoch.
        self._user_csr = _csr_from_pairs(
            interactions.users, interactions.items, interactions.n_users
        )
        self._item_csr = _csr_from_pairs(
            interactions.items, interactions.users, interactions.n_items
        )
        heads, rels, tails = (kg.triples[:, i] for i in range(3))
        self._kg_csr = _csr_from_pairs(
            np.concatenate([heads, tails]),
            np.concatenate([tails, heads]),
            kg.n_entities,
            relations=np.concatenate([rels, rels]),
        )
        if kg_strategy == "degree":
            # Per-edge weight = degree of the edge's far endpoint.
            self._kg_weights = self._kg_csr.counts[self._kg_csr.values].astype(
                np.float64
            )
        else:
            self._kg_weights = None
        self.resample()

    # ------------------------------------------------------------------
    def resample(self) -> None:
        """Redraw all adjacency tables (call once per epoch for fresh
        fixed-size random samples, matching the paper's per-iteration
        ``Sample_neighbor``)."""
        self._user_items, _, self._user_has = _sample_table_csr(
            self._user_csr, self.user_sample_size, self._rng
        )
        self._item_users, _, self._item_has = _sample_table_csr(
            self._item_csr, self.item_sample_size, self._rng
        )
        self._kg_neighbors, self._kg_relations, self._kg_has = _sample_table_csr(
            self._kg_csr, self.kg_sample_size, self._rng, weights=self._kg_weights
        )

    # ------------------------------------------------------------------
    def user_neighborhood(self, users: Sequence[int]) -> SampledNeighbors:
        """``S(u)`` for a batch of users: their interacted items."""
        u = np.asarray(users, dtype=np.int64)
        indices = self._user_items[u]
        mask = np.repeat(self._user_has[u][:, None], self.user_sample_size, axis=1)
        return SampledNeighbors(indices=indices, mask=mask)

    def item_neighborhood(self, items: Sequence[int]) -> SampledNeighbors:
        """``S_UI(i)`` for a batch of items: their interacting users."""
        i = np.asarray(items, dtype=np.int64)
        indices = self._item_users[i]
        mask = np.repeat(self._item_has[i][:, None], self.item_sample_size, axis=1)
        return SampledNeighbors(indices=indices, mask=mask)

    def kg_node_flow(
        self,
        items: Sequence[int],
        depth: int,
        no_traverse_back: bool = True,
    ) -> NodeFlow:
        """Multi-hop KG exploration rooted at ``items`` (Alg. 1 lines 18-23).

        With ``no_traverse_back`` (Sec. IV-H3) a sampled child equal to its
        grandparent is swapped for the next slot in the adjacency table
        when the parent has other neighbors.
        """
        roots = np.asarray(items, dtype=np.int64).reshape(-1, 1)
        flow = NodeFlow(entities=[roots], relations=[None], masks=[np.ones_like(roots, dtype=bool)])
        k = self.kg_sample_size
        for level in range(1, depth + 1):
            parents = flow.entities[level - 1]  # (B, k**(level-1))
            batch, width = parents.shape
            children = self._kg_neighbors[parents].reshape(batch, width * k)
            relations = self._kg_relations[parents].reshape(batch, width * k)
            parent_mask = flow.masks[level - 1]
            mask = (
                np.repeat(parent_mask, k, axis=1)
                & np.repeat(self._kg_has[parents], k, axis=1)
            )
            if no_traverse_back and level >= 2:
                grandparents = np.repeat(
                    flow.entities[level - 2], k * k, axis=1
                )
                collision = children == grandparents
                if collision.any():
                    slot = np.tile(np.arange(width * k) % k, (batch, 1))
                    alt_slot = (slot + 1) % k
                    parent_idx = np.repeat(parents, k, axis=1)
                    alternates = self._kg_neighbors[parent_idx, alt_slot]
                    usable = alternates != grandparents
                    swap = collision & usable
                    children = np.where(swap, alternates, children)
                    relations = np.where(
                        swap, self._kg_relations[parent_idx, alt_slot], relations
                    )
            flow.entities.append(children)
            flow.relations.append(relations)
            flow.masks.append(mask)
        return flow

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Snapshot of the current adjacency tables.

        Model training resamples tables every epoch; early stopping must
        restore the tables that produced the best validation score along
        with the weights, otherwise evaluation runs best-epoch weights on
        last-epoch neighborhoods.
        """
        return {
            "user_items": self._user_items.copy(),
            "user_has": self._user_has.copy(),
            "item_users": self._item_users.copy(),
            "item_has": self._item_has.copy(),
            "kg_neighbors": self._kg_neighbors.copy(),
            "kg_relations": self._kg_relations.copy(),
            "kg_has": self._kg_has.copy(),
        }

    def load_state(self, state: dict) -> None:
        """Restore tables captured by :meth:`state`."""
        self._user_items = state["user_items"].copy()
        self._user_has = state["user_has"].copy()
        self._item_users = state["item_users"].copy()
        self._item_has = state["item_has"].copy()
        self._kg_neighbors = state["kg_neighbors"].copy()
        self._kg_relations = state["kg_relations"].copy()
        self._kg_has = state["kg_has"].copy()
