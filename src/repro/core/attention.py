"""Attention mechanisms of CG-KGR.

Two mechanisms, both multi-head (H heads averaged, Eq. 4):

* **Collaboration attention** (Eq. 1-2) over user-item neighborhoods:
  ``π(u, i) = v_u^T M_{r*} v_i`` with one ``M_{r*}^h`` per head; the same
  matrix is shared between the user-centric and item-centric directions
  (Sec. III-A3).

* **Knowledge-aware attention with collaborative guidance** (Eq. 13-15,
  19): ``ω = v_h^T (f ⊙ M_r) v_t`` where the guidance signal ``f``
  (``R^d``) gates the rows of the relation matrix ``M_r``; the fused
  :func:`_guided_relation_scores` op computes it (see its docstring) from
  the user-independent projections ``M_r v_t`` of
  :func:`tail_projections` / :func:`edge_rows`.

Each class splits into ``weights`` (scores → masked softmax → head mean)
and ``forward`` (the weighted neighborhood sum), so the weights a model
trains with are the ones observers and ``explain()`` report.  Masked
slots (padded neighbors) receive exactly zero weight via
:func:`~repro.autograd.ops.masked_softmax`; the w/o ATT ablation passes
:func:`_uniform_weights` to ``forward`` instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import init, ops
from repro.autograd.nn import Module, Parameter
from repro.autograd.tensor import Tensor, differentiable


def _uniform_weights(mask: np.ndarray) -> np.ndarray:
    """Mask-normalized uniform weights along the last axis."""
    m = mask.astype(np.float64)
    counts = m.sum(axis=-1, keepdims=True)
    return m / np.where(counts > 0, counts, 1.0)


def tail_projections(relation_matrices: Tensor, entity_table: Tensor) -> np.ndarray:
    """``pt[n, r, (h, p)] = (M_r^h v_n)_p`` for every (entity, relation) pair.

    One ``(N, d) x (d, R·H·d)`` GEMM over the entity table; with the small
    tables this repo trains it is cheaper than touching the (B·W·K) edges
    per relation.  The result depends only on the weights, so a forward
    computes it once and every hop reads its rows (:func:`edge_rows`).
    """
    n_relations, n_heads, dim, _ = relation_matrices.shape
    w_flat = relation_matrices.data.transpose(3, 0, 1, 2).reshape(
        dim, n_relations * n_heads * dim
    )
    return (entity_table.data @ w_flat).reshape(
        entity_table.shape[0], n_relations, n_heads * dim
    )


def edge_rows(
    pt: np.ndarray, entities: np.ndarray, relations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(comp, rows)`` of a hop's child edges: the composite (tail,
    relation) id of each edge and its :func:`tail_projections` row."""
    comp = entities.reshape(-1) * pt.shape[1] + relations.reshape(-1)
    return comp, pt.reshape(-1, pt.shape[2])[comp]


@differentiable(name="relation_scores")
def _guided_relation_scores(
    head_source: Tensor,
    guidance: Optional[Tensor],
    relation_matrices: Tensor,
    entity_table: Tensor,
    comp: np.ndarray,
    rows: np.ndarray,
    group_size: int,
) -> Tensor:
    """Fused ``ω[b,h,w,k] = Σ_pq (f_b ⊙ v_{head_{bw}})_p M^h_{r}[p,q] v_{t,q}``.

    ``f`` (``guidance``; ``None`` = the all-one gate of the w/o CG ablation)
    gates the rows of ``M_r``, so ``ω = Σ_p (f_p v_{h,p}) (M_r v_t)_p``.
    The gate and the score contraction run on the (B·W) *parents* instead
    of the (B·W·K) edges (each parent's gated vector is shared by its K
    children).  ``comp`` and ``rows`` are the (B·W·K) child edges of
    :func:`edge_rows`, parent-major: the per-(tail, relation) projections
    ``M_r^h v_t`` depend only on the items and the weights, so the caller
    gathers them once and any number of users' guidance reads them.  The
    adjoint ``d_pt[(n, r), h] = Σ_{edges on (n, r)} g[edge, h] ·
    gated[parent]`` is one :func:`~repro.autograd.ops.segment_sum` keyed by
    ``comp`` — built inside the backward, so the forward stays a plain
    matvec — and finishes with two table-sized GEMMs.
    """
    batch, width, dim = head_source.shape
    n_relations, n_heads, _, _ = relation_matrices.shape
    n_parents = batch * width
    n_entities = entity_table.shape[0]
    cols = n_heads * dim
    m_data = relation_matrices.data
    gathered = rows.reshape(n_parents, group_size * n_heads, dim)

    if guidance is None:
        gated = np.ascontiguousarray(head_source.data.reshape(n_parents, dim))
    else:
        gated = (head_source.data * guidance.data[:, None, :]).reshape(
            n_parents, dim
        )
    raw = np.matmul(gathered, gated[:, :, None])[..., 0]  # (B·W, K·H)
    out = np.ascontiguousarray(
        raw.reshape(batch, width, group_size, n_heads).transpose(0, 3, 1, 2)
    )  # (B, H, W, K)

    # The adjoints share g-derived intermediates; memoize per seed gradient
    # object since backward calls each parent's fn separately.
    memo = {}

    def shared(g):
        if memo.get("key") != id(g):
            g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(
                n_parents, group_size * n_heads
            )
            memo["key"] = id(g)
            memo["g2"] = g2
            # d_gated[x] = Σ_(k,h) g2[x,(k,h)] · pt_row[x,(k,h)]
            memo["d_gated"] = np.matmul(g2[:, None, :], gathered)[:, 0, :]
        return memo

    def backward_head(g):
        d_gated = shared(g)["d_gated"]
        if guidance is None:
            return d_gated.reshape(batch, width, dim)
        return d_gated.reshape(batch, width, dim) * guidance.data[:, None, :]

    def backward_guidance(g):
        d_gated = shared(g)["d_gated"]
        return (
            d_gated.reshape(batch, width, dim) * head_source.data
        ).sum(axis=1)

    def d_pt(g):
        mem = shared(g)
        if "d_pt" not in mem:
            # Edge j = parent·K + k reads its parent's gated vector.
            per_head = ops.segment_sum(
                comp, n_entities * n_relations, gated,
                cols=np.arange(comp.size) // group_size,
                weights=mem["g2"].reshape(comp.size, n_heads),
            )  # (H, N·R, d)
            mem["d_pt"] = (
                per_head.reshape(n_heads, n_entities, n_relations, dim)
                .transpose(1, 2, 0, 3)
                .reshape(n_entities, n_relations * cols)
            )
        return mem["d_pt"]

    def backward_relations(g):
        # d_M[r,h,p,q] = Σ_n d_pt[n,(r,h,p)] v_{n,q}
        grad = d_pt(g).T @ entity_table.data
        return grad.reshape(n_relations, n_heads, dim, dim)

    def backward_entity(g):
        # d_v[n,q] = Σ_(r,h,p) d_pt[n,(r,h,p)] M[r,h,p,q]
        return d_pt(g) @ m_data.reshape(n_relations * cols, dim)

    parents = [head_source]
    backwards = [backward_head]
    if guidance is not None:
        parents.append(guidance)
        backwards.append(backward_guidance)
    parents += [relation_matrices, entity_table]
    backwards += [backward_relations, backward_entity]
    return Tensor._make(out, tuple(parents), tuple(backwards), "relation_scores")


@differentiable(name="collab_scores")
def _collab_scores(center: Tensor, relation_matrix: Tensor, neighbors: Tensor) -> Tensor:
    """Fused ``π[b,h,k] = Σ_de center[b,d] M^h[d,e] neighbors[b,k,e]``.

    Equivalent to ``einsum("bd,hde,bke->bhk", ...)`` but runs as two plain
    GEMMs per direction (center·M, then a batched contraction against the
    neighbors), skipping the generic einsum dispatch on the epoch hot path.
    """
    batch, dim = center.shape
    n_heads = relation_matrix.shape[0]
    m_data = relation_matrix.data
    m_flat = m_data.transpose(1, 0, 2).reshape(dim, n_heads * dim)
    t1 = (center.data @ m_flat).reshape(batch, n_heads, dim)  # (B, H, e)
    nb = neighbors.data
    out = np.matmul(t1, nb.transpose(0, 2, 1))  # (B, H, K)

    memo = {}

    def d_t1(g):
        if memo.get("key") != id(g):
            memo["key"] = id(g)
            memo["d_t1"] = np.matmul(g, nb)  # (B, H, e)
        return memo["d_t1"]

    def backward_center(g):
        return d_t1(g).reshape(batch, n_heads * dim) @ m_flat.T

    def backward_matrix(g):
        grad = center.data.T @ d_t1(g).reshape(batch, n_heads * dim)
        return grad.reshape(dim, n_heads, dim).transpose(1, 0, 2)

    def backward_neighbors(g):
        return np.matmul(g.transpose(0, 2, 1), t1)  # (B, K, e)

    return Tensor._make(
        out,
        (center, relation_matrix, neighbors),
        (backward_center, backward_matrix, backward_neighbors),
        "collab_scores",
    )


class CollaborationAttention(Module):
    """Multi-head collaboration attention over interaction neighborhoods."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        self.dim = dim
        self.n_heads = n_heads
        # One M_{r*} per head: (H, d, d).
        self.relation_matrix = Parameter(init.xavier_uniform((n_heads, dim, dim), rng))

    def weights(self, center: Tensor, neighbors: Tensor, mask: np.ndarray) -> Tensor:
        """Head-averaged normalized ``π̂`` (Eq. 1-2, 4): (B, K).

        ``center`` is the (B, d) attending node, ``neighbors`` its (B, K, d)
        sampled neighbors and ``mask`` their (B, K) validity; padded slots
        get zero weight.
        """
        raw = _collab_scores(center, self.relation_matrix, neighbors)  # (B, H, K)
        weights = ops.masked_softmax(raw, mask[:, None, :], axis=-1)
        # The neighbor values are head-independent, so averaging the H
        # per-head summaries (Eq. 4) equals contracting with the
        # head-averaged weights — and never materializes (B, H, d).
        return ops.mean(weights, axis=1)

    def forward(self, weights: Tensor, neighbors: Tensor) -> Tensor:
        """Neighborhood summary ``v_S`` (Eq. 3-5): (B, d) from (B, K)
        ``weights`` and (B, K, d) ``neighbors``."""
        return ops.einsum("bk,bke->be", weights, neighbors)


class KnowledgeAwareAttention(Module):
    """Knowledge-aware attention with collaborative guidance (Eq. 13-19)."""

    def __init__(self, dim: int, n_heads: int, n_relations: int, rng: np.random.Generator):
        self.dim = dim
        self.n_heads = n_heads
        self.n_relations = n_relations
        # M_r per relation and head: (R, H, d, d).
        self.relation_matrices = Parameter(
            init.xavier_uniform((n_relations, n_heads, dim, dim), rng)
        )

    def weights(
        self,
        head_source: Tensor,
        guidance: Optional[Tensor],
        entity_table: Tensor,
        edges: Tuple[np.ndarray, np.ndarray],
        mask: np.ndarray,
        group_size: int,
    ) -> Tensor:
        """Head-averaged normalized ``ω̂`` (Eq. 13-15, 19): (B, W, K).

        ``head_source`` holds the (B, W, d) parent heads; ``edges`` is the
        :func:`edge_rows` ``(comp, rows)`` of the (B, W*K) child edges and
        ``mask`` their validity, grouped into W parents of ``group_size``
        children each — softmax normalizes within a group.  ``guidance`` is the (B, d)
        signal ``f(v_u, v_i)``, or ``None`` for the w/o CG ablation
        (all-one gate).
        """
        batch, width, _ = head_source.shape
        raw = _guided_relation_scores(
            head_source,
            guidance,
            self.relation_matrices,
            entity_table,
            *edges,
            group_size,
        )  # (B, H, W, K)
        grouped_mask = mask.reshape(batch, width, group_size)
        weights = ops.masked_softmax(raw, grouped_mask[:, None, :, :], axis=-1)
        # Head-mean before the value contraction (values are shared across
        # heads — see CollaborationAttention.weights).
        return ops.mean(weights, axis=1)

    def forward(self, weights: Tensor, child_values: Tensor) -> Tensor:
        """Per-parent neighborhood summaries (Eq. 16/18): (B, W, d).

        ``child_values`` are the *updated* (B, W*K, d) child embeddings
        from the deeper hop (Alg. 1's cascade), weighted by the (B, W, K)
        ``weights``.
        """
        batch, width, group_size = weights.shape
        values = ops.reshape(
            child_values, (batch, width, group_size, child_values.shape[-1])
        )
        return ops.einsum("bwk,bwkd->bwd", weights, values)
