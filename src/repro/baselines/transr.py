"""The TransR knowledge-graph term shared by the regularization-based
baselines :class:`~repro.baselines.cke.CKE` and
:class:`~repro.baselines.kgat.KGAT`.

Each triple ``(h, r, t)`` scores ``‖M_r h + r − M_r t‖²`` (lower = more
plausible), and the loss prefers true triples over tail-corrupted ones.
The caller hands in its own tables, so CKE runs it on its entity table
and KGAT on its unified user-item-entity node table.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.nn import Embedding
from repro.autograd.tensor import Tensor


def transr_distance(
    entity: Embedding,
    relation: Embedding,
    projection: Tensor,
    heads: np.ndarray,
    relations: np.ndarray,
    tails: np.ndarray,
) -> Tensor:
    """``‖M_r h + r − M_r t‖²`` per triple."""
    h = entity(heads)
    t = entity(tails)
    r = relation(relations)
    projections = ops.index_select(projection, relations)  # (B, d, d)
    h_proj = ops.einsum("bpq,bq->bp", projections, h)
    t_proj = ops.einsum("bpq,bq->bp", projections, t)
    diff = ops.sub(ops.add(h_proj, r), t_proj)
    return ops.sum(ops.mul(diff, diff), axis=-1)


def transr_kg_loss(
    entity: Embedding,
    relation: Embedding,
    projection: Tensor,
    triples: np.ndarray,
    n_corrupt: int,
    batch_size: int,
    rng: np.random.Generator,
) -> Tensor:
    """BPR loss ``−log σ(d(h, r, t') − d(h, r, t))`` on one random batch
    of ``triples``, each tail ``t'`` drawn uniformly from ``[0, n_corrupt)``."""
    if len(triples) == 0:
        return Tensor(0.0)
    idx = rng.integers(0, len(triples), size=min(batch_size, len(triples)))
    batch = triples[idx]
    corrupt = rng.integers(0, n_corrupt, size=len(batch))
    pos = transr_distance(entity, relation, projection, batch[:, 0], batch[:, 1], batch[:, 2])
    neg = transr_distance(entity, relation, projection, batch[:, 0], batch[:, 1], corrupt)
    return ops.neg(ops.mean(ops.log_sigmoid(ops.sub(neg, pos))))
