"""``ops.segment_sum``, the one scatter-add primitive behind the backward
scatters: exact against ``np.add.at`` for the embedding, index and
graph-convolution scatters, against the per-edge outer-product +
``bincount`` formulation for the guided-attention adjoint, and never on
the no-grad scoring path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad, ops
from repro.autograd.ops import _scatter_index, segment_sum
from repro.autograd.tensor import Tensor
from repro.core import CGKGR
from repro.core.attention import (
    _guided_relation_scores,
    edge_rows,
    tail_projections,
)
from repro.core.config import CGKGRConfig


def _add_at(shape, idx, g):
    ref = np.zeros(shape)
    np.add.at(ref, idx, g)
    return ref


# ----------------------------------------------------------------------
# gather_rows adjoint
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, idx",
    [
        (7, np.array([3, 3, 3, 0, 6, 3, 1])),  # repeated
        (7, np.array([-1, 2, -7, 6, -1])),  # negative, numpy-style
        (7, np.array([], dtype=np.int64)),  # empty
        (9, np.arange(24).reshape(2, 3, 4) % 9),  # 3-D index array
        (70_000, np.array([69_999, 5, 69_999, 65_535, 0, 5])),  # non-radix sort
        (5, np.array([4, 0, 4], dtype=np.uint32)),  # unsigned
    ],
)
def test_gather_rows_adjoint_matches_add_at(n, idx, rng):
    d = 3
    g = rng.normal(size=idx.shape + (d,))
    got = _scatter_index((n, d), idx, g)
    assert np.array_equal(got, _add_at((n, d), idx, g))


def test_gather_rows_backward_uses_segment_sum(rng):
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = np.array([[1, 5, 1], [0, 1, 5]])
    g = rng.normal(size=(2, 3, 4))
    ops.gather_rows(table, idx).backward(g)
    assert np.array_equal(table.grad, _add_at((6, 4), idx, g))


def test_weights_and_cols(rng):
    keys = np.array([2, 0, 2, 2, 1])
    cols = np.array([0, 3, 3, 1, 0])
    dense = rng.normal(size=(4, 5))
    weights = rng.normal(size=(5, 3))
    got = segment_sum(keys, 4, dense, cols=cols, weights=weights)
    ref = np.zeros((3, 4, 5))
    for h in range(3):
        np.add.at(ref[h], keys, weights[:, h, None] * dense[cols])
    assert got.shape == (3, 4, 5)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
    assert not got[:, 3].any()  # a key nothing hits sums to zero


# ----------------------------------------------------------------------
# index_select (tuple of int arrays) and scatter_rows
# ----------------------------------------------------------------------
def test_scatter_index_tuple_matches_add_at(rng):
    shape = (6, 4, 2, 3)
    rows = rng.integers(0, 6, size=(5, 7))
    rels = rng.integers(0, 4, size=(5, 7))
    rows[0, :] = 2  # every slot of one row on the same (row, rel)
    rels[0, :] = 1
    g = rng.normal(size=(5, 7, 2, 3))
    got = _scatter_index(shape, (rows, rels), g)
    assert np.array_equal(got, _add_at(shape, (rows, rels), g))


def test_scatter_index_single_array_matches_add_at(rng):
    idx = np.array([[4, 0], [4, -1]])
    g = rng.normal(size=(2, 2))
    assert np.array_equal(_scatter_index((5,), idx, g), _add_at((5,), idx, g))
    g3 = rng.normal(size=(2, 2, 3, 2))
    got = _scatter_index((5, 3, 2), idx, g3)
    assert np.array_equal(got, _add_at((5, 3, 2), idx, g3))


def test_scatter_index_generic_fallback(rng):
    shape = (5, 3)
    g = rng.normal(size=(3,))
    got = _scatter_index(shape, (slice(None, 3), 1), g)
    assert np.array_equal(got, _add_at(shape, (slice(None, 3), 1), g))


def test_scatter_rows_forward_matches_add_at(rng):
    values = rng.normal(size=(11, 4))
    idx = np.array([0, 3, 3, 9, 0, 0, 3, 1, 9, 9, 2])
    out = ops.scatter_rows(Tensor(values), idx, 10).numpy()
    assert np.array_equal(out, _add_at((10, 4), idx, values))


# ----------------------------------------------------------------------
# relation_scores adjoint
# ----------------------------------------------------------------------
def _outer_bincount_reference(head, guidance, matrices, table, entities,
                              relations, k, g):
    """The per-edge outer product + flattened ``bincount`` adjoint of
    ``_guided_relation_scores`` for its relation-matrix and entity-table
    gradients, kept as the reference the CSR adjoint must reproduce."""
    batch, width, dim = head.shape
    n_relations, n_heads = matrices.shape[:2]
    n_entities = table.shape[0]
    n_parents = batch * width
    cols = n_heads * dim
    comp = entities.reshape(-1) * n_relations + relations.reshape(-1)
    gated = (head * guidance[:, None, :]).reshape(n_parents, dim)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(
        n_parents, k * n_heads
    )
    outer = g2[:, :, None] * gated[:, None, :]
    idx = comp[:, None] * cols + np.arange(cols)
    d_pt = np.bincount(
        idx.ravel(), weights=outer.ravel(),
        minlength=n_entities * n_relations * cols,
    ).reshape(n_entities, n_relations * cols)
    d_m = (d_pt.T @ table).reshape(n_relations, n_heads, dim, dim)
    d_v = d_pt @ matrices.reshape(n_relations * cols, dim)
    return d_m, d_v


def _guided_grads(rng, batch, width, k, heads, dim, n_entities, n_relations,
                  mask=None):
    head = rng.normal(size=(batch, width, dim))
    guidance = rng.normal(size=(batch, dim))
    matrices = rng.normal(size=(n_relations, heads, dim, dim))
    table = rng.normal(size=(n_entities, dim))
    entities = rng.integers(0, n_entities, size=(batch, width * k))
    relations = rng.integers(0, n_relations, size=(batch, width * k))
    g = rng.normal(size=(batch, heads, width, k))
    if mask is not None:
        g = g * mask[:, None, :, :]
    m_t = Tensor(matrices, requires_grad=True)
    v_t = Tensor(table, requires_grad=True)
    out = _guided_relation_scores(
        Tensor(head, requires_grad=True), Tensor(guidance, requires_grad=True),
        m_t, v_t, *edge_rows(tail_projections(m_t, v_t), entities, relations), k,
    )
    out.backward(g)
    ref = _outer_bincount_reference(
        head, guidance, matrices, table, entities, relations, k, g
    )
    return (m_t.grad, v_t.grad), ref


def _assert_rel_close(got, ref):
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * scale


def test_guided_adjoint_matches_bincount_at_movie_hop2_sizes(rng):
    # B·W = 2048 parents, K = 8, H = 4, d = 16, 235 entities × 13 relations.
    got, ref = _guided_grads(rng, batch=256, width=8, k=8, heads=4, dim=16,
                             n_entities=235, n_relations=13)
    for a, b in zip(got, ref):
        _assert_rel_close(a, b)


def test_guided_adjoint_with_fully_masked_parent(rng):
    batch, width, k = 3, 4, 5
    mask = np.ones((batch, width, k))
    mask[0, 2] = 0.0  # a parent whose children are all masked
    mask[2, :, 1:] = 0.0
    got, ref = _guided_grads(rng, batch=batch, width=width, k=k, heads=2,
                             dim=6, n_entities=9, n_relations=3, mask=mask)
    for a, b in zip(got, ref):
        _assert_rel_close(a, b)


# ----------------------------------------------------------------------
# The structure is built in the backward only
# ----------------------------------------------------------------------
def test_no_grad_scoring_never_calls_segment_sum(tiny_dataset, monkeypatch):
    model = CGKGR(tiny_dataset, CGKGRConfig(dim=8, depth=2, n_heads=2,
                                            kg_sample_size=3), seed=0)
    users = tiny_dataset.train.users[:4]
    items = tiny_dataset.train.items[:4]
    negatives = (items + 1) % tiny_dataset.n_items
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return segment_sum(*args, **kwargs)

    # A training step does reach the patched name.
    monkeypatch.setattr(ops, "segment_sum", counting)
    model.training_loss(users, items, negatives).backward()
    assert calls

    def forbidden(*args, **kwargs):
        raise AssertionError("segment_sum called on the no-grad path")

    monkeypatch.setattr(ops, "segment_sum", forbidden)
    with no_grad():
        scores = model.score_all_items(int(users[0]))
    assert scores.shape == (tiny_dataset.n_items,)
    assert model.score_users(users).shape == (len(users), tiny_dataset.n_items)
