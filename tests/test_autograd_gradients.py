"""Numerical gradient checks for every primitive and key composites.

These are the correctness backstop for the whole engine: if they pass,
the model code above can trust its gradients.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops


def t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBinaryGradients:
    def test_add(self, rng):
        assert gradcheck(ops.add, [t(rng, 3, 4), t(rng, 3, 4)])

    def test_add_broadcast(self, rng):
        assert gradcheck(ops.add, [t(rng, 3, 4), t(rng, 4)])

    def test_add_broadcast_keepdim(self, rng):
        assert gradcheck(ops.add, [t(rng, 3, 1), t(rng, 3, 4)])

    def test_sub(self, rng):
        assert gradcheck(ops.sub, [t(rng, 2, 3), t(rng, 2, 3)])

    def test_mul(self, rng):
        assert gradcheck(ops.mul, [t(rng, 2, 3), t(rng, 2, 3)])

    def test_mul_broadcast_scalar(self, rng):
        assert gradcheck(ops.mul, [t(rng, 2, 3), t(rng)])

    def test_div(self, rng):
        b = Tensor(np.abs(np.random.default_rng(1).normal(size=(2, 3))) + 1.0, requires_grad=True)
        assert gradcheck(ops.div, [t(rng, 2, 3), b])

    def test_maximum(self, rng):
        # Avoid exact ties where the subgradient is ambiguous.
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)) + 0.01, requires_grad=True)
        assert gradcheck(ops.maximum, [a, b])

    def test_where(self, rng):
        cond = rng.random((3, 3)) > 0.5
        assert gradcheck(lambda a, b: ops.where(cond, a, b), [t(rng, 3, 3), t(rng, 3, 3)])

    def test_power(self, rng):
        a = Tensor(np.abs(rng.normal(size=(4,))) + 0.5, requires_grad=True)
        assert gradcheck(lambda x: ops.power(x, 2.5), [a])


class TestUnaryGradients:
    @pytest.mark.parametrize("op", [ops.exp, ops.tanh, ops.sigmoid, ops.log_sigmoid, ops.softplus, ops.neg])
    def test_smooth_ops(self, op, rng):
        assert gradcheck(op, [t(rng, 3, 4)])

    def test_log(self, rng):
        a = Tensor(np.abs(rng.normal(size=(5,))) + 0.5, requires_grad=True)
        assert gradcheck(ops.log, [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.normal(size=(5,))) + 0.5, requires_grad=True)
        assert gradcheck(ops.sqrt, [a])

    def test_relu_away_from_kink(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.1, requires_grad=True)
        assert gradcheck(ops.relu, [a])

    def test_leaky_relu_away_from_kink(self, rng):
        vals = rng.normal(size=(4, 4))
        vals = np.where(np.abs(vals) < 0.05, 0.2, vals)
        assert gradcheck(lambda x: ops.leaky_relu(x, 0.3), [Tensor(vals, requires_grad=True)])


class TestReductionGradients:
    def test_sum_all(self, rng):
        assert gradcheck(lambda x: ops.sum(x), [t(rng, 3, 4)])

    def test_sum_axis(self, rng):
        assert gradcheck(lambda x: ops.sum(x, axis=0), [t(rng, 3, 4)])

    def test_sum_axis_keepdims(self, rng):
        assert gradcheck(lambda x: ops.sum(x, axis=1, keepdims=True), [t(rng, 3, 4)])

    def test_sum_multi_axis(self, rng):
        assert gradcheck(lambda x: ops.sum(x, axis=(0, 2)), [t(rng, 2, 3, 4)])

    def test_sum_trailing_axis(self, rng):
        assert gradcheck(lambda x: ops.sum(x, axis=1), [t(rng, 3, 4)])

    def test_mean_leading_axis(self, rng):
        assert gradcheck(lambda x: ops.mean(x, axis=0), [t(rng, 3, 4)])

    def test_mean_all(self, rng):
        assert gradcheck(lambda x: ops.mean(x), [t(rng, 3, 4)])

    def test_mean_axis(self, rng):
        assert gradcheck(lambda x: ops.mean(x, axis=1), [t(rng, 2, 5)])

    def test_max_axis(self, rng):
        assert gradcheck(lambda x: ops.max(x, axis=1), [t(rng, 3, 5)])

    def test_max_all(self, rng):
        assert gradcheck(lambda x: ops.max(x), [t(rng, 3, 3)])

    def test_logsumexp(self, rng):
        assert gradcheck(lambda x: ops.logsumexp(x, axis=1), [t(rng, 3, 4)])

    def test_logsumexp_keepdims(self, rng):
        assert gradcheck(lambda x: ops.logsumexp(x, axis=0, keepdims=True), [t(rng, 3, 4)])


class TestSoftmaxGradients:
    def test_softmax(self, rng):
        assert gradcheck(lambda x: ops.softmax(x, axis=-1), [t(rng, 3, 5)])

    def test_softmax_weighted(self, rng):
        w = rng.normal(size=(3, 5))
        assert gradcheck(lambda x: ops.mul(ops.softmax(x, axis=-1), w), [t(rng, 3, 5)])

    def test_masked_softmax(self, rng):
        mask = rng.random((3, 5)) < 0.7
        mask[0] = True  # keep at least one fully live row
        assert gradcheck(lambda x: ops.masked_softmax(x, mask), [t(rng, 3, 5)])

    def test_masked_softmax_with_dead_row(self, rng):
        mask = np.ones((2, 4), dtype=bool)
        mask[1] = False
        assert gradcheck(lambda x: ops.masked_softmax(x, mask), [t(rng, 2, 4)])


class TestLinearAlgebraGradients:
    def test_matmul_2d(self, rng):
        assert gradcheck(ops.matmul, [t(rng, 3, 4), t(rng, 4, 2)])

    def test_matmul_batched(self, rng):
        assert gradcheck(ops.matmul, [t(rng, 2, 3, 4), t(rng, 2, 4, 5)])

    def test_matmul_broadcast_batch(self, rng):
        assert gradcheck(ops.matmul, [t(rng, 2, 3, 4), t(rng, 4, 5)])

    def test_matmul_vector_right(self, rng):
        assert gradcheck(ops.matmul, [t(rng, 3, 4), t(rng, 4)])

    def test_matmul_vector_left(self, rng):
        assert gradcheck(ops.matmul, [t(rng, 4), t(rng, 4, 3)])

    def test_einsum_bilinear(self, rng):
        assert gradcheck(
            lambda u, m, v: ops.einsum("bd,hde,bke->bhk", u, m, v),
            [t(rng, 2, 3), t(rng, 2, 3, 3), t(rng, 2, 4, 3)],
        )

    def test_einsum_weighted_sum(self, rng):
        assert gradcheck(
            lambda w, v: ops.einsum("bhk,bke->bhe", w, v),
            [t(rng, 2, 3, 4), t(rng, 2, 4, 5)],
        )

    def test_einsum_grouped(self, rng):
        assert gradcheck(
            lambda w, v: ops.einsum("bhwk,bwkd->bhwd", w, v),
            [t(rng, 2, 2, 3, 2), t(rng, 2, 3, 2, 4)],
        )

    def test_einsum_table_transform(self, rng):
        assert gradcheck(
            lambda e, m: ops.einsum("nq,rhpq->nrhp", e, m),
            [t(rng, 4, 3), t(rng, 2, 2, 3, 3)],
        )


class TestShapeGradients:
    def test_reshape(self, rng):
        assert gradcheck(lambda x: ops.reshape(x, (6,)), [t(rng, 2, 3)])

    def test_transpose(self, rng):
        assert gradcheck(lambda x: ops.transpose(x, (1, 0, 2)), [t(rng, 2, 3, 4)])

    def test_concat(self, rng):
        assert gradcheck(
            lambda a, b: ops.concat([a, b], axis=1), [t(rng, 2, 3), t(rng, 2, 2)]
        )

    def test_stack(self, rng):
        assert gradcheck(lambda a, b: ops.stack([a, b], axis=1), [t(rng, 2, 3), t(rng, 2, 3)])

    def test_gather_rows(self, rng):
        idx = np.array([[0, 2], [1, 1]])
        assert gradcheck(lambda x: ops.gather_rows(x, idx), [t(rng, 4, 3)])

    def test_tuple_index_select(self, rng):
        rows = np.array([0, 2, 2])
        cols = np.array([1, 0, 1])
        assert gradcheck(lambda x: ops.index_select(x, (rows, cols)), [t(rng, 3, 2, 4)])


class TestCompositeGradients:
    """End-to-end expressions matching what the models actually compute."""

    def test_attention_block(self, rng):
        """Softmax attention with bilinear scores — the CG-KGR hot path."""
        center, matrix, neighbors = t(rng, 2, 3), t(rng, 2, 3, 3), t(rng, 2, 4, 3)

        def fn(c, m, nb):
            scores = ops.einsum("bd,hde,bke->bhk", c, m, nb)
            weights = ops.softmax(scores, axis=-1)
            summary = ops.einsum("bhk,bke->bhe", weights, nb)
            return ops.mean(summary, axis=1)

        assert gradcheck(fn, [center, matrix, neighbors])

    def test_bce_with_logits(self, rng):
        logits = t(rng, 8)

        def fn(x):
            return ops.neg(ops.add(
                ops.mean(ops.log_sigmoid(x)),
                ops.mean(ops.log_sigmoid(ops.neg(x))),
            ))

        assert gradcheck(fn, [logits])

    def test_embedding_then_bilinear(self, rng):
        table = t(rng, 6, 3)
        idx = np.array([0, 5, 2])
        other = t(rng, 3, 3)

        def fn(tbl, o):
            rows = ops.gather_rows(tbl, idx)
            return ops.sum(ops.mul(rows, o), axis=-1)

        assert gradcheck(fn, [table, other])

    def test_guided_gating(self, rng):
        """f ⊙ head gating as used in knowledge-aware attention."""
        head, guide = t(rng, 2, 4, 3), t(rng, 2, 3)

        def fn(h, g):
            return ops.mul(h, ops.reshape(g, (2, 1, 3)))

        assert gradcheck(fn, [head, guide])

    def test_tanh_sigmoid_gate(self, rng):
        """tanh(x) ⊙ σ(x + y): two paths from one input merge in the tape."""

        def fn(x, y):
            return ops.mul(ops.tanh(x), ops.sigmoid(ops.add(x, y)))

        assert gradcheck(fn, [t(rng, 3, 4), t(rng, 3, 4)])


class TestFusedAttentionGradients:
    """Gradcheck the PR-4 fused attention kernels at edge shapes the
    vectorized adjoints are most likely to get wrong: a single attention
    head, a single-relation table, missing guidance, repeated tails, and
    parents whose every child slot is masked out (zero degree)."""

    def _guided_inputs(self, rng, batch=2, width=2, k=2, dim=3, heads=2,
                       relations=2, n_entities=5):
        head = t(rng, batch, width, dim)
        guidance = t(rng, batch, dim)
        matrices = t(rng, relations, heads, dim, dim)
        table = t(rng, n_entities, dim)
        entities = rng.integers(0, n_entities, size=(batch, width * k))
        rels = rng.integers(0, relations, size=(batch, width * k))
        return head, guidance, matrices, table, entities, rels, k

    def _check_guided(self, head, guidance, matrices, table, entities, rels, k):
        from repro.core.attention import (
            _guided_relation_scores, edge_rows, tail_projections,
        )

        # The edge projections are built from m and tab inside the checked
        # function, so finite differences reach them as in the model.
        def edges(m, tab):
            return edge_rows(tail_projections(m, tab), entities, rels)

        if guidance is None:
            fn = lambda h, m, tab: _guided_relation_scores(
                h, None, m, tab, *edges(m, tab), k
            )
            return gradcheck(fn, [head, matrices, table])
        fn = lambda h, g, m, tab: _guided_relation_scores(
            h, g, m, tab, *edges(m, tab), k
        )
        return gradcheck(fn, [head, guidance, matrices, table])

    def test_guided_scores_general(self, rng):
        assert self._check_guided(*self._guided_inputs(rng))

    def test_guided_scores_single_head(self, rng):
        assert self._check_guided(*self._guided_inputs(rng, heads=1))

    def test_guided_scores_single_relation(self, rng):
        assert self._check_guided(*self._guided_inputs(rng, relations=1))

    def test_guided_scores_single_head_single_relation(self, rng):
        assert self._check_guided(
            *self._guided_inputs(rng, heads=1, relations=1)
        )

    def test_guided_scores_without_guidance(self, rng):
        head, _, matrices, table, entities, rels, k = self._guided_inputs(rng)
        assert self._check_guided(head, None, matrices, table, entities, rels, k)

    def test_guided_scores_repeated_tails(self, rng):
        """Every edge hits the same (tail, relation) row — the bincount
        scatter in the adjoint must accumulate, not overwrite."""
        head, guidance, matrices, table, _, _, k = self._guided_inputs(rng)
        entities = np.zeros((2, 4), dtype=np.int64)
        rels = np.ones((2, 4), dtype=np.int64)
        assert self._check_guided(
            head, guidance, matrices, table, entities, rels, k
        )

    def test_guided_scores_zero_degree_parent(self, rng):
        """A parent with all children masked must pass zero gradient
        through its (uniform) softmax row, matching finite differences."""
        from repro.autograd import ops as aops
        from repro.core.attention import (
            _guided_relation_scores, edge_rows, tail_projections,
        )

        batch, width, k, dim = 2, 2, 2, 3
        head, guidance, matrices, table, entities, rels, _ = (
            self._guided_inputs(rng, batch=batch, width=width, k=k, dim=dim)
        )
        mask = np.ones((batch, width, k))
        mask[0, 1] = 0.0  # zero-degree parent
        mask[1, 0, 1] = 0.0  # and a partially masked one

        def fn(h, g, m, tab):
            edges = edge_rows(tail_projections(m, tab), entities, rels)
            raw = _guided_relation_scores(h, g, m, tab, *edges, k)
            weights = aops.masked_softmax(raw, mask[:, None, :, :], axis=-1)
            return aops.mean(weights, axis=1)

        assert gradcheck(fn, [head, guidance, matrices, table])

    def test_collab_scores_general(self, rng):
        from repro.core.attention import _collab_scores

        center = t(rng, 3, 4)
        matrix = t(rng, 2, 4, 4)
        neighbors = t(rng, 3, 2, 4)
        assert gradcheck(_collab_scores, [center, matrix, neighbors])

    def test_collab_scores_single_head(self, rng):
        from repro.core.attention import _collab_scores

        center = t(rng, 2, 3)
        matrix = t(rng, 1, 3, 3)
        neighbors = t(rng, 2, 4, 3)
        assert gradcheck(_collab_scores, [center, matrix, neighbors])

    def test_collab_scores_single_neighbor(self, rng):
        from repro.core.attention import _collab_scores

        center = t(rng, 2, 3)
        matrix = t(rng, 2, 3, 3)
        neighbors = t(rng, 2, 1, 3)
        assert gradcheck(_collab_scores, [center, matrix, neighbors])
