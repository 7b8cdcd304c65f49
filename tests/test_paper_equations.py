"""Faithfulness tests: implementation vs naive transcriptions of the
paper's equations.

Each test computes the paper's formula directly with numpy loops and
checks the vectorized implementation against it:

* Eq. 1-2: collaboration attention π and its softmax normalization;
* Eq. 3-4: multi-head averaged neighborhood summary;
* Eq. 7-9: the three aggregators;
* Eq. 10-12: the three guidance encoders;
* Eq. 13-15: guidance-gated knowledge attention ω (row-gating ⊙);
* Eq. 21: inner-product prediction.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.aggregators import ConcatAggregator, NeighborAggregator, SumAggregator
from repro.core.attention import (
    CollaborationAttention,
    KnowledgeAwareAttention,
    _collab_scores,
    _guided_relation_scores,
    edge_rows,
    tail_projections,
)
from repro.core.encoders import mean_encoder, pmax_encoder, sum_encoder


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class TestCollaborationAttentionEquations:
    """Eq. 1-4 against loop-computed references."""

    @pytest.fixture()
    def setup(self, rng):
        dim, heads, k = 4, 3, 5
        attn = CollaborationAttention(dim, heads, rng)
        center = rng.normal(size=(1, dim))
        neighbors = rng.normal(size=(1, k, dim))
        return attn, center, neighbors

    def test_eq1_bilinear_scores(self, setup):
        attn, center, neighbors = setup
        scores = _collab_scores(
            Tensor(center), attn.relation_matrix, Tensor(neighbors)
        ).numpy()
        for h in range(attn.n_heads):
            M = attn.relation_matrix.data[h]
            for k in range(neighbors.shape[1]):
                expected = center[0] @ M @ neighbors[0, k]  # π = v_u^T M v_i
                assert scores[0, h, k] == pytest.approx(expected)

    def test_eq2_softmax_normalization(self, setup):
        attn, center, neighbors = setup
        mask = np.ones((1, neighbors.shape[1]), dtype=bool)
        weights = []
        raw = _collab_scores(
            Tensor(center), attn.relation_matrix, Tensor(neighbors)
        ).numpy()
        for h in range(attn.n_heads):
            weights.append(softmax(raw[0, h]))
        reported = attn.weights(Tensor(center), Tensor(neighbors), mask).numpy()
        np.testing.assert_allclose(reported[0], np.mean(weights, axis=0), atol=1e-12)

    def test_eq4_multi_head_average_summary(self, setup):
        attn, center, neighbors = setup
        mask = np.ones((1, neighbors.shape[1]), dtype=bool)
        raw = _collab_scores(
            Tensor(center), attn.relation_matrix, Tensor(neighbors)
        ).numpy()
        expected = np.zeros(4)
        for h in range(attn.n_heads):
            w = softmax(raw[0, h])
            expected += w @ neighbors[0]
        expected /= attn.n_heads
        weights = attn.weights(Tensor(center), Tensor(neighbors), mask)
        out = attn(weights, Tensor(neighbors)).numpy()
        np.testing.assert_allclose(out[0], expected, atol=1e-12)


class TestAggregatorEquations:
    """Eq. 7-9 with σ = identity so the affine part is exact."""

    def test_eq7_sum(self, rng):
        agg = SumAggregator(3, rng, act="identity")
        v1, v2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        expected = (v1 + v2) @ agg.weight.data + agg.bias.data
        np.testing.assert_allclose(agg(Tensor(v1), Tensor(v2)).numpy(), expected)

    def test_eq8_concat(self, rng):
        agg = ConcatAggregator(3, rng, act="identity")
        v1, v2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        expected = np.concatenate([v1, v2], axis=1) @ agg.weight.data + agg.bias.data
        np.testing.assert_allclose(agg(Tensor(v1), Tensor(v2)).numpy(), expected)

    def test_eq9_neighbor(self, rng):
        agg = NeighborAggregator(3, rng, act="identity")
        v1, v2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        expected = v2 @ agg.weight.data + agg.bias.data
        np.testing.assert_allclose(agg(Tensor(v1), Tensor(v2)).numpy(), expected)


class TestEncoderEquations:
    """Eq. 10-12 exactly."""

    def test_eq10_sum(self, rng):
        u, i = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        np.testing.assert_allclose(sum_encoder(Tensor(u), Tensor(i)).numpy(), u + i)

    def test_eq11_mean(self, rng):
        u, i = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            mean_encoder(Tensor(u), Tensor(i)).numpy(), 0.5 * (u + i)
        )

    def test_eq12_pmax(self, rng):
        u, i = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            pmax_encoder(Tensor(u), Tensor(i)).numpy(), np.maximum(u, i)
        )


class TestKnowledgeAttentionEquations:
    """Eq. 13-15: ω = v_h^T (f ⊙ M_r) v_t with f gating M_r's rows."""

    @pytest.fixture()
    def setup(self, rng):
        dim, heads, n_rel, k = 4, 2, 3, 4
        attn = KnowledgeAwareAttention(dim, heads, n_rel, rng)
        entity_table = rng.normal(size=(7, dim))
        # One parent node whose K children are the sampled edges.
        head_vec = rng.normal(size=(1, 1, dim))
        guidance = rng.normal(size=(1, dim))
        tails = rng.integers(0, 7, size=(1, k))
        rels = rng.integers(0, n_rel, size=(1, k))
        return attn, entity_table, head_vec, guidance, tails, rels

    def _expected_scores(self, attn, entity_table, head_vec, guidance, tails, rels):
        """Naive loop over Eq. 13-14."""
        k = tails.shape[1]
        out = np.zeros((attn.n_heads, k))
        for h in range(attn.n_heads):
            for slot in range(k):
                M = attn.relation_matrices.data[rels[0, slot], h]
                gated_M = guidance[0][:, None] * M  # f ⊙ M_r (row gating)
                v_h = head_vec[0, 0]
                v_t = entity_table[tails[0, slot]]
                out[h, slot] = v_h @ gated_M @ v_t  # Eq. 14
        return out

    @staticmethod
    def _scores(attn, entity_table, head_vec, guidance, tails, rels):
        """The fused op's ω for the one parent: (H, K)."""
        table = Tensor(entity_table)
        raw = _guided_relation_scores(
            Tensor(head_vec),
            guidance,
            attn.relation_matrices,
            table,
            *edge_rows(tail_projections(attn.relation_matrices, table), tails, rels),
            tails.shape[1],
        ).numpy()
        return raw[0, :, 0]

    def test_eq13_14_guided_scores(self, setup):
        attn, entity_table, head_vec, guidance, tails, rels = setup
        scores = self._scores(
            attn, entity_table, head_vec, Tensor(guidance), tails, rels
        )
        expected = self._expected_scores(
            attn, entity_table, head_vec, guidance, tails, rels
        )
        np.testing.assert_allclose(scores, expected, atol=1e-10)

    def test_eq15_normalized_weights(self, setup):
        attn, entity_table, head_vec, guidance, tails, rels = setup
        mask = np.ones(tails.shape, dtype=bool)
        table = Tensor(entity_table)
        edges = edge_rows(tail_projections(attn.relation_matrices, table), tails, rels)
        weights = attn.weights(
            Tensor(head_vec), Tensor(guidance), table, edges, mask, tails.shape[1]
        ).numpy()
        expected = self._expected_scores(
            attn, entity_table, head_vec, guidance, tails, rels
        )
        per_head = np.stack([softmax(expected[h]) for h in range(attn.n_heads)])
        np.testing.assert_allclose(weights[0, 0], per_head.mean(axis=0), atol=1e-10)

    def test_all_one_guidance_equals_ungated(self, setup):
        """The w/o CG ablation's all-one vector: f = 1 must equal no gating."""
        attn, entity_table, head_vec, _, tails, rels = setup
        ones = Tensor(np.ones((1, attn.dim)))
        gated = self._scores(attn, entity_table, head_vec, ones, tails, rels)
        ungated = self._scores(attn, entity_table, head_vec, None, tails, rels)
        np.testing.assert_allclose(gated, ungated, atol=1e-12)


class TestPredictionEquation:
    """Eq. 21: ŷ = v_u^T v_i^u — checked through the full model at L=0,
    where v_i^u reduces to the interactively-enriched v_i."""

    def test_eq21_inner_product(self, tiny_dataset, rng):
        from repro.core import CGKGR, CGKGRConfig
        from repro.autograd import ops

        cfg = CGKGRConfig(dim=8, depth=0, n_heads=2, kg_sample_size=2)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        users = np.array([0, 1])
        items = np.array([2, 3])
        v_u0 = model.user_embedding(users)
        v_i0 = model.entity_embedding(items)
        v_u = model._summarize_user(users, v_u0)
        v_i = model._summarize_item(items, v_i0)
        expected = (v_u.numpy() * v_i.numpy()).sum(axis=-1)
        actual = model.score_pairs(users, items).numpy()
        np.testing.assert_allclose(actual, expected, atol=1e-12)
