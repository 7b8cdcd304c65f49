"""Aggregators g (Eq. 7-9), encoders f (Eq. 10-12), attention modules."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.core.aggregators import (
    ConcatAggregator,
    NeighborAggregator,
    SumAggregator,
    make_aggregator,
)
from repro.core.attention import (
    CollaborationAttention,
    KnowledgeAwareAttention,
    _guided_relation_scores,
    _uniform_weights,
    edge_rows,
    tail_projections,
)
from repro.core.encoders import make_encoder, mean_encoder, pmax_encoder, sum_encoder


class TestEncoders:
    def test_sum(self, rng):
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(sum_encoder(a, b).numpy(), a.numpy() + b.numpy())

    def test_mean(self, rng):
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(
            mean_encoder(a, b).numpy(), (a.numpy() + b.numpy()) / 2
        )

    def test_pmax(self, rng):
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(
            pmax_encoder(a, b).numpy(), np.maximum(a.numpy(), b.numpy())
        )

    def test_factory(self):
        assert make_encoder("mean") is mean_encoder
        with pytest.raises(ValueError):
            make_encoder("concat")

    def test_encoders_differentiable(self, rng):
        for name in ("sum", "mean", "pmax"):
            enc = make_encoder(name)
            a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(2, 3)) + 0.01, requires_grad=True)
            assert gradcheck(enc, [a, b])


class TestAggregators:
    @pytest.mark.parametrize("name,cls", [
        ("sum", SumAggregator),
        ("concat", ConcatAggregator),
        ("neighbor", NeighborAggregator),
    ])
    def test_factory_and_shapes(self, name, cls, rng):
        agg = make_aggregator(name, 4, rng)
        assert isinstance(agg, cls)
        out = agg(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 4)

    def test_ngh_alias(self, rng):
        assert isinstance(make_aggregator("ngh", 4, rng), NeighborAggregator)

    def test_unknown_rejected(self, rng):
        with pytest.raises(ValueError):
            make_aggregator("median", 4, rng)

    def test_neighbor_ignores_self(self, rng):
        agg = NeighborAggregator(4, rng)
        nb = Tensor(rng.normal(size=(2, 4)))
        out1 = agg(Tensor(rng.normal(size=(2, 4))), nb)
        out2 = agg(Tensor(rng.normal(size=(2, 4))), nb)
        np.testing.assert_allclose(out1.numpy(), out2.numpy())

    def test_sum_aggregator_formula(self, rng):
        agg = SumAggregator(3, rng, act="identity")
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = agg(Tensor(a), Tensor(b))
        expected = (a + b) @ agg.weight.data + agg.bias.data
        np.testing.assert_allclose(out.numpy(), expected)

    def test_concat_handles_batched_dims(self, rng):
        agg = ConcatAggregator(4, rng)
        out = agg(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 4)

    @pytest.mark.parametrize("name", ["sum", "concat", "neighbor"])
    def test_gradients(self, name, rng):
        agg = make_aggregator(name, 3, rng)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda x, y: agg(x, y), [a, b])


class TestCollaborationAttention:
    @staticmethod
    def _summary(attn, center, neighbors, mask):
        return attn(attn.weights(center, neighbors, mask), neighbors)

    def test_output_shape(self, rng):
        attn = CollaborationAttention(4, 2, rng)
        out = self._summary(
            attn,
            Tensor(rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 5, 4))),
            np.ones((3, 5), dtype=bool),
        )
        assert out.shape == (3, 4)

    def test_masked_neighbors_do_not_contribute(self, rng):
        attn = CollaborationAttention(4, 2, rng)
        center = Tensor(rng.normal(size=(1, 4)))
        neighbors = rng.normal(size=(1, 3, 4))
        mask = np.array([[True, True, False]])
        out1 = self._summary(attn, center, Tensor(neighbors), mask).numpy()
        neighbors_changed = neighbors.copy()
        neighbors_changed[0, 2] = 99.0  # mutate only the masked slot
        out2 = self._summary(attn, center, Tensor(neighbors_changed), mask).numpy()
        np.testing.assert_allclose(out1, out2)

    def test_no_neighbors_gives_zero_summary(self, rng):
        attn = CollaborationAttention(4, 2, rng)
        out = self._summary(
            attn,
            Tensor(rng.normal(size=(1, 4))),
            Tensor(rng.normal(size=(1, 3, 4))),
            np.zeros((1, 3), dtype=bool),
        )
        np.testing.assert_allclose(out.numpy(), 0.0)

    def test_uniform_mode_is_average(self, rng):
        attn = CollaborationAttention(4, 2, rng)
        neighbors = rng.normal(size=(1, 3, 4))
        mask = np.array([[True, True, False]])
        out = attn(Tensor(_uniform_weights(mask)), Tensor(neighbors))
        np.testing.assert_allclose(out.numpy()[0], neighbors[0, :2].mean(axis=0))

    def test_weights_sum_to_one(self, rng):
        attn = CollaborationAttention(4, 3, rng)
        weights = attn.weights(
            Tensor(rng.normal(size=(2, 4))),
            Tensor(rng.normal(size=(2, 5, 4))),
            np.ones((2, 5), dtype=bool),
        ).numpy()
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)

    def test_end_to_end_gradient(self, rng):
        attn = CollaborationAttention(3, 2, rng)
        center = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        neighbors = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        mask = np.ones((2, 4), dtype=bool)
        mask[1, -1] = False
        assert gradcheck(
            lambda c, nb: self._summary(attn, c, nb, mask), [center, neighbors]
        )


def _edges(attn, table, tails, rels):
    """The ``(comp, rows)`` a model's item side hands the fused op."""
    return edge_rows(tail_projections(attn.relation_matrices, table), tails, rels)


def _relation_table(attn, table):
    """Numpy reference ``T[n, r, h] = M_r^h v_n`` for the whole table."""
    return np.einsum("nq,rhpq->nrhp", table, attn.relation_matrices.data)


def _reference_weights(attn, table, heads, guidance, tails, rels, mask, k):
    """Unfused numpy Eq. 13-15: row-gated parent heads against the gathered
    ``M_r^h v_t``, per-head softmax within each parent's K children, head
    mean: (B, W, K)."""
    batch, width, _ = heads.shape
    gated = heads if guidance is None else heads * guidance[:, None, :]
    per_edge = np.repeat(gated, k, axis=1)  # (B, W*K, d)
    gathered = _relation_table(attn, table)[tails, rels]  # (B, W*K, H, d)
    raw = np.einsum("bed,behd->bhe", per_edge, gathered)
    raw = raw.reshape(batch, attn.n_heads, width, k)
    live = mask.reshape(batch, 1, width, k)
    shifted = np.where(live, raw, -np.inf)
    peak = shifted.max(axis=-1, keepdims=True)
    e = np.where(live, np.exp(raw - np.where(np.isfinite(peak), peak, 0.0)), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    return (e / np.where(total > 0, total, 1.0)).mean(axis=1)


class TestKnowledgeAwareAttention:
    @pytest.fixture()
    def setup(self, rng):
        dim, heads, n_rel = 3, 2, 4
        attn = KnowledgeAwareAttention(dim, heads, n_rel, rng)
        entity_table = Tensor(rng.normal(size=(6, dim)), requires_grad=True)
        return attn, entity_table

    def test_transform_table_shape(self, setup, rng):
        attn, table = setup
        out = _relation_table(attn, table.data)
        assert out.shape == (6, 4, 2, 3)
        # The fused op scores every (tail, relation) against that table.
        tails = np.arange(6)[None, :]
        rels = (np.arange(6) % 4)[None, :]
        heads = rng.normal(size=(1, 1, 3))
        raw = _guided_relation_scores(
            Tensor(heads), None, attn.relation_matrices, table,
            *_edges(attn, table, tails, rels), 6,
        ).numpy()
        np.testing.assert_allclose(
            raw[0, :, 0], np.einsum("d,khd->hk", heads[0, 0], out[tails[0], rels[0]])
        )

    def test_transform_matches_manual(self, setup):
        attn, table = setup
        out = _relation_table(attn, table.data)
        manual = attn.relation_matrices.data[1, 0] @ table.data[2]
        np.testing.assert_allclose(out[2, 1, 0], manual)
        # Head 0's score for the edge (tail 2, relation 1) under a one-hot
        # parent head reads one coordinate of that row.
        head = np.zeros((1, 1, 3))
        head[0, 0, 1] = 1.0
        raw = _guided_relation_scores(
            Tensor(head), None, attn.relation_matrices, table,
            *_edges(attn, table, np.array([[2]]), np.array([[1]])), 1,
        ).numpy()
        assert raw[0, 0, 0, 0] == pytest.approx(manual[1])

    def test_guidance_changes_weights(self, setup, rng):
        attn, table = setup
        batch, k = 1, 4
        tails = rng.integers(0, 6, size=(batch, k))
        rels = rng.integers(0, 4, size=(batch, k))
        # One parent head per group of k children.
        heads = rng.normal(size=(batch, 1, 3))
        mask = np.ones((batch, k), dtype=bool)
        guidance = rng.normal(size=(batch, 3)) * 3.0
        edges = _edges(attn, table, tails, rels)
        with_g = attn.weights(
            Tensor(heads), Tensor(guidance), table, edges, mask, k
        ).numpy()
        without_g = attn.weights(Tensor(heads), None, table, edges, mask, k).numpy()
        assert not np.allclose(with_g, without_g)
        for got, signal in ((with_g, guidance), (without_g, None)):
            np.testing.assert_allclose(
                got,
                _reference_weights(
                    attn, table.data, heads, signal, tails, rels, mask, k
                ),
                atol=1e-12,
            )

    def test_forward_shape_and_grouping(self, setup, rng):
        attn, table = setup
        batch, width, k = 2, 3, 2
        n_edges = width * k
        tails = rng.integers(0, 6, size=(batch, n_edges))
        rels = rng.integers(0, 4, size=(batch, n_edges))
        heads = rng.normal(size=(batch, width, 3))
        guidance = rng.normal(size=(batch, 3))
        child_values = rng.normal(size=(batch, n_edges, 3))
        mask = np.ones((batch, n_edges), dtype=bool)
        mask[1, -1] = False
        weights = attn.weights(
            Tensor(heads), Tensor(guidance), table,
            _edges(attn, table, tails, rels), mask, k,
        )
        out = attn(weights, Tensor(child_values))
        assert out.shape == (batch, width, 3)
        # Each parent sums only its own K children (Eq. 16).
        reference = _reference_weights(
            attn, table.data, heads, guidance, tails, rels, mask, k
        )
        expected = np.einsum(
            "bwk,bwkd->bwd", reference, child_values.reshape(batch, width, k, 3)
        )
        np.testing.assert_allclose(out.numpy(), expected, atol=1e-12)

    def test_uniform_mode_needs_no_attention_inputs(self, setup, rng):
        attn, _ = setup
        child_values = Tensor(rng.normal(size=(1, 4, 3)))
        mask = np.array([[True, True, False, False]])
        out = attn(Tensor(_uniform_weights(mask.reshape(1, 2, 2))), child_values)
        assert out.shape == (1, 2, 3)
        # First group averages slots 0-1; second group is fully masked → 0.
        np.testing.assert_allclose(
            out.numpy()[0, 0], child_values.numpy()[0, :2].mean(axis=0)
        )
        np.testing.assert_allclose(out.numpy()[0, 1], 0.0)
