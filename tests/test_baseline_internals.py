"""Deeper unit checks on individual baseline mechanisms."""

import hashlib

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.baselines import NFM, BPRMF, RippleNet, KGAT
from repro.baselines.transr import transr_distance
from repro.data import generate_profile
from repro.eval.ctr import _sigmoid


class TestSigmoidHelper:
    def test_matches_definition(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)))

    def test_extremes_stable(self):
        out = _sigmoid(np.array([-1e6, 0.0, 1e6]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out))


class TestNFMInternals:
    def test_bias_terms_contribute(self, tiny_dataset):
        model = NFM(tiny_dataset, dim=8, seed=0)
        before = model.score_pairs([0], [0]).item()
        model.item_bias.data[0] += 1.0
        after = model.score_pairs([0], [0]).item()
        assert after == pytest.approx(before + 1.0)

    def test_global_bias_shifts_all(self, tiny_dataset):
        model = NFM(tiny_dataset, dim=8, seed=0)
        users = np.arange(5)
        items = np.arange(5)
        before = model.predict(users, items)
        model.global_bias.data[0] += 2.0
        after = model.predict(users, items)
        np.testing.assert_allclose(after - before, 2.0)

    def test_bi_interaction_depends_on_both(self, tiny_dataset):
        model = NFM(tiny_dataset, dim=8, seed=0)
        s_a = model.score_pairs([0], [0]).item()
        model.user_embedding.weight.data[0] *= 2.0
        s_b = model.score_pairs([0], [0]).item()
        assert s_a != s_b


class TestRippleNetInternals:
    def test_ripple_sets_cover_all_users(self, tiny_dataset):
        model = RippleNet(tiny_dataset, dim=8, n_hops=2, set_size=4, seed=0)
        assert model.ripple.heads[0].shape[0] == tiny_dataset.n_users

    def test_hop0_heads_are_user_items(self, tiny_dataset):
        model = RippleNet(tiny_dataset, dim=8, n_hops=1, set_size=8, seed=0)
        for user in range(min(5, tiny_dataset.n_users)):
            interacted = set(tiny_dataset.train.items_of(user))
            if not interacted:
                continue
            mask = model.ripple.masks[0][user]
            heads = model.ripple.heads[0][user][mask]
            assert set(heads.tolist()) <= interacted

    def test_transformed_heads_shape(self, tiny_dataset, rng):
        model = RippleNet(tiny_dataset, dim=8, n_hops=1, set_size=4, seed=0)
        heads = rng.integers(0, tiny_dataset.n_entities, size=(3, 4))
        rels = rng.integers(0, tiny_dataset.n_relations, size=(3, 4))
        out = model._transformed_heads(heads, rels)
        assert out.shape == (3, 4, 8)


class TestKGATInternals:
    def test_transr_distance_nonnegative(self, tiny_dataset, rng):
        model = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        heads = rng.integers(0, model.unified.n_nodes, size=6)
        rels = rng.integers(0, model.unified.n_relations, size=6)
        tails = rng.integers(0, model.unified.n_nodes, size=6)
        distances = transr_distance(
            model.node_embedding, model.relation_embedding,
            model.relation_projection, heads, rels, tails,
        ).numpy()
        assert np.all(distances >= 0.0)

    def test_unified_interaction_edges_present(self, tiny_dataset):
        model = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        triples = model.unified.all_triples()
        r_star = model.unified.interaction_relation
        interaction_rows = triples[triples[:, 1] == r_star]
        assert len(interaction_rows) == tiny_dataset.train.n_interactions

    def test_loss_invalidates_prediction_cache(self, tiny_dataset):
        model = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        model.predict([0], [0])
        assert model._table is not None
        neg = np.array([1])
        model.loss(np.array([0]), np.array([0]), neg)
        assert model._table is None

    def test_seed0_neighbor_tables_are_pinned(self):
        # KGAT draws its unified-graph tables with the per-node
        # `_build_table` loop; the rng draw order fixes its trained
        # parameters and the CI-gated topk/movie/KGAT recall, so any
        # change to that order (or to the adjacency it walks) shows here.
        def digest(model):
            h = hashlib.sha256()
            for table in (model._neighbors, model._relations, model._has):
                h.update(np.ascontiguousarray(table).tobytes())
            return h.hexdigest()

        model = KGAT(generate_profile("movie", seed=0), seed=0)
        assert digest(model) == (
            "2a3e3329541fc9afb9b5bd3ab4bea1eaf68bb3da16fc7ff7a8dec217d5bbb58e"
        )
        model.begin_epoch(1)
        assert digest(model) == (
            "242f536f8ad3936401c49cb3e0d70d3a083e3b054c8cdcd09f3b64e22479c810"
        )


class TestBPRLossSemantics:
    def test_bpr_loss_decreases_when_margin_grows(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        users = np.array([0, 1])
        pos = np.array([0, 1])
        neg = np.array([2, 3])
        base = model.bpr_loss(users, pos, neg).item()
        # Artificially widen the positive margin.
        model.item_bias.data[pos] += 5.0
        better = model.bpr_loss(users, pos, neg).item()
        assert better < base
