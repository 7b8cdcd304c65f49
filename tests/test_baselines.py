"""Baseline recommenders: interface compliance, gradients, learning."""

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.baselines import (
    BPRMF,
    CKAN,
    CKE,
    KGAT,
    KGCN,
    KGNNLS,
    NFM,
    RippleNet,
    make_baseline,
)

ALL_BASELINES = ["bprmf", "nfm", "cke", "kgcn", "kgnn-ls", "ripplenet", "ckan", "kgat"]


def small_kwargs(name):
    """Keep test models tiny."""
    common = {"dim": 8}
    per_model = {
        "kgcn": {"depth": 1, "neighbor_size": 2},
        "kgnn-ls": {"depth": 1, "neighbor_size": 2},
        "ripplenet": {"n_hops": 2, "set_size": 4},
        "ckan": {"n_hops": 1, "set_size": 4},
        "kgat": {"n_layers": 1, "neighbor_size": 2},
    }
    return {**common, **per_model.get(name, {})}


@pytest.fixture(params=ALL_BASELINES)
def baseline(request, tiny_dataset):
    return make_baseline(
        request.param, tiny_dataset, seed=0, **small_kwargs(request.param)
    )


class TestInterface:
    def test_score_shape(self, baseline, tiny_dataset):
        users = tiny_dataset.train.users[:6]
        items = tiny_dataset.train.items[:6]
        scores = baseline.score_pairs(users, items)
        assert scores.shape == (6,)
        assert np.all(np.isfinite(scores.numpy()))

    def test_predict_matches_score_pairs(self, baseline, tiny_dataset):
        users = tiny_dataset.train.users[:6]
        items = tiny_dataset.train.items[:6]
        direct = baseline.score_pairs(users, items).numpy()
        batched = baseline.predict(users, items, batch_size=2)
        np.testing.assert_allclose(direct, batched, rtol=1e-10)

    def test_loss_scalar_and_backward(self, baseline, tiny_dataset):
        users = tiny_dataset.train.users[:6]
        pos = tiny_dataset.train.items[:6]
        neg = np.random.default_rng(0).integers(0, tiny_dataset.n_items, 6)
        baseline.zero_grad()
        loss = baseline.loss(users, pos, neg)
        assert loss.size == 1
        loss.backward()
        grads = [p.grad is not None for p in baseline.parameters()]
        assert any(grads)

    def test_one_training_step_changes_scores(self, baseline, tiny_dataset):
        users = tiny_dataset.train.users[:12]
        pos = tiny_dataset.train.items[:12]
        neg = np.random.default_rng(1).integers(0, tiny_dataset.n_items, 12)
        before = baseline.predict(users, pos).copy()
        opt = Adam(baseline.parameters(), lr=1e-2)
        loss = baseline.loss(users, pos, neg)
        opt.zero_grad()
        loss.backward()
        opt.step()
        baseline.begin_epoch(1)
        after = baseline.predict(users, pos)
        assert not np.allclose(before, after)

    def test_training_reduces_loss(self, baseline, tiny_dataset):
        rng = np.random.default_rng(2)
        users = tiny_dataset.train.users
        pos = tiny_dataset.train.items
        opt = Adam(baseline.parameters(), lr=5e-3)
        losses = []
        for step in range(8):
            neg = rng.integers(0, tiny_dataset.n_items, len(users))
            loss = baseline.loss(users, pos, neg)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]


class TestRegistry:
    def test_all_names_resolve(self, tiny_dataset):
        for name in ALL_BASELINES:
            model = make_baseline(name, tiny_dataset, **small_kwargs(name))
            assert model.dataset is tiny_dataset

    def test_case_insensitive(self, tiny_dataset):
        assert isinstance(make_baseline("BPRMF", tiny_dataset), BPRMF)
        assert isinstance(make_baseline("KGNNLS", tiny_dataset, depth=1, neighbor_size=2), KGNNLS)

    def test_unknown_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            make_baseline("deepfm", tiny_dataset)


class TestBPRMF:
    def test_bpr_prefers_positives_after_training(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=5e-2, seed=0)
        rng = np.random.default_rng(0)
        users, pos = tiny_dataset.train.users, tiny_dataset.train.items
        opt = Adam(model.parameters(), lr=model.lr)
        for _ in range(30):
            neg = rng.integers(0, tiny_dataset.n_items, len(users))
            loss = model.loss(users, pos, neg)
            opt.zero_grad()
            loss.backward()
            opt.step()
        neg = rng.integers(0, tiny_dataset.n_items, len(users))
        pos_scores = model.predict(users, pos)
        neg_scores = model.predict(users, neg)
        assert (pos_scores > neg_scores).mean() > 0.7


class TestKGCNFamily:
    def test_kgcn_depth_two_runs(self, tiny_dataset):
        m = KGCN(tiny_dataset, dim=8, depth=2, neighbor_size=2, seed=0)
        assert np.all(np.isfinite(m.score_pairs([0, 1], [0, 1]).numpy()))

    def test_kgcn_user_specific_scores(self, tiny_dataset):
        m = KGCN(tiny_dataset, dim=8, depth=1, neighbor_size=2, seed=0)
        same_item = [0, 0]
        scores = m.score_pairs([0, 1], same_item).numpy()
        assert scores[0] != scores[1]

    def test_kgnnls_label_propagation_bounded(self, tiny_dataset):
        m = KGNNLS(tiny_dataset, dim=8, depth=1, neighbor_size=2, seed=0)
        pred = m._propagated_label(
            np.asarray([0, 1, 2]), np.asarray([0, 1, 2])
        ).numpy()
        assert np.all(pred >= 0.0) and np.all(pred <= 1.0)

    def test_kgnnls_loss_includes_ls_term(self, tiny_dataset):
        seed = 4
        kgcn = KGCN(tiny_dataset, dim=8, depth=1, neighbor_size=2, seed=seed)
        kgnnls = KGNNLS(tiny_dataset, dim=8, depth=1, neighbor_size=2, seed=seed, ls_weight=5.0)
        users = tiny_dataset.train.users[:8]
        pos = tiny_dataset.train.items[:8]
        neg = np.random.default_rng(0).integers(0, tiny_dataset.n_items, 8)
        assert kgnnls.loss(users, pos, neg).item() != kgcn.loss(users, pos, neg).item()


class TestRippleAndCKAN:
    def test_ripplenet_uses_user_history(self, tiny_dataset):
        m = RippleNet(tiny_dataset, dim=8, n_hops=1, set_size=4, seed=0)
        scores = m.score_pairs([0, 1], [0, 0]).numpy()
        assert scores[0] != scores[1]

    def test_ckan_item_sets_exist_for_all_items(self, tiny_dataset):
        m = CKAN(tiny_dataset, dim=8, n_hops=1, set_size=4, seed=0)
        assert m.item_sets.heads[0].shape[0] == tiny_dataset.n_items


class TestKGAT:
    def test_propagation_shape(self, tiny_dataset):
        m = KGAT(tiny_dataset, dim=8, n_layers=2, neighbor_size=2, seed=0)
        out = m._propagate()
        assert out.shape == (m.unified.n_nodes, 8 * 3)

    def test_predict_uses_cache(self, tiny_dataset):
        m = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        m.predict([0, 1], [0, 1])
        assert m._table is not None
        m.begin_epoch(0)
        assert m._table is None

    def test_pretrain_copies_bprmf_rows(self, tiny_dataset):
        m = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        before = m.node_embedding.weight.data[: tiny_dataset.n_items].copy()
        m.pretrain(epochs=2)
        after = m.node_embedding.weight.data[: tiny_dataset.n_items]
        assert not np.allclose(before, after)

    def test_kg_loss_finite(self, tiny_dataset):
        m = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        assert np.isfinite(m.kg_loss().item())


class TestCKE:
    def test_kg_loss_decreases_with_training(self, tiny_dataset):
        m = CKE(tiny_dataset, dim=8, seed=0)
        opt = Adam(m.parameters(), lr=1e-2)
        first = None
        for _ in range(20):
            loss = m.kg_loss()
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert m.kg_loss().item() < first

    def test_item_embedding_combines_cf_and_entity(self, tiny_dataset):
        m = CKE(tiny_dataset, dim=8, seed=0)
        score_before = m.score_pairs([0], [0]).item()
        m.entity_embedding.weight.data[0] += 1.0
        score_after = m.score_pairs([0], [0]).item()
        assert score_before != score_after


class TestGNNCFExtras:
    """LightGCN / NGCF — extra CF references beyond the paper's Table IV."""

    @pytest.fixture(params=["lightgcn", "ngcf"])
    def gnn_cf(self, request, tiny_dataset):
        return make_baseline(request.param, tiny_dataset, seed=0, dim=8, n_layers=2)

    def test_scores_finite(self, gnn_cf, tiny_dataset):
        scores = gnn_cf.score_pairs(tiny_dataset.train.users[:6], tiny_dataset.train.items[:6])
        assert np.all(np.isfinite(scores.numpy()))

    def test_training_reduces_loss(self, gnn_cf, tiny_dataset):
        rng = np.random.default_rng(0)
        users, pos = tiny_dataset.train.users, tiny_dataset.train.items
        opt = Adam(gnn_cf.parameters(), lr=1e-2)
        losses = []
        for _ in range(6):
            neg = rng.integers(0, tiny_dataset.n_items, len(users))
            loss = gnn_cf.loss(users, pos, neg)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_predict_cache_invalidated_by_training(self, gnn_cf, tiny_dataset):
        users, items = tiny_dataset.train.users[:4], tiny_dataset.train.items[:4]
        before = gnn_cf.predict(users, items).copy()
        opt = Adam(gnn_cf.parameters(), lr=5e-2)
        neg = np.random.default_rng(0).integers(0, tiny_dataset.n_items, len(tiny_dataset.train.users))
        loss = gnn_cf.loss(tiny_dataset.train.users, tiny_dataset.train.items, neg)
        opt.zero_grad(); loss.backward(); opt.step()
        gnn_cf.begin_epoch(1)
        after = gnn_cf.predict(users, items)
        assert not np.allclose(before, after)

    def test_propagation_shape(self, tiny_dataset):
        from repro.baselines import LightGCN, NGCF

        light = LightGCN(tiny_dataset, dim=8, n_layers=2, seed=0)
        assert light._propagate().shape == (tiny_dataset.n_users + tiny_dataset.n_items, 8)
        ngcf = NGCF(tiny_dataset, dim=8, n_layers=2, seed=0)
        assert ngcf._propagate().shape == (tiny_dataset.n_users + tiny_dataset.n_items, 8 * 3)

    def test_lightgcn_layer0_is_plain_mf(self, tiny_dataset):
        from repro.baselines import LightGCN

        model = LightGCN(tiny_dataset, dim=8, n_layers=0, seed=0)
        users, items = [0, 1], [2, 3]
        expected = (
            model.user_embedding.weight.data[users]
            * model.item_embedding.weight.data[items]
        ).sum(axis=-1)
        np.testing.assert_allclose(model.predict(users, items), expected)
