"""CG-KGR model behaviour: shapes, ablation switches, guidance effects."""

import numpy as np
import pytest

from repro.core import CGKGR, CGKGRConfig, make_variant, paper_config
from repro.core.config import PAPER_TABLE_III, SYNTHETIC_PRESETS


@pytest.fixture(scope="module")
def small_config():
    return CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=2,
                       user_sample_size=4, item_sample_size=4, batch_size=16)


@pytest.fixture(scope="module")
def model(request, small_config):
    tiny = request.getfixturevalue("tiny_dataset")
    return CGKGR(tiny, small_config, seed=0)


class TestConfig:
    def test_defaults_valid(self):
        CGKGRConfig()

    def test_invalid_encoder(self):
        with pytest.raises(ValueError):
            CGKGRConfig(encoder="median")

    def test_invalid_aggregator(self):
        with pytest.raises(ValueError):
            CGKGRConfig(aggregator="mean")

    def test_invalid_guidance_mode(self):
        with pytest.raises(ValueError):
            CGKGRConfig(guidance_mode="xyz")

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            CGKGRConfig(dim=0)

    def test_effective_depth_respects_kg_switch(self):
        cfg = CGKGRConfig(depth=3, use_kg=False)
        assert cfg.effective_depth == 0
        assert CGKGRConfig(depth=3).effective_depth == 3

    def test_with_overrides_is_functional(self):
        base = CGKGRConfig(depth=1)
        changed = base.with_overrides(depth=3)
        assert base.depth == 1 and changed.depth == 3

    def test_paper_table_iii_presets(self):
        for name in ("music", "book", "movie", "restaurant"):
            cfg = paper_config(name, synthetic=False)
            raw = PAPER_TABLE_III[name]
            assert cfg.dim == raw["dim"]
            assert cfg.depth == raw["depth"]
            assert cfg.encoder == "mean"

    def test_synthetic_presets_cover_all_datasets(self):
        assert set(SYNTHETIC_PRESETS) == set(PAPER_TABLE_III)
        # Relative depths follow Table III: music/book 1, movie 2, restaurant 3.
        assert SYNTHETIC_PRESETS["music"].depth == 1
        assert SYNTHETIC_PRESETS["movie"].depth == 2
        assert SYNTHETIC_PRESETS["restaurant"].depth == 3

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            paper_config("groceries")


class TestForward:
    def test_score_shape(self, model, tiny_dataset):
        users = tiny_dataset.train.users[:10]
        items = tiny_dataset.train.items[:10]
        scores = model.score_pairs(users, items)
        assert scores.shape == (10,)

    def test_scores_finite(self, model, tiny_dataset):
        scores = model.score_pairs(
            tiny_dataset.train.users[:20], tiny_dataset.train.items[:20]
        )
        assert np.all(np.isfinite(scores.numpy()))

    def test_score_all_items(self, model, tiny_dataset):
        scores = model.score_all_items(0)
        assert scores.shape == (tiny_dataset.n_items,)

    def test_loss_backward_reaches_all_parameters(self, model, tiny_dataset):
        users = tiny_dataset.train.users[:8]
        pos = tiny_dataset.train.items[:8]
        neg = np.random.default_rng(0).integers(0, tiny_dataset.n_items, 8)
        model.zero_grad()
        model.loss(users, pos, neg).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no gradient reached {name}"

    def test_deterministic_given_same_sampler_state(self, tiny_dataset, small_config):
        m1 = CGKGR(tiny_dataset, small_config, seed=3)
        m2 = CGKGR(tiny_dataset, small_config, seed=3)
        users = tiny_dataset.train.users[:5]
        items = tiny_dataset.train.items[:5]
        np.testing.assert_allclose(
            m1.score_pairs(users, items).numpy(), m2.score_pairs(users, items).numpy()
        )

    def test_begin_epoch_resamples(self, tiny_dataset, small_config):
        m = CGKGR(tiny_dataset, small_config, seed=0)
        before = m.sampler._kg_neighbors.copy()
        changed = False
        for epoch in range(5):
            m.begin_epoch(epoch)
            if not np.array_equal(before, m.sampler._kg_neighbors):
                changed = True
                break
        assert changed

    def test_resampling_can_be_disabled(self, tiny_dataset, small_config):
        cfg = small_config.with_overrides(resample_each_epoch=False)
        m = CGKGR(tiny_dataset, cfg, seed=0)
        before = m.sampler._kg_neighbors.copy()
        m.begin_epoch(1)
        np.testing.assert_array_equal(before, m.sampler._kg_neighbors)


class TestDepth:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_all_depths_run(self, tiny_dataset, depth):
        cfg = CGKGRConfig(dim=8, depth=depth, n_heads=2, kg_sample_size=2)
        m = CGKGR(tiny_dataset, cfg, seed=0)
        scores = m.score_pairs([0, 1], [0, 1])
        assert np.all(np.isfinite(scores.numpy()))

    def test_depth_zero_equals_no_kg(self, tiny_dataset):
        base = CGKGRConfig(dim=8, depth=0, n_heads=2, kg_sample_size=2)
        no_kg = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=2, use_kg=False)
        m1 = CGKGR(tiny_dataset, base, seed=5)
        m2 = CGKGR(tiny_dataset, no_kg, seed=5)
        users, items = [0, 1, 2], [3, 4, 5]
        np.testing.assert_allclose(
            m1.score_pairs(users, items).numpy(),
            m2.score_pairs(users, items).numpy(),
        )


class TestGuidance:
    def test_guidance_changes_scores(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        with_g = CGKGR(tiny_dataset, cfg, seed=2)
        without_g = CGKGR(
            tiny_dataset, cfg.with_overrides(use_guidance=False), seed=2
        )
        users, items = [0, 1, 2, 3], [0, 1, 2, 3]
        a = with_g.score_pairs(users, items).numpy()
        b = without_g.score_pairs(users, items).numpy()
        assert not np.allclose(a, b)

    def test_explain_reports_weight_shift(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=3)
        m = CGKGR(tiny_dataset, cfg, seed=0)
        report = m.explain(0, 0)
        assert report["entities"].shape == (3,)
        assert report["guided_weights"].shape == (3,)
        live = report["mask"]
        if live.any():
            assert report["guided_weights"][live].sum() == pytest.approx(1.0)
            assert report["unguided_weights"][live].sum() == pytest.approx(1.0)

    def test_explain_wo_att_reports_applied_uniform_weights(self, tiny_dataset):
        cfg = CGKGRConfig(
            dim=8, depth=1, n_heads=2, kg_sample_size=3, use_attention=False
        )
        m = CGKGR(tiny_dataset, cfg, seed=0)
        report = m.explain(0, 0)
        live = report["mask"]
        assert live.any()
        expected = live / live.sum()
        np.testing.assert_array_equal(report["guided_weights"], expected)
        np.testing.assert_array_equal(report["unguided_weights"], expected)

    def test_explain_wo_kg_raises(self, tiny_dataset):
        m = make_variant(
            "wo_kg", tiny_dataset, CGKGRConfig(dim=8, depth=2, n_heads=2), seed=0
        )
        with pytest.raises(ValueError, match="no KG extraction"):
            m.explain(0, 0)

    @pytest.mark.parametrize("mode", ["full", "ne", "pf", "ag"])
    def test_guidance_modes_run(self, tiny_dataset, mode):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, guidance_mode=mode)
        m = CGKGR(tiny_dataset, cfg, seed=0)
        assert np.all(np.isfinite(m.score_pairs([0], [0]).numpy()))

    def test_guidance_modes_differ(self, tiny_dataset):
        users, items = list(range(8)), list(range(8))
        outputs = {}
        for mode in ("full", "ne", "pf", "ag"):
            cfg = CGKGRConfig(
                dim=8, depth=1, n_heads=2, kg_sample_size=2, guidance_mode=mode
            )
            outputs[mode] = CGKGR(tiny_dataset, cfg, seed=9).score_pairs(users, items).numpy()
        assert not np.allclose(outputs["full"], outputs["ne"])
        assert not np.allclose(outputs["pf"], outputs["ag"])


class TestVariants:
    def test_all_named_variants_instantiate(self, tiny_dataset):
        base = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=2)
        for name in ("full", "ne", "pf", "ag", "wo_ui", "wo_kg", "wo_att", "wo_cg", "wo_he"):
            m = make_variant(name, tiny_dataset, base, seed=0)
            scores = m.score_pairs([0, 1], [0, 1]).numpy()
            assert np.all(np.isfinite(scores))

    def test_unknown_variant(self, tiny_dataset):
        with pytest.raises(ValueError):
            make_variant("wo_everything", tiny_dataset)

    def test_wo_he_caps_depth(self, tiny_dataset):
        base = CGKGRConfig(dim=8, depth=3, n_heads=2, kg_sample_size=2)
        m = make_variant("wo_he", tiny_dataset, base)
        assert m.config.depth == 1

    def test_variant_names(self, tiny_dataset):
        assert make_variant("full", tiny_dataset).name == "CG-KGR"
        assert make_variant("wo_cg", tiny_dataset).name == "CG-KGR[wo_cg]"

    def test_wo_att_ignores_attention_parameters(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, use_attention=False)
        m = CGKGR(tiny_dataset, cfg, seed=1)
        users, items = [0, 1], [2, 3]
        before = m.score_pairs(users, items).numpy()
        m.kg_attention.relation_matrices.data += 10.0
        m.collab_attention.relation_matrix.data += 10.0
        after = m.score_pairs(users, items).numpy()
        np.testing.assert_allclose(before, after)


#: One grid for the ``score_users`` equivalence: every depth, each
#: ablation switch off, every guidance mode and encoder, a model on the
#: default implementation, and item blocks smaller than the catalogue.
SCORE_USERS_GRID = [
    *[pytest.param({"depth": d}, id=f"depth{d}") for d in range(4)],
    *[
        pytest.param({switch: False}, id=f"no_{switch[4:]}")
        for switch in ("use_attention", "use_guidance", "use_interactive", "use_kg")
    ],
    *[pytest.param({"guidance_mode": m}, id=f"mode_{m}") for m in ("ne", "pf", "ag", "full")],
    *[pytest.param({"encoder": e}, id=f"encoder_{e}") for e in ("sum", "mean", "pmax")],
    pytest.param("kgcn", id="kgcn_default"),
    pytest.param("blocks", id="item_blocks"),
]


class TestScoreUsers:
    @pytest.mark.parametrize("case", SCORE_USERS_GRID)
    def test_equals_stacked_score_all_items(
        self, case, tiny_dataset, small_config, monkeypatch
    ):
        if case == "kgcn":
            from repro.baselines import KGCN

            model = KGCN(tiny_dataset, dim=8, depth=2, neighbor_size=2, seed=0)
        else:
            if case == "blocks":
                from repro.baselines import base

                monkeypatch.setattr(base, "ITEM_BLOCK", 7)
                case = {}
            model = CGKGR(tiny_dataset, small_config.with_overrides(**case), seed=0)
        users = [*range(tiny_dataset.n_users), 3]
        stacked = np.stack([model.score_all_items(u) for u in users])
        assert np.array_equal(model.score_users(users), stacked)

    def test_no_users(self, model, tiny_dataset):
        assert model.score_users([]).shape == (0, tiny_dataset.n_items)
