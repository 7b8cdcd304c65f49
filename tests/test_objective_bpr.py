"""Pairwise BPR training objective: ops, dispatch, trainer wiring.

``TrainerConfig.objective = "bpr"`` switches every model from its native
(ce) loss to the KGAT/RecBole pairwise recipe: BPR over (positive,
negative) score pairs plus an explicit EmbLoss over the batch's embedding
rows, with optimizer weight decay zeroed so the L2 penalty is not applied
twice.  ``"ce"`` must remain bit-identical to the pre-objective code.
"""

import numpy as np
import pytest

from repro.autograd import ops
from repro.baselines import BPRMF, KGAT, LightGCN, NGCF, make_baseline
from repro.core import CGKGR, CGKGRConfig
from repro.training import Trainer, TrainerConfig


class TestOps:
    def test_bpr_loss_value(self):
        pos = np.array([2.0, 1.0])
        neg = np.array([0.0, 1.5])
        expected = -np.mean(
            np.log(1.0 / (1.0 + np.exp(-(pos - neg))))
        )
        got = ops.bpr_loss(ops.Tensor(pos), ops.Tensor(neg))
        assert got.data == pytest.approx(expected)

    def test_bpr_loss_prefers_separated_scores(self):
        close = ops.bpr_loss(ops.Tensor([1.0]), ops.Tensor([0.9]))
        wide = ops.bpr_loss(ops.Tensor([5.0]), ops.Tensor([-5.0]))
        assert wide.data < close.data

    def test_bpr_loss_stable_at_extreme_margins(self):
        # log σ of a huge negative margin must not overflow to -inf.
        bad = ops.bpr_loss(ops.Tensor([-1e4]), ops.Tensor([1e4]))
        assert np.isfinite(bad.data)

    def test_emb_loss_value(self):
        # Σ ½‖t‖² / batch, batch = leading dim of the first block.
        a = ops.Tensor(np.ones((4, 3)))
        b = ops.Tensor(np.full((8, 2), 2.0))
        expected = 0.5 * (12.0 + 64.0) / 4
        assert ops.emb_loss([a, b]).data == pytest.approx(expected)

    def test_emb_loss_empty_list_is_zero(self):
        assert ops.emb_loss([]).data == 0.0

    def test_emb_loss_gradients_flow(self):
        t = ops.Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        loss = ops.emb_loss([t])
        loss.backward()
        np.testing.assert_allclose(t.grad, [[3.0, 4.0]])


class TestObjectiveDispatch:
    def test_default_objective_is_ce(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        assert model.objective == "ce"

    def test_unknown_objective_rejected_by_config(self):
        with pytest.raises(ValueError, match="objective"):
            TrainerConfig(objective="hinge")

    def test_unknown_objective_rejected_by_model(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        model.objective = "hinge"
        with pytest.raises(ValueError, match="hinge"):
            model.training_loss(
                np.array([0]), np.array([0]), np.array([1])
            )

    def test_training_loss_dispatches(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        users = np.array([0, 1, 2])
        pos = np.array([0, 1, 2])
        neg = np.array([3, 4, 5])
        ce = model.training_loss(users, pos, neg)
        assert ce.data == pytest.approx(model.loss(users, pos, neg).data)
        model.objective = "bpr"
        pairwise = model.training_loss(users, pos, neg)
        assert pairwise.data == pytest.approx(
            model.pairwise_loss(users, pos, neg).data
        )

    def test_pairwise_loss_finite_and_differentiable(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        loss = model.pairwise_loss(
            np.array([0, 1]), np.array([0, 1]), np.array([2, 3])
        )
        assert np.isfinite(loss.data)
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and any(np.any(g != 0) for g in grads)


class TestTrainerWiring:
    def test_weight_decay_zeroed_under_bpr(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, l2=1e-3, seed=0)
        trainer = Trainer(
            model, TrainerConfig(epochs=1, eval_task="none", seed=0, objective="bpr")
        )
        assert trainer.optimizer.weight_decay == 0.0
        assert model.objective == "bpr"

    def test_weight_decay_kept_under_ce(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, l2=1e-3, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1, eval_task="none", seed=0))
        assert trainer.optimizer.weight_decay == pytest.approx(1e-3)

    def test_ce_path_bit_identical_to_default(self, tiny_dataset):
        """objective="ce" (explicit) must equal the implicit default."""
        runs = []
        for kwargs in ({}, {"objective": "ce"}):
            model = BPRMF(tiny_dataset, dim=8, seed=0)
            Trainer(
                model, TrainerConfig(epochs=3, eval_task="none", seed=0, **kwargs)
            ).fit()
            runs.append(model.state_dict())
        for key in runs[0]:
            np.testing.assert_array_equal(runs[0][key], runs[1][key])

    def test_bpr_diverges_from_ce(self, tiny_dataset):
        states = []
        for objective in ("ce", "bpr"):
            model = BPRMF(tiny_dataset, dim=8, seed=0)
            Trainer(
                model,
                TrainerConfig(epochs=2, eval_task="none", seed=0, objective=objective),
            ).fit()
            states.append(model.state_dict())
        assert any(
            not np.array_equal(states[0][k], states[1][k]) for k in states[0]
        )

    def test_run_record_includes_objective(self, tiny_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        trainer = Trainer(
            model, TrainerConfig(epochs=1, eval_task="none", seed=0, objective="bpr")
        )
        trainer.fit()
        import json

        records = list(tmp_path.glob("*.json"))
        if records:  # run recording enabled in this build
            payload = json.loads(records[0].read_text())
            assert payload["trainer"]["objective"] == "bpr"


class TestModelZoo:
    """BPR must train CG-KGR and the baselines, not just BPRMF."""

    def _fit_bpr(self, model, tiny_dataset, epochs=3):
        trainer = Trainer(
            model,
            TrainerConfig(epochs=epochs, eval_task="none", seed=0, objective="bpr"),
        )
        result = trainer.fit()
        losses = [h["loss"] for h in result.history]
        assert all(np.isfinite(loss) for loss in losses)
        assert losses[-1] <= losses[0]
        return losses

    def test_cgkgr_trains_with_bpr(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, batch_size=32)
        self._fit_bpr(CGKGR(tiny_dataset, cfg, seed=0), tiny_dataset)

    @pytest.mark.parametrize("name", ["bprmf", "lightgcn", "kgcn", "kgat"])
    def test_baselines_train_with_bpr(self, tiny_dataset, name):
        model = make_baseline(name, tiny_dataset, seed=0, dim=8)
        self._fit_bpr(model, tiny_dataset)

    def test_kgat_batch_embeddings_use_unified_graph(self, tiny_dataset):
        model = KGAT(tiny_dataset, dim=8, n_layers=1, neighbor_size=2, seed=0)
        rows = model.batch_embeddings(
            np.array([0, 1]), np.array([0, 1]), np.array([2, 3])
        )
        assert len(rows) == 3  # users, positives, negatives
        assert rows[0].shape[0] == 2
        assert rows[1].shape[0] == 2

    @pytest.mark.parametrize("cls", [LightGCN, NGCF])
    def test_cached_tables_invalidated(self, tiny_dataset, cls):
        # pairwise_loss must drop the prediction table like loss() does,
        # otherwise eval after a bpr step scores with stale propagation.
        model = cls(tiny_dataset, dim=8, n_layers=1, seed=0)
        model.predict(np.array([0]), np.array([0]))
        assert model._table is not None
        model.pairwise_loss(np.array([0]), np.array([0]), np.array([1]))
        assert model._table is None
