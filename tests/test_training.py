"""Trainer and experiment runner: early stopping, timing, pairing."""

import numpy as np
import pytest

from repro.baselines import BPRMF
from repro.core import CGKGR, CGKGRConfig
from repro.training import (
    ComparisonResult,
    Trainer,
    TrainerConfig,
    run_comparison,
    run_single,
)
from repro.training.experiment import TrialRecord


class TestTrainerConfig:
    def test_invalid_task(self):
        with pytest.raises(ValueError):
            TrainerConfig(eval_task="ranking")

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eval_every", 0),
            ("eval_k", 0),
            ("early_stop_patience", 0),
            ("eval_max_users", 0),
            ("eval_max_users", -5),
        ],
    )
    def test_nonpositive_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})


class TestTrainer:
    def test_loss_decreases(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=1e-2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=10, eval_task="none", seed=0))
        result = trainer.fit()
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_history_records_metrics(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        trainer = Trainer(
            model, TrainerConfig(epochs=3, eval_task="topk", eval_metric="recall@20", seed=0)
        )
        result = trainer.fit()
        assert all("recall@20" in h for h in result.history)
        assert result.best_epoch >= 1
        assert result.best_metric > float("-inf")

    def test_unknown_metric_raises(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        trainer = Trainer(
            model, TrainerConfig(epochs=1, eval_task="topk", eval_metric="mrr@7", seed=0)
        )
        with pytest.raises(KeyError):
            trainer.fit()

    def test_early_stopping_triggers(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=1e-6, seed=0)  # barely moves
        trainer = Trainer(
            model,
            TrainerConfig(epochs=50, early_stop_patience=2, eval_task="topk", seed=0),
        )
        result = trainer.fit()
        assert result.stopped_early
        assert len(result.history) < 50

    def test_best_state_restored(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=5e-2, seed=0)
        trainer = Trainer(
            model,
            TrainerConfig(epochs=6, eval_task="topk", eval_metric="recall@20", seed=0),
        )
        result = trainer.fit()
        # After restore, re-evaluating must reproduce the best metric.
        metrics = trainer.evaluate()
        assert metrics["recall@20"] == pytest.approx(result.best_metric)

    def test_fit_restores_best_epoch_parameters_exactly(self, tiny_dataset):
        """Post-fit scores must be the best-validation-epoch scores.

        Training is fully seeded, so a second model trained for exactly
        ``best_epoch`` epochs walks the identical parameter trajectory;
        the fitted model (restored via state_dict + extra_state) must
        score bit-identically to it.
        """
        config = CGKGRConfig(dim=8, depth=1, n_heads=2, batch_size=32)
        model = CGKGR(tiny_dataset, config, seed=3)
        result = Trainer(
            model,
            TrainerConfig(epochs=5, eval_task="topk", eval_metric="recall@20", seed=0),
        ).fit()
        assert 1 <= result.best_epoch <= 5

        replay = CGKGR(tiny_dataset, config, seed=3)
        Trainer(
            replay,
            TrainerConfig(epochs=result.best_epoch, eval_task="none", seed=0),
        ).fit()

        users = np.repeat(np.arange(tiny_dataset.n_users), 2)
        items = np.arange(len(users)) % tiny_dataset.n_items
        np.testing.assert_array_equal(
            model.predict(users, items), replay.predict(users, items)
        )
        state, replay_state = model.state_dict(), replay.state_dict()
        assert set(state) == set(replay_state)
        for name in state:
            np.testing.assert_array_equal(state[name], replay_state[name])

    def test_timing_recorded(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=2, eval_task="none", seed=0))
        result = trainer.fit()
        assert result.time_per_epoch > 0
        assert result.total_time >= result.time_per_epoch

    def test_ctr_eval_task(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        trainer = Trainer(
            model, TrainerConfig(epochs=2, eval_task="ctr", eval_metric="auc", seed=0)
        )
        result = trainer.fit()
        assert "auc" in result.history[-1]

    def test_cgkgr_trains_through_trainer(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, batch_size=32)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=2, eval_task="none", seed=0))
        result = trainer.fit()
        assert len(result.history) == 2

    def test_one_batch_tape_alive_at_a_time(self, tiny_dataset):
        """Each forward starts with the previous batch's tape already
        freed, so live tensor bytes at forward entry stay flat."""
        from repro.obs import MemoryTracker

        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, batch_size=32)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1, eval_task="none", seed=0))
        forward = model.training_loss
        entry_bytes = []
        with MemoryTracker() as tracker:

            def training_loss(*args):
                entry_bytes.append(tracker.live_bytes)
                return forward(*args)

            model.training_loss = training_loss
            trainer.train_epoch(1)
        assert len(entry_bytes) >= 3
        assert max(entry_bytes) == entry_bytes[0]


class TestRunSingle:
    def test_produces_topk_and_ctr(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, seed=0)
        record = run_single(
            model,
            TrainerConfig(epochs=2, eval_task="none", seed=0),
            topk_values=(5, 10),
        )
        assert "recall@5" in record.metrics
        assert "ndcg@10" in record.metrics
        assert "auc" in record.metrics
        assert record.time_per_epoch > 0


class TestComparisonResult:
    @pytest.fixture()
    def result(self):
        res = ComparisonResult(dataset="demo")
        # Six paired trials: the exact one-sided Wilcoxon minimum p-value
        # for n=6 is 1/64 < 0.05, so a uniform improvement is significant.
        for seed in range(6):
            res.trials.append(TrialRecord("A", seed, {"recall@20": 0.5 + 0.01 * seed}, 1.0, 3, 5.0))
            res.trials.append(TrialRecord("B", seed, {"recall@20": 0.4 + 0.01 * seed}, 2.0, 4, 9.0))
        return res

    def test_models_in_insertion_order(self, result):
        assert result.models() == ["A", "B"]

    def test_mean_std(self, result):
        assert result.mean("A", "recall@20") == pytest.approx(0.525)
        assert result.std("A", "recall@20") > 0

    def test_ranking(self, result):
        assert [m for m, _ in result.ranking("recall@20")] == ["A", "B"]

    def test_best_and_second(self, result):
        assert result.best_and_second("recall@20") == ("A", "B")

    def test_significance_report(self, result):
        report = result.significance("recall@20")
        assert report["best"] == "A"
        assert report["second"] == "B"
        assert report["gain_pct"] > 0
        assert report["significant"]

    def test_timing(self, result):
        per_epoch, best = result.timing("B")
        assert per_epoch == 2.0
        assert best == 4.0

    def test_missing_model_raises(self, result):
        with pytest.raises(KeyError):
            result.values("C", "recall@20")


class TestRunComparison:
    def test_paired_trials(self, tiny_dataset):
        factories = {
            "mf-a": lambda ds, seed: BPRMF(ds, dim=8, seed=seed),
            "mf-b": lambda ds, seed: BPRMF(ds, dim=4, seed=seed),
        }
        result = run_comparison(
            "tiny",
            factories,
            seeds=[0, 1],
            trainer_config=TrainerConfig(epochs=2, eval_task="none"),
            topk_values=(5,),
            eval_ctr_too=False,
            dataset_factory=lambda seed: tiny_dataset,
        )
        assert len(result.trials) == 4
        assert {t.seed for t in result.trials} == {0, 1}
        assert result.models() == ["mf-a", "mf-b"]


class TestFailureInjection:
    def test_nan_loss_raises_with_context(self, tiny_dataset):
        from repro.autograd.tensor import Tensor

        class BrokenModel(BPRMF):
            name = "broken"

            def loss(self, users, pos_items, neg_items):
                return Tensor(float("nan"), requires_grad=True)

        model = BrokenModel(tiny_dataset, dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1, eval_task="none", seed=0))
        with pytest.raises(RuntimeError, match="non-finite loss"):
            trainer.fit()

    def test_exploding_lr_detected(self, tiny_dataset):
        # An absurd learning rate drives BPRMF scores to overflow; the
        # guard should catch the non-finite loss instead of training on.
        model = BPRMF(tiny_dataset, dim=8, lr=1e18, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=50, eval_task="none", seed=0))
        try:
            trainer.fit()
        except RuntimeError as err:
            assert "non-finite" in str(err)
        else:
            # Overflow may saturate instead of producing NaN; either way
            # the trainer must not emit non-finite history entries silently.
            assert all(np.isfinite(h["loss"]) for h in trainer.fit().history)


class TestGridSearch:
    def test_finds_better_configuration(self, tiny_dataset):
        from repro.training import grid_search

        def factory(ds, seed, dim, lr):
            return BPRMF(ds, dim=dim, lr=lr, seed=seed)

        result = grid_search(
            factory,
            tiny_dataset,
            grid={"dim": [4, 8], "lr": [1e-3, 2e-2]},
            trainer_config=TrainerConfig(epochs=4, eval_task="topk", seed=0),
        )
        assert len(result.trace) == 4
        assert result.best_params in [p for p, _ in result.trace]
        assert result.best_metric == max(m for _, m in result.trace)

    def test_top_sorted(self, tiny_dataset):
        from repro.training import grid_search

        result = grid_search(
            lambda ds, seed, dim: BPRMF(ds, dim=dim, seed=seed),
            tiny_dataset,
            grid={"dim": [4, 8, 16]},
            trainer_config=TrainerConfig(epochs=2, eval_task="topk", seed=0),
        )
        top = result.top(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_empty_grid_rejected(self, tiny_dataset):
        from repro.training import grid_search

        with pytest.raises(ValueError):
            grid_search(lambda ds, seed: BPRMF(ds, seed=seed), tiny_dataset, grid={})

    def test_requires_validation_task(self, tiny_dataset):
        from repro.training import grid_search

        with pytest.raises(ValueError):
            grid_search(
                lambda ds, seed, dim: BPRMF(ds, dim=dim, seed=seed),
                tiny_dataset,
                grid={"dim": [4]},
                trainer_config=TrainerConfig(epochs=1, eval_task="none"),
            )

    def test_paper_grids_exported(self):
        from repro.training import PAPER_SEARCH_GRIDS

        assert PAPER_SEARCH_GRIDS["dim"] == [8, 16, 32, 64, 128]
