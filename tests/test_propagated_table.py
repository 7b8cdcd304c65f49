"""LightGCN, NGCF and KGAT score inference from a cached propagated table.

The table must match the parameters it is read with.  The cases below
train past the best validation epoch, so `Trainer.fit` restores earlier
weights than the last step left; `predict` (the cached table) must then
agree bit for bit with `score_pairs` (a fresh propagation), and a
shipped index must rank like one rebuilt from the shipped weights.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.baselines import make_baseline
from repro.cli import main
from repro.data import generate_profile
from repro.serve import engine_from_checkpoint
from repro.training import Trainer, TrainerConfig


def _all_pairs(dataset):
    users = np.repeat(np.arange(dataset.n_users), dataset.n_items)
    items = np.tile(np.arange(dataset.n_items), dataset.n_users)
    return users, items


def _assert_predict_is_fresh(model):
    users, items = _all_pairs(model.dataset)
    cached = model.predict(users, items)
    with no_grad():
        fresh = model.score_pairs(users, items).numpy()
    assert np.array_equal(cached, fresh)


# Movie, seed 0: each run's best validation epoch comes before its last.
@pytest.mark.parametrize("key,epochs", [("lightgcn", 12), ("ngcf", 6), ("kgat", 6)])
def test_predict_reads_the_restored_weights(key, epochs):
    model = make_baseline(key, generate_profile("movie", seed=0), seed=0)
    fit = Trainer(model, TrainerConfig(epochs=epochs, early_stop_patience=100)).fit()
    assert fit.best_epoch < epochs
    _assert_predict_is_fresh(model)


def test_predict_reads_the_pretrained_weights(tiny_dataset):
    model = make_baseline("kgat", tiny_dataset, seed=0, dim=8, n_layers=1, neighbor_size=2)
    before = model.predict(*_all_pairs(tiny_dataset))
    model.pretrain(epochs=2)
    assert not np.array_equal(model.predict(*_all_pairs(tiny_dataset)), before)
    _assert_predict_is_fresh(model)


@pytest.mark.parametrize(
    "path", ["training_loss", "begin_epoch", "load_state_dict", "load_extra_state"]
)
@pytest.mark.parametrize("key", ["lightgcn", "ngcf", "kgat"])
def test_every_parameter_path_drops_the_table(tiny_dataset, key, path):
    model = make_baseline(key, tiny_dataset, seed=0, dim=8)
    calls = {
        "training_loss": lambda: model.training_loss(np.array([0]), np.array([0]), np.array([1])),
        "begin_epoch": lambda: model.begin_epoch(1),
        "load_state_dict": lambda: model.load_state_dict(model.state_dict()),
        "load_extra_state": lambda: model.load_extra_state(model.extra_state()),
    }
    model.predict(np.array([0]), np.array([0]))
    assert model._table is not None
    calls[path]()
    assert model._table is None


def test_exported_index_ranks_like_the_shipped_weights(tmp_path, capsys):
    out = tmp_path / "ngcf"
    argv = ["export", "--model", "ngcf", "--dataset", "movie", "--epochs", "6",
            "--patience", "100", "--index-mode", "dense", "--out", str(out)]
    assert main(argv) == 0
    assert "best epoch 5" in capsys.readouterr().out
    shipped = engine_from_checkpoint(str(out))
    rebuilt = engine_from_checkpoint(str(out), use_saved_index=False)
    for user in range(shipped.model.dataset.n_users):
        items, scores = shipped.recommend(user, 10)
        ref_items, ref_scores = rebuilt.recommend(user, 10)
        assert np.array_equal(items, ref_items)
        assert np.array_equal(scores, ref_scores)
