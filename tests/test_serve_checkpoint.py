"""Checkpoint round-trips must be bit-exact for every model family.

Covers CG-KGR (extra_state = sampler tables + dataclass config), KGCN
(extra_state, plain-kwargs config) and BPRMF (no extra_state), plus the
manifest validation error paths.
"""

import numpy as np
import pytest

from repro.baselines import BPRMF, KGCN
from repro.core import CGKGR, CGKGRConfig
from repro.serve.checkpoint import (
    build_model,
    load_checkpoint,
    model_key_of,
    read_manifest,
    save_checkpoint,
)
from repro.training import Trainer, TrainerConfig


def _train_briefly(model) -> None:
    Trainer(model, TrainerConfig(epochs=2, eval_task="none", seed=0)).fit()


def _all_pairs(dataset):
    users = np.repeat(np.arange(dataset.n_users), 3)
    items = np.arange(len(users)) % dataset.n_items
    return users, items


@pytest.mark.parametrize(
    "factory",
    [
        lambda ds: BPRMF(ds, dim=8, seed=3),
        lambda ds: KGCN(ds, dim=8, depth=2, neighbor_size=3, seed=3),
        lambda ds: CGKGR(ds, CGKGRConfig(dim=8, depth=2, n_heads=2), seed=3),
    ],
    ids=["bprmf", "kgcn", "cg-kgr"],
)
def test_round_trip_is_bit_exact(factory, tiny_dataset, tmp_path):
    model = factory(tiny_dataset)
    _train_briefly(model)
    save_checkpoint(model, str(tmp_path / "ckpt"))
    restored = load_checkpoint(str(tmp_path / "ckpt"), tiny_dataset)
    assert type(restored) is type(model)
    users, items = _all_pairs(tiny_dataset)
    np.testing.assert_array_equal(
        model.predict(users, items), restored.predict(users, items)
    )


def test_round_trip_restores_nondefault_config(tiny_dataset, tmp_path):
    model = KGCN(tiny_dataset, dim=4, depth=2, neighbor_size=3,
                 aggregator="concat", seed=1)
    save_checkpoint(model, str(tmp_path / "ckpt"))
    restored = load_checkpoint(str(tmp_path / "ckpt"), tiny_dataset)
    assert restored.dim == 4
    assert restored.depth == 2
    assert restored.aggregator == "concat"
    users, items = _all_pairs(tiny_dataset)
    np.testing.assert_array_equal(
        model.predict(users, items), restored.predict(users, items)
    )


def test_manifest_contents(tiny_dataset, tmp_path):
    model = BPRMF(tiny_dataset, dim=8, seed=3)
    save_checkpoint(
        model, str(tmp_path / "ckpt"), metrics={"val_recall@20": 0.5}
    )
    manifest = read_manifest(str(tmp_path / "ckpt"))
    assert manifest["model_key"] == "bprmf"
    assert manifest["dataset"]["n_users"] == tiny_dataset.n_users
    assert manifest["metrics"]["val_recall@20"] == 0.5
    assert manifest["n_parameters"] == model.num_parameters()


def test_dataset_spec_rebuilds_dataset(tmp_path):
    from repro.data import generate_profile

    dataset = generate_profile("music", seed=0, scale=0.3)
    model = BPRMF(dataset, dim=8, seed=0)
    _train_briefly(model)
    save_checkpoint(
        model,
        str(tmp_path / "ckpt"),
        dataset_spec={"profile": "music", "seed": 0, "scale": 0.3},
    )
    restored = load_checkpoint(str(tmp_path / "ckpt"))  # no dataset passed
    users, items = _all_pairs(dataset)
    np.testing.assert_array_equal(
        model.predict(users, items), restored.predict(users, items)
    )


def test_mismatched_dataset_rejected(tiny_dataset, micro_dataset, tmp_path):
    model = BPRMF(tiny_dataset, dim=8)
    save_checkpoint(model, str(tmp_path / "ckpt"))
    with pytest.raises(ValueError, match="dataset mismatch"):
        load_checkpoint(str(tmp_path / "ckpt"), micro_dataset)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope"))


def test_no_dataset_spec_requires_dataset(tiny_dataset, tmp_path):
    model = BPRMF(tiny_dataset, dim=8)
    save_checkpoint(model, str(tmp_path / "ckpt"))
    with pytest.raises(ValueError, match="dataset_spec"):
        load_checkpoint(str(tmp_path / "ckpt"))


def test_model_key_round_trip(tiny_dataset):
    model = KGCN(tiny_dataset, dim=4)
    key = model_key_of(model)
    rebuilt = build_model(key, tiny_dataset, seed=0, config=model.export_config())
    assert type(rebuilt) is KGCN
    assert rebuilt.neighbor_size == model.neighbor_size


def test_export_config_reads_constructor_attrs(tiny_dataset):
    model = BPRMF(tiny_dataset, dim=8, lr=0.1, l2=1e-3)
    config = model.export_config()
    assert config == {"dim": 8, "lr": 0.1, "l2": 1e-3}


def test_strict_load_rejects_incomplete_state(tiny_dataset):
    model = BPRMF(tiny_dataset, dim=8)
    state = model.state_dict()
    state.pop(next(iter(state)))
    with pytest.raises(KeyError, match="missing"):
        model.load_state_dict(state)


# ----------------------------------------------------------------------
# engine_from_checkpoint(index_users=N): one serve boot
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shipped_cgkgr(tiny_dataset, tmp_path_factory):
    """A trained CG-KGR checkpoint that ships its dense index."""
    from repro.serve import TopKIndex

    model = CGKGR(tiny_dataset, CGKGRConfig(dim=8, depth=2, n_heads=2), seed=3)
    _train_briefly(model)
    path = str(tmp_path_factory.mktemp("shipped") / "ckpt")
    index = TopKIndex.build(model, mask_splits=[tiny_dataset.train, tiny_dataset.valid])
    save_checkpoint(model, path, index=index)
    return path


def _two_engine_boot(path, dataset, n):
    """The subset boot as `repro serve --index-users N` did it before it
    was one call: boot from the shipped index, rank users by training
    degree, build a second index over the top N and a second engine."""
    from repro.serve import ServingEngine, TopKIndex
    from repro.serve.engine import engine_from_checkpoint

    engine = engine_from_checkpoint(path, dataset=dataset)
    train = engine.model.dataset.train
    degree = np.zeros(train.n_users, dtype=np.int64)
    np.add.at(degree, train.users, 1)
    users = np.argsort(-degree, kind="stable")[:n]
    index = TopKIndex.build(
        engine.model,
        users=users,
        mask_splits=[engine.model.dataset.train, engine.model.dataset.valid],
    )
    return ServingEngine(index, model=engine.model)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_index_users_boot_matches_the_two_engine_boot(shipped_cgkgr, tiny_dataset, n):
    from repro.serve.engine import engine_from_checkpoint

    engine = engine_from_checkpoint(shipped_cgkgr, dataset=tiny_dataset, index_users=n)
    reference = _two_engine_boot(shipped_cgkgr, tiny_dataset, n)
    assert engine.index.n_indexed_users == n
    np.testing.assert_array_equal(engine.index.user_ids, reference.index.user_ids)
    for user in range(tiny_dataset.n_users):
        items, scores = engine.recommend(user, 5)
        ref_items, ref_scores = reference.recommend(user, 5)
        np.testing.assert_array_equal(items, ref_items)
        np.testing.assert_array_equal(scores, ref_scores)


def test_index_users_never_loads_the_shipped_index(
    shipped_cgkgr, tiny_dataset, monkeypatch
):
    import repro.serve.index as index_mod
    from repro.serve.engine import engine_from_checkpoint

    real_load = index_mod.load_index
    calls = []

    def refuse(path):
        raise AssertionError(f"load_index({path}) on a subset boot")

    monkeypatch.setattr(index_mod, "load_index", refuse)
    engine = engine_from_checkpoint(shipped_cgkgr, dataset=tiny_dataset, index_users=3)
    assert engine.index.n_indexed_users == 3 and engine.index.sha256 is None

    def counting(path):
        calls.append(path)
        return real_load(path)

    # N >= n_users means everyone: the shipped index, checked and loaded.
    monkeypatch.setattr(index_mod, "load_index", counting)
    for n in (0, tiny_dataset.n_users, tiny_dataset.n_users + 5):
        engine = engine_from_checkpoint(
            shipped_cgkgr, dataset=tiny_dataset, index_users=n
        )
        assert engine.index.n_indexed_users == tiny_dataset.n_users
        assert engine.index.sha256 == read_manifest(shipped_cgkgr)["index"]["sha256"]
    assert len(calls) == 3


def test_full_boot_reads_the_weights_once(shipped_cgkgr, tiny_dataset, monkeypatch):
    """A boot that serves the shipped index verifies ``weights.npz`` once,
    and answers with the shipped index's rankings, score for score."""
    import repro.serve.checkpoint as checkpoint_mod
    from repro.serve.engine import engine_from_checkpoint
    from repro.serve.index import load_index

    real_load = checkpoint_mod.load_npz
    kinds = []

    def counting(path, kind):
        kinds.append(kind)
        return real_load(path, kind)

    monkeypatch.setattr(checkpoint_mod, "load_npz", counting)
    engine = engine_from_checkpoint(shipped_cgkgr, dataset=tiny_dataset, index_users=0)
    assert kinds == ["checkpoint"]
    assert engine.index.sha256 == engine.model.manifest["index"]["sha256"]
    shipped = load_index(f"{shipped_cgkgr}/{checkpoint_mod.INDEX_FILE}")
    for user in range(tiny_dataset.n_users):
        items, scores = engine.recommend(user, 5)
        ref_items, ref_scores = shipped.topk([user], 5)
        np.testing.assert_array_equal(items, ref_items[0])
        np.testing.assert_array_equal(scores, ref_scores[0])


def test_negative_index_users_rejected(shipped_cgkgr, tiny_dataset):
    from repro.serve.engine import engine_from_checkpoint

    with pytest.raises(ValueError, match="index_users"):
        engine_from_checkpoint(shipped_cgkgr, dataset=tiny_dataset, index_users=-5)


# ----------------------------------------------------------------------
# Index files written while the score block was a constructor argument
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["factorized", "dense", "ann"])
def test_index_files_with_block_size_still_load(
    tiny_dataset, tmp_path, monkeypatch, mode
):
    """Those files carry ``block_size`` in their meta. ``load_index`` reads
    them and a checkpoint shipping one boots, both answering exactly as a
    fresh build does."""
    from repro.serve import ServingEngine, TopKIndex, load_index
    from repro.serve.checkpoint import INDEX_FILE
    from repro.serve.engine import engine_from_checkpoint
    from repro.utils.artifact import load_npz, save_npz

    model = BPRMF(tiny_dataset, dim=8, seed=3)
    _train_briefly(model)
    fresh = TopKIndex.build(
        model,
        mask_splits=[tiny_dataset.train, tiny_dataset.valid],
        mode=mode,
        ann_params={"nlist": 4, "nprobe": 2, "seed": 0} if mode == "ann" else None,
    )
    artifact = fresh._artifact

    def with_block_size():
        arrays, meta = artifact()
        assert "block_size" not in meta
        return arrays, {**meta, "block_size": 256}

    path = str(tmp_path / "index.npz")
    save_npz(path, *with_block_size())
    # save_checkpoint writes whatever the index's _artifact returns.
    monkeypatch.setattr(fresh, "_artifact", with_block_size)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt, index=fresh)
    assert load_npz(f"{ckpt}/{INDEX_FILE}", ("exact", "ivf"))[1]["block_size"] == 256

    loaded = load_index(path)
    engine = engine_from_checkpoint(ckpt, dataset=tiny_dataset)
    assert engine.index.sha256 == read_manifest(ckpt)["index"]["sha256"]
    users = np.arange(tiny_dataset.n_users)
    want_items, want_scores = fresh.topk(users, 10)
    reference = ServingEngine(fresh)
    for index in (loaded, engine.index):
        assert type(index) is type(fresh) and index.mode == fresh.mode
        assert getattr(index, "stats", None) == getattr(fresh, "stats", None)
        items, scores = index.topk(users, 10)
        np.testing.assert_array_equal(items, want_items)
        np.testing.assert_array_equal(scores, want_scores)
    for user in users:
        for got, want in zip(engine.recommend(user, 10), reference.recommend(user, 10)):
            np.testing.assert_array_equal(got, want)
