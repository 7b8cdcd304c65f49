"""Approximate retrieval semantics: k-means and the IVF index.

The load-bearing guarantees: the coarse quantizer is deterministic and
never leaves a cluster empty; at ``nprobe == nlist`` the IVF index
reproduces the exact index bit-for-bit (same tie-breaking);
and every build self-reports its recall@K against brute force.
"""

import numpy as np
import pytest

from repro.baselines import BPRMF
from repro.core import CGKGR, CGKGRConfig
from repro.eval.ranking import build_mask_table, rank_items
from repro.serve import (
    IVFIndex,
    ServingEngine,
    TopKIndex,
    kmeans,
    load_index,
)
from repro.serve.ann import assign_to_centroids
from repro.training import Trainer, TrainerConfig
from repro.utils.artifact import save_npz


def structured_reps(n_users, n_items, dim=16, n_topics=8, seed=0):
    """Topic-mixture embeddings — clusterable, like trained two-tower reps."""
    rng = np.random.default_rng(seed)
    topics = rng.normal(size=(n_topics, dim))
    items = topics[rng.integers(0, n_topics, n_items)] + 0.1 * rng.normal(
        size=(n_items, dim)
    )
    users = topics[rng.integers(0, n_topics, n_users)] + 0.1 * rng.normal(
        size=(n_users, dim)
    )
    return users, items


@pytest.fixture(scope="module")
def reps():
    return structured_reps(n_users=30, n_items=400)


@pytest.fixture(scope="module")
def trained_bprmf(tiny_dataset):
    model = BPRMF(tiny_dataset, dim=8, seed=1)
    Trainer(model, TrainerConfig(epochs=2, eval_task="none", seed=0)).fit()
    return model


class TestKMeans:
    def test_fixed_seed_is_bit_identical(self, reps):
        _, items = reps
        c1, l1 = kmeans(items, 16, seed=7)
        c2, l2 = kmeans(items, 16, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_different_seed_differs(self, reps):
        _, items = reps
        c1, _ = kmeans(items, 16, seed=0)
        c2, _ = kmeans(items, 16, seed=1)
        assert not np.array_equal(c1, c2)

    def test_no_cluster_left_empty(self):
        # Duplicated points force coinciding centroids, which empties
        # clusters on the first assignment; re-splitting must refill them.
        points = np.concatenate(
            [np.zeros((20, 4)), np.ones((2, 4)), np.full((1, 4), 5.0)]
        )
        centroids, labels = kmeans(points, 5, seed=0)
        counts = np.bincount(labels, minlength=len(centroids))
        assert (counts > 0).all()
        assert labels.shape == (len(points),)

    def test_single_cluster_is_the_mean(self, reps):
        _, items = reps
        centroids, labels = kmeans(items, 1, seed=0)
        assert centroids.shape == (1, items.shape[1])
        np.testing.assert_allclose(centroids[0], items.mean(axis=0))
        assert (labels == 0).all()

    def test_nlist_clamped_to_n_points(self, reps):
        _, items = reps
        centroids, labels = kmeans(items[:6], 64, seed=0)
        assert len(centroids) == 6
        assert labels.max() < 6

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 4)), 2)

    def test_labels_are_nearest_centroid(self, reps):
        _, items = reps
        centroids, labels = kmeans(items, 8, seed=3)
        np.testing.assert_array_equal(
            labels, assign_to_centroids(items, centroids)
        )

    def test_blocked_assignment_matches_unblocked(self, reps):
        _, items = reps
        centroids, _ = kmeans(items, 8, seed=3)
        np.testing.assert_array_equal(
            assign_to_centroids(items, centroids, block_size=7),
            assign_to_centroids(items, centroids),
        )


class TestIVFIndex:
    def test_full_probe_matches_exact(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=16, seed=0
        )
        got, scores = index.topk(np.arange(len(users)), 20)
        for user in range(len(users)):
            brute = rank_items(items @ users[user])[:20]
            np.testing.assert_array_equal(got[user], brute)
        assert index.stats["recall@20"] == 1.0

    def test_self_reported_recall_present_and_sane(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=4, seed=0
        )
        for key in ("nlist", "nprobe", "probe_users", "recall@20"):
            assert key in index.stats
        assert 0.0 <= index.stats["recall@20"] <= 1.0
        # Structured topics: even a narrow probe finds most of the top-20.
        assert index.stats["recall@20"] > 0.5

    def test_recall_monotone_in_nprobe(self, reps):
        users, items = reps
        recalls = [
            IVFIndex.from_representations(
                users, items, len(users), len(items),
                nlist=16, nprobe=nprobe, seed=0,
            ).stats["recall@20"]
            for nprobe in (1, 4, 16)
        ]
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 1.0

    def test_masking_matches_exact_protocol(self, reps):
        users, items = reps
        mask_table = [
            np.sort(
                np.random.default_rng(u).choice(len(items), size=30, replace=False)
            )
            for u in range(len(users))
        ]
        index = IVFIndex.from_representations(
            users, items, len(users), len(items),
            mask_table=mask_table, nlist=16, nprobe=16, seed=0,
        )
        got, _ = index.topk([3], 10)
        brute = rank_items(items @ users[3], mask_table[3])[:10]
        np.testing.assert_array_equal(got[0], brute)
        assert not np.isin(got[0], mask_table[3]).any()

    def test_probe_widens_under_heavy_masking(self, reps):
        # nprobe=1 but the top cluster is mostly masked: the probe must
        # widen to fill k instead of returning short/masked results.
        users, items = reps
        masked = np.arange(len(items) - 20, dtype=np.int64)  # all but 20
        mask_table = [masked for _ in range(len(users))]
        index = IVFIndex.from_representations(
            users, items, len(users), len(items),
            mask_table=mask_table, nlist=8, nprobe=1, seed=0,
        )
        got, scores = index.topk([0], 10)
        assert len(np.unique(got[0])) == 10
        assert not np.isin(got[0], masked).any()
        assert np.isfinite(scores[0]).all()

    @pytest.mark.parametrize("k", [8, 55])
    def test_ties_break_like_exact_protocol(self, k):
        # Small-integer embeddings make many exact score ties; k=55 asks
        # for more than the 50 unmasked items, so masked ones fill the
        # tail at -inf in ascending id order.
        rng = np.random.default_rng(3)
        users = rng.integers(-1, 2, size=(12, 4)).astype(np.float64)
        items = rng.integers(-1, 2, size=(60, 4)).astype(np.float64)
        mask_table = [
            np.sort(rng.choice(60, size=10, replace=False)) for _ in range(12)
        ]
        ann = IVFIndex.from_representations(
            users, items, 12, 60, mask_table=mask_table, nlist=6, nprobe=6, seed=0
        )
        exact = TopKIndex(
            np.arange(12), 12, 60, "factorized", mask_table,
            user_reps=users, item_reps=items,
        )
        got, got_scores = ann.topk(np.arange(12), k)
        want, want_scores = exact.topk(np.arange(12), k)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_scores, want_scores)
        for user in range(12):
            brute = rank_items(items @ users[user], mask_table[user])[:k]
            np.testing.assert_array_equal(got[user], brute)
            assert len(np.unique(items @ users[user])) < 10  # ties abound
            if k > 50:
                np.testing.assert_array_equal(got[user][50:], mask_table[user][:5])
                assert np.isneginf(got_scores[user][50:]).all()

    def test_memory_accounting_sums_components(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items),
            nlist=16, nprobe=8, seed=0,
        )
        expected = (
            index._user_reps.nbytes
            + index._item_reps.nbytes
            + index.centroids.nbytes
            + index.list_items.nbytes
            + index.list_offsets.nbytes
        )
        assert index.memory_bytes() == expected

    def test_candidate_fraction_tracks_probes(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items),
            nlist=16, nprobe=2, seed=0, probe_users=0,
        )
        assert index.candidate_fraction() == 0.0
        index.topk([0, 1, 2], 5)
        assert 0.0 < index.candidate_fraction() < 1.0

    def test_nprobe_clamped_to_nlist(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=4, nprobe=99, seed=0
        )
        assert index.nprobe == 4

    def test_save_load_round_trip(self, reps, tmp_path):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=8, seed=0
        )
        loaded = load_index(index.save(str(tmp_path / "ann.npz")))
        assert isinstance(loaded, IVFIndex)
        assert loaded.mode == "ann"
        assert loaded.nprobe == index.nprobe
        assert loaded.stats == index.stats
        assert loaded.memory_bytes() == index.memory_bytes()
        got, scores = index.topk(np.arange(len(users)), 10)
        loaded_got, loaded_scores = loaded.topk(np.arange(len(users)), 10)
        np.testing.assert_array_equal(loaded_got, got)
        np.testing.assert_array_equal(loaded_scores, scores)

    def test_scores_of_is_one_matvec_per_user(self, reps):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=4, seed=0
        )
        rows = index.scores_of([5, 0, 7])
        for row, user in zip(rows, (5, 0, 7)):
            np.testing.assert_array_equal(row, items @ users[user])

    def test_artifact_with_item_cluster_still_loads(self, reps, tmp_path):
        # Raw IVF indexes exported while PQ existed also stored each
        # item's cluster id; the loader drops it.
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=4, seed=0
        )
        arrays, meta = index._artifact()
        arrays["item_cluster"] = assign_to_centroids(items, index.centroids)
        path = str(tmp_path / "old.npz")
        save_npz(path, arrays, meta)
        loaded = load_index(path)
        assert isinstance(loaded, IVFIndex)
        got, scores = index.topk(np.arange(len(users)), 10)
        loaded_got, loaded_scores = loaded.topk(np.arange(len(users)), 10)
        np.testing.assert_array_equal(loaded_got, got)
        np.testing.assert_array_equal(loaded_scores, scores)

    def test_pq_artifact_is_a_typed_error(self, reps, tmp_path):
        users, items = reps
        index = IVFIndex.from_representations(
            users, items, len(users), len(items), nlist=16, nprobe=4, seed=0
        )
        arrays, meta = index._artifact()
        del arrays["item_reps"]
        arrays.update(
            item_cluster=assign_to_centroids(items, index.centroids),
            pq_codebooks=np.zeros((4, 256, 4)),
        )
        path = str(tmp_path / "pq.npz")
        save_npz(path, arrays, meta)
        with pytest.raises(ValueError, match="pq.npz.*re-export it without PQ"):
            load_index(path)

    def test_ivf_loader_rejects_exact_file(
        self, trained_bprmf, tmp_path
    ):
        exact = TopKIndex.build(trained_bprmf)
        path = exact.save(str(tmp_path / "exact.npz"))
        with pytest.raises(ValueError, match="TopKIndex.load"):
            IVFIndex.load(path)


class TestModelIntegration:
    def test_build_via_topk_index_mode_ann(self, trained_bprmf, tiny_dataset):
        mask_splits = [tiny_dataset.train, tiny_dataset.valid]
        ann = TopKIndex.build(
            trained_bprmf,
            mask_splits=mask_splits,
            mode="ann",
            ann_params={"nlist": 8, "nprobe": 8, "seed": 0},
        )
        exact = TopKIndex.build(trained_bprmf, mask_splits=mask_splits)
        users = np.arange(tiny_dataset.n_users)
        ann_items, _ = ann.topk(users, 10)
        exact_items, _ = exact.topk(users, 10)
        np.testing.assert_array_equal(ann_items, exact_items)
        assert ann.stats["recall@20"] == 1.0

    def test_ann_params_rejected_for_exact_modes(self, trained_bprmf):
        with pytest.raises(ValueError, match="ann_params"):
            TopKIndex.build(
                trained_bprmf, mode="dense", ann_params={"nlist": 4}
            )

    def test_dense_only_model_rejected(self, tiny_dataset):
        model = CGKGR(
            tiny_dataset, CGKGRConfig(dim=8, depth=1, n_heads=2), seed=1
        )
        with pytest.raises(ValueError, match="factorized"):
            TopKIndex.build(model, mode="ann")

    def test_subset_users(self, trained_bprmf):
        index = TopKIndex.build(
            trained_bprmf,
            users=[0, 2, 4],
            mode="ann",
            ann_params={"nlist": 4, "nprobe": 4, "seed": 0},
        )
        assert index.n_indexed_users == 3
        assert index.contains(2) and not index.contains(1)
        with pytest.raises(KeyError, match="not in index"):
            index.topk([1], 5)

    def test_serving_engine_over_ann(self, trained_bprmf, tiny_dataset):
        index = TopKIndex.build(
            trained_bprmf,
            mask_splits=[tiny_dataset.train, tiny_dataset.valid],
            mode="ann",
            ann_params={"nlist": 8, "nprobe": 8, "seed": 0},
        )
        engine = ServingEngine(index, model=trained_bprmf)
        items, _ = engine.recommend(0, 5)
        mask_table = build_mask_table(
            [tiny_dataset.train, tiny_dataset.valid], tiny_dataset.n_users
        )
        brute = rank_items(trained_bprmf.score_all_items(0), mask_table[0])[:5]
        np.testing.assert_array_equal(items, brute)
        # Build-time stats surface as metrics gauges.
        gauges = engine.metrics.snapshot()["gauges"]
        assert gauges["ann_recall_at_20"] == 1.0
        assert gauges["ann_nlist"] == 8.0

    def test_checkpoint_round_trip_boots_saved_ann(
        self, trained_bprmf, tiny_dataset, tmp_path
    ):
        from repro.serve.checkpoint import read_manifest, save_checkpoint
        from repro.serve.engine import engine_from_checkpoint

        index = TopKIndex.build(
            trained_bprmf,
            mode="ann",
            ann_params={"nlist": 8, "nprobe": 4, "seed": 0},
        )
        save_checkpoint(trained_bprmf, str(tmp_path), index=index)
        manifest = read_manifest(str(tmp_path))
        assert manifest["index"]["mode"] == "ann"
        assert "recall@20" in manifest["index"]["stats"]
        engine = engine_from_checkpoint(str(tmp_path), dataset=tiny_dataset)
        assert engine.index.mode == "ann"
        np.testing.assert_array_equal(
            engine.recommend(1, 5)[0], index.topk([1], 5)[0][0]
        )
        # Forcing a rebuild in a different mode still works.
        rebuilt = engine_from_checkpoint(
            str(tmp_path),
            dataset=tiny_dataset,
            mode="factorized",
            use_saved_index=False,
        )
        assert rebuilt.index.mode == "factorized"

    def test_healthz_reports_ann_stats(self, trained_bprmf):
        import json as jsonlib
        from urllib.request import urlopen

        from repro.serve import create_server

        index = TopKIndex.build(
            trained_bprmf,
            mode="ann",
            ann_params={"nlist": 8, "nprobe": 4, "seed": 0},
        )
        server = create_server(ServingEngine(index), micro_batch=None)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urlopen(f"http://127.0.0.1:{server.port}/healthz") as resp:
                payload = jsonlib.loads(resp.read())
            assert payload["index_mode"] == "ann"
            assert payload["ann"]["nlist"] == 8.0
            assert "recall@20" in payload["ann"]
            assert "candidate_fraction" in payload["ann"]
        finally:
            server.shutdown()
            server.server_close()
