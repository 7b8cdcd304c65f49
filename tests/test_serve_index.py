"""Retrieval index and serving engine semantics.

The load-bearing guarantee: ``TopKIndex.topk`` (with masking) returns
exactly the prefix of the brute-force ranking protocol
(``rank_items`` over ``score_all_items``), in both dense and factorized
modes — serving must never drift from evaluation.
"""

import threading

import numpy as np
import pytest

from repro.baselines import BPRMF, LightGCN
from repro.core import CGKGR, CGKGRConfig
from repro.eval.ranking import build_mask_table, rank_items
import repro.serve.index as index_mod
from repro.serve import MicroBatcher, ServingEngine, TopKIndex, topk_from_scores
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def trained_models(tiny_dataset):
    models = {
        "bprmf": BPRMF(tiny_dataset, dim=8, seed=1),
        "lightgcn": LightGCN(tiny_dataset, dim=8, n_layers=2, seed=1),
        "cg-kgr": CGKGR(tiny_dataset, CGKGRConfig(dim=8, depth=1, n_heads=2), seed=1),
    }
    for model in models.values():
        Trainer(model, TrainerConfig(epochs=2, eval_task="none", seed=0)).fit()
    return models


class TestTopKFromScores:
    def test_matches_rank_items_prefix(self, rng):
        scores = rng.normal(size=50)
        masked = np.array([3, 7, 11], dtype=np.int64)
        items, values = topk_from_scores(scores, 10, masked)
        expected = rank_items(scores, masked)[:10]
        np.testing.assert_array_equal(items, expected)
        np.testing.assert_array_equal(values, np.sort(values)[::-1])

    def test_tie_break_by_item_id(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        items, _ = topk_from_scores(scores, 3)
        np.testing.assert_array_equal(items, [1, 2, 3])

    def test_k_larger_than_catalogue(self):
        scores = np.array([0.1, 0.3, 0.2])
        items, _ = topk_from_scores(scores, 10)
        np.testing.assert_array_equal(items, [1, 2, 0])

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            topk_from_scores(np.arange(20.0), k)

    def test_subset_ids_break_ties_by_item_id(self):
        # Scores over candidates [9, 4, 6, 2]: items 9, 4 and 2 tie.
        ids = np.array([9, 4, 6, 2])
        items, values = topk_from_scores(np.array([1.0, 1.0, 3.0, 1.0]), 3, ids=ids)
        np.testing.assert_array_equal(items, [6, 2, 4])
        np.testing.assert_array_equal(values, [3.0, 1.0, 1.0])


class TestTopKIndex:
    @pytest.mark.parametrize("name", ["bprmf", "lightgcn", "cg-kgr"])
    def test_topk_matches_brute_force(self, trained_models, tiny_dataset, name):
        model = trained_models[name]
        mask_splits = [tiny_dataset.train, tiny_dataset.valid]
        index = TopKIndex.build(model, mask_splits=mask_splits)
        mask_table = build_mask_table(mask_splits, tiny_dataset.n_users)
        users = np.arange(tiny_dataset.n_users)
        items, _ = index.topk(users, 10)
        for user in users:
            brute = rank_items(model.score_all_items(int(user)), mask_table[user])
            np.testing.assert_array_equal(items[user], brute[:10], err_msg=name)

    def test_mode_selection(self, trained_models):
        assert TopKIndex.build(trained_models["bprmf"]).mode == "factorized"
        assert TopKIndex.build(trained_models["cg-kgr"]).mode == "dense"
        # Factorization can be refused explicitly.
        assert (
            TopKIndex.build(trained_models["bprmf"], mode="dense").mode == "dense"
        )
        with pytest.raises(ValueError, match="factorized"):
            TopKIndex.build(trained_models["cg-kgr"], mode="factorized")

    def test_subset_index(self, trained_models, tiny_dataset):
        model = trained_models["cg-kgr"]
        index = TopKIndex.build(model, users=[0, 2, 4])
        assert index.n_indexed_users == 3
        assert index.contains(2) and not index.contains(1)
        with pytest.raises(KeyError, match="not in index"):
            index.scores_of([1])

    def test_factorized_blocking_consistent(
        self, trained_models, tiny_dataset, monkeypatch
    ):
        index = TopKIndex.build(trained_models["bprmf"])
        users = np.arange(tiny_dataset.n_users)
        whole = index.scores_of(users)
        monkeypatch.setattr(index_mod, "USER_BLOCK", 4)
        np.testing.assert_array_equal(index.scores_of(users), whole)


class TestIndexMemoryAccounting:
    def test_factorized_counts_rep_matrices(self, trained_models, tiny_dataset):
        model = trained_models["bprmf"]
        index = TopKIndex.build(model)
        user_matrix, item_matrix = model.representations()
        expected = (
            user_matrix[index.user_ids].nbytes + item_matrix.nbytes
        )
        assert index.memory_bytes() == expected

    def test_dense_counts_score_rows(self, trained_models, tiny_dataset):
        index = TopKIndex.build(trained_models["cg-kgr"], mode="dense")
        assert (
            index.memory_bytes()
            == tiny_dataset.n_users * tiny_dataset.n_items * 8
        )

    def test_subset_index_is_smaller(self, trained_models):
        full = TopKIndex.build(trained_models["cg-kgr"], mode="dense")
        subset = TopKIndex.build(
            trained_models["cg-kgr"], mode="dense", users=[0, 1]
        )
        assert 0 < subset.memory_bytes() < full.memory_bytes()


class TestIndexSerialization:
    @pytest.mark.parametrize("mode", ["factorized", "dense"])
    def test_round_trip_is_bit_exact(
        self, trained_models, tiny_dataset, mode, tmp_path
    ):
        from repro.serve import load_index

        model = trained_models["bprmf" if mode == "factorized" else "cg-kgr"]
        index = TopKIndex.build(
            model, mask_splits=[tiny_dataset.train, tiny_dataset.valid], mode=mode
        )
        loaded = load_index(index.save(str(tmp_path / "index.npz")))
        assert loaded.mode == mode
        assert loaded.n_users == index.n_users
        assert loaded.n_items == index.n_items
        assert loaded.memory_bytes() == index.memory_bytes()
        users = np.arange(tiny_dataset.n_users)
        items, scores = index.topk(users, 10)
        loaded_items, loaded_scores = loaded.topk(users, 10)
        np.testing.assert_array_equal(loaded_items, items)
        np.testing.assert_array_equal(loaded_scores, scores)
        for user in users:
            np.testing.assert_array_equal(
                loaded.mask_table[user], index.mask_table[user]
            )

    def test_subset_round_trip_preserves_membership(
        self, trained_models, tmp_path
    ):
        index = TopKIndex.build(trained_models["bprmf"], users=[0, 2, 4])
        loaded = TopKIndex.load(index.save(str(tmp_path / "subset.npz")))
        assert loaded.n_indexed_users == 3
        assert loaded.contains(2) and not loaded.contains(1)

    def test_exact_loader_rejects_ivf_file(
        self, trained_models, tiny_dataset, tmp_path
    ):
        ann = TopKIndex.build(
            trained_models["bprmf"],
            mode="ann",
            ann_params={"nlist": 4, "nprobe": 4, "seed": 0},
        )
        path = ann.save(str(tmp_path / "ann.npz"))
        with pytest.raises(ValueError, match="load_index"):
            TopKIndex.load(path)


class TestServingEngine:
    def test_cache_hit_miss_counters(self, trained_models):
        engine = ServingEngine(
            TopKIndex.build(trained_models["bprmf"]), cache_size=16
        )
        first = engine.recommend(1, 5)
        second = engine.recommend(1, 5)
        np.testing.assert_array_equal(first[0], second[0])
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5
        # A different k is a different cache entry.
        engine.recommend(1, 7)
        assert engine.cache_info()["misses"] == 2

    def test_cache_eviction_is_lru(self, trained_models):
        engine = ServingEngine(
            TopKIndex.build(trained_models["bprmf"]), cache_size=2
        )
        engine.recommend(0, 5)
        engine.recommend(1, 5)
        engine.recommend(2, 5)  # evicts user 0
        engine.recommend(1, 5)  # still cached
        assert engine.cache_info()["hits"] == 1
        assert engine.cache_info()["size"] == 2

    def test_cold_user_fallback(self, trained_models, tiny_dataset):
        model = trained_models["cg-kgr"]
        indexed = [u for u in range(tiny_dataset.n_users) if u != 3]
        engine = ServingEngine(
            TopKIndex.build(model, users=indexed), model=model
        )
        items, _ = engine.recommend(3, 5)
        mask_table = build_mask_table([tiny_dataset.train], tiny_dataset.n_users)
        brute = rank_items(model.score_all_items(3), mask_table[3])[:5]
        np.testing.assert_array_equal(items, brute)
        assert engine.metrics.get("fallback_users") == 1

    def test_cold_users_of_one_call_share_one_model_call(
        self, trained_models, monkeypatch
    ):
        model = trained_models["cg-kgr"]
        engine = ServingEngine(
            TopKIndex.build(model, users=[0, 1, 2]), model=model, cache_size=0
        )
        calls = []
        score_users = model.score_users

        def counting(users):
            calls.append(list(users))
            return score_users(users)

        monkeypatch.setattr(model, "score_users", counting)
        cold = [7, 3, 11, 5, 9]
        many = engine.recommend_many(cold, 5)
        assert len(calls) == 1 and sorted(calls[0]) == sorted(cold)
        for user, (items, scores) in zip(cold, many):
            items_1, scores_1 = engine.recommend(user, 5)
            np.testing.assert_array_equal(items, items_1)
            np.testing.assert_array_equal(scores, scores_1)
        assert len(calls) == 1 + len(cold)
        assert engine.metrics.get("fallback_users") == 2 * len(cold)

    def test_cold_user_without_model_errors(self, trained_models):
        engine = ServingEngine(
            TopKIndex.build(trained_models["bprmf"], users=[0, 1])
        )
        with pytest.raises(KeyError, match="not in the index"):
            engine.recommend(2, 5)

    def test_unknown_user_rejected(self, trained_models, tiny_dataset):
        engine = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        with pytest.raises(KeyError):
            engine.recommend(tiny_dataset.n_users + 5, 5)

    def test_recommend_many_matches_single(self, trained_models, tiny_dataset):
        model = trained_models["bprmf"]
        batched = ServingEngine(TopKIndex.build(model))
        single = ServingEngine(TopKIndex.build(model))
        users = [5, 0, 5, 2]
        many = batched.recommend_many(users, 6)
        for user, (items, scores) in zip(users, many):
            items_1, scores_1 = single.recommend(user, 6)
            np.testing.assert_array_equal(items, items_1)
            # BLAS gemm reduction order depends on the block's row count,
            # so batched and single-user scores may differ in the last ulp.
            np.testing.assert_allclose(scores, scores_1, rtol=1e-12)

    @pytest.mark.parametrize("path", ["index", "ivf", "fallback"])
    def test_huge_k_serves_only_unmasked_items(
        self, trained_models, tiny_dataset, path
    ):
        """A ``k`` beyond the unmasked catalogue answers every unmasked item
        once, in protocol order, and no masked item or ``-inf`` score."""
        model = trained_models["bprmf"]
        splits = [tiny_dataset.train, tiny_dataset.valid]
        if path == "index":
            index = TopKIndex.build(model, mask_splits=splits)
        elif path == "ivf":
            index = TopKIndex.build(
                model, mask_splits=splits, mode="ann",
                ann_params={"nlist": 4, "nprobe": 1, "seed": 0},
            )
        else:
            index = TopKIndex.build(model, users=[1], mask_splits=splits)
        engine = ServingEngine(index, model=model)
        masked = build_mask_table(splits, tiny_dataset.n_users)[0]
        assert masked.size
        # rank_items ranks the masked items last.
        brute = rank_items(model.score_all_items(0), masked)[: -masked.size]
        assert not np.isin(brute, masked).any()
        for items, scores in (
            engine.recommend(0, 10**6),
            *engine.recommend_many([0, 0], tiny_dataset.n_items),
        ):
            np.testing.assert_array_equal(items, brute)
            assert np.isfinite(scores).all()
        assert engine.metrics.get("fallback_users") == (
            2 if path == "fallback" else 0
        )

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_rejected_before_cache(self, trained_models, k):
        # User 0 is indexed; user 3 is cold and would take the fallback.
        model = trained_models["cg-kgr"]
        engine = ServingEngine(TopKIndex.build(model, users=[0, 1]), model=model)
        for user in (0, 3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                engine.recommend(user, k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                engine.recommend_many([user, 1], k)
        assert engine.cache_info()["size"] == 0
        assert engine.metrics.get("cache_misses") == 0
        assert engine.metrics.get("fallback_users") == 0

    def test_cache_hits_record_no_engine_latency(self, trained_models):
        engine = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        engine.recommend_many([1, 2], 5)
        engine.recommend_many([2, 1], 5)
        engine.recommend(1, 5)
        hist = engine.metrics.snapshot()["histograms"]["recommend_latency_seconds"]
        assert hist["count"] == 1

    def test_score_matches_predict(self, trained_models, tiny_dataset):
        model = trained_models["cg-kgr"]
        engine = ServingEngine(TopKIndex.build(model), model=model)
        items = np.array([0, 3, 7])
        expected = model.predict(np.full(3, 2), items)
        np.testing.assert_array_equal(engine.score(2, items), expected)


class TestMicroBatcher:
    def test_batches_and_resolves_futures(self, trained_models):
        engine = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        batcher = MicroBatcher(engine)
        try:
            futures = [batcher.submit(user, 5) for user in (0, 1, 2, 0)]
            results = [f.result(timeout=5) for f in futures]
        finally:
            batcher.close()
        reference = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        for user, (items, _) in zip((0, 1, 2, 0), results):
            np.testing.assert_array_equal(items, reference.recommend(user, 5)[0])
        assert engine.metrics.get("microbatch_flushes") >= 1

    def test_requests_queued_during_a_flush_form_the_next(self, trained_models):
        """The worker waits for no one: the first request flushes alone,
        and the three queued while its engine call is blocked make up the
        next flush."""
        model = trained_models["bprmf"]
        engine = ServingEngine(TopKIndex.build(model))
        entered, release = threading.Event(), threading.Event()
        recommend_many = engine.recommend_many

        def first_call_blocks(users, k):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=5)
            return recommend_many(users, k)

        engine.recommend_many = first_call_blocks
        batcher = MicroBatcher(engine)
        try:
            futures = [batcher.submit(0, 5)]
            assert entered.wait(timeout=5)
            futures += [batcher.submit(user, 5) for user in (1, 2, 3)]
            release.set()
            results = [f.result(timeout=5) for f in futures]
        finally:
            release.set()
            batcher.close()
        sizes = engine.metrics.snapshot()["histograms"]["microbatch_size"]
        assert (sizes["count"], sizes["sum"]) == (2, 4)
        assert engine.metrics.get("microbatch_flushes") == 2
        reference = ServingEngine(TopKIndex.build(model))
        for user, (items, scores) in zip((0, 1, 2, 3), results):
            ref_items, ref_scores = reference.recommend(user, 5)
            np.testing.assert_array_equal(items, ref_items)
            np.testing.assert_allclose(scores, ref_scores, rtol=1e-6)

    def test_error_propagates_to_future(self, trained_models, tiny_dataset):
        engine = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        batcher = MicroBatcher(engine)
        try:
            future = batcher.submit(tiny_dataset.n_users + 99, 5)
            with pytest.raises(KeyError):
                future.result(timeout=5)
        finally:
            batcher.close()

    def test_closed_batcher_rejects_submissions(self, trained_models):
        engine = ServingEngine(TopKIndex.build(trained_models["bprmf"]))
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(0, 5)
