"""Metric correctness: hand-computed cases + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (
    auc_score,
    f1_score,
    hit_ratio_at_k,
    map_at_k,
    mrr_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    wilcoxon_improvement,
)
from repro.eval.ranking import rank_items

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


class TestRankingMetrics:
    def test_recall_hand_case(self):
        assert recall_at_k([1, 2, 3, 4], {2, 4, 9}, k=3) == pytest.approx(1 / 3)

    def test_recall_perfect(self):
        assert recall_at_k([1, 2], {1, 2}, k=2) == 1.0

    def test_recall_empty_relevant_raises(self):
        with pytest.raises(ValueError):
            recall_at_k([1], set(), 1)

    def test_precision_hand_case(self):
        assert precision_at_k([1, 2, 3, 4], {2, 4}, k=4) == 0.5

    def test_precision_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k([1], {1}, 0)

    def test_hit_ratio(self):
        assert hit_ratio_at_k([5, 6, 7], {7}, 3) == 1.0
        assert hit_ratio_at_k([5, 6, 7], {9}, 3) == 0.0

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_k([1, 2, 3], {1, 2}, 3) == pytest.approx(1.0)

    def test_ndcg_hand_case(self):
        # Single relevant item at rank 2: DCG = 1/log2(3), IDCG = 1.
        expected = 1.0 / np.log2(3.0)
        assert ndcg_at_k([9, 5, 7], {5}, 3) == pytest.approx(expected)

    def test_ndcg_order_sensitivity(self):
        better = ndcg_at_k([1, 9], {1}, 2)
        worse = ndcg_at_k([9, 1], {1}, 2)
        assert better > worse

    @given(
        seed=st.integers(0, 9999),
        k=st.integers(1, 10),
        n_items=st.integers(10, 30),
    )
    def test_bounds_property(self, seed, k, n_items):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(n_items).tolist()
        relevant = set(rng.choice(n_items, size=3, replace=False).tolist())
        for metric in (recall_at_k, ndcg_at_k, precision_at_k, hit_ratio_at_k):
            value = metric(ranked, relevant, k)
            assert 0.0 <= value <= 1.0

    @given(seed=st.integers(0, 9999))
    def test_recall_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(20).tolist()
        relevant = set(rng.choice(20, size=4, replace=False).tolist())
        values = [recall_at_k(ranked, relevant, k) for k in (1, 5, 10, 20)]
        assert values == sorted(values)
        assert values[-1] == 1.0  # k = catalogue size recovers everything


class TestRankItems:
    def test_descending(self):
        ranked = rank_items(np.array([0.1, 0.9, 0.5]))
        assert ranked.tolist() == [1, 2, 0]

    def test_masking_pushes_to_end(self):
        ranked = rank_items(np.array([0.1, 0.9, 0.5]), masked_items={1})
        assert ranked.tolist()[0] == 2
        assert ranked.tolist()[-1] == 1

    def test_ndarray_mask_equals_set_mask(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        masked = {3, 11, 25}
        np.testing.assert_array_equal(
            rank_items(scores, masked),
            rank_items(scores, np.array(sorted(masked), dtype=np.int64)),
        )

    def test_empty_ndarray_mask_is_noop(self):
        scores = np.array([0.1, 0.9, 0.5])
        ranked = rank_items(scores, np.empty(0, dtype=np.int64))
        assert ranked.tolist() == [1, 2, 0]

    def test_build_mask_table(self, micro_dataset):
        from repro.eval.ranking import build_mask_table

        table = build_mask_table(
            [micro_dataset.train, micro_dataset.valid], micro_dataset.n_users
        )
        assert len(table) == micro_dataset.n_users
        # User 0: train items {0, 1} plus valid item {2}, sorted + unique.
        assert table[0].tolist() == [0, 1, 2]
        assert table[1].tolist() == [1, 2]


class TestAUC:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(labels, scores) == 1.0

    def test_inverted(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert auc_score(labels, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_give_half_credit(self):
        labels = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert auc_score(labels, scores) == 0.5

    def test_hand_case(self):
        # Pairs: (1 vs 0.3)=win, (1 vs 0.7)=win, (0.5 vs 0.3)=win,
        # (0.5 vs 0.7)=loss → 3/4.
        labels = np.array([1, 1, 0, 0])
        scores = np.array([1.0, 0.5, 0.3, 0.7])
        assert auc_score(labels, scores) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(3), np.ones(3))

    def test_invariant_to_monotone_transform(self):
        labels = np.array([0, 1, 0, 1, 1])
        scores = np.array([-3.0, 0.5, -0.2, 2.0, 0.1])
        a = auc_score(labels, scores)
        b = auc_score(labels, 1.0 / (1.0 + np.exp(-scores)))
        assert a == pytest.approx(b)


class TestF1:
    def test_perfect(self):
        labels = np.array([1, 0, 1])
        assert f1_score(labels, labels.astype(bool)) == 1.0

    def test_no_true_positives(self):
        assert f1_score(np.array([1, 1]), np.array([False, False])) == 0.0

    def test_hand_case(self):
        labels = np.array([1, 1, 0, 0])
        preds = np.array([True, False, True, False])
        # precision 0.5, recall 0.5 → F1 0.5
        assert f1_score(labels, preds) == 0.5


class TestWilcoxon:
    def test_clear_improvement_significant(self):
        a = [0.5 + 0.01 * i for i in range(10)]
        b = [0.4 + 0.01 * i for i in range(10)]
        report = wilcoxon_improvement(a, b)
        assert report["significant"]
        assert report["p_value"] < 0.05

    def test_identical_not_significant(self):
        report = wilcoxon_improvement([0.5] * 5, [0.5] * 5)
        assert not report["significant"]
        assert report["p_value"] == 1.0

    def test_worse_candidate_not_significant(self):
        report = wilcoxon_improvement([0.3] * 6, [0.5 + 0.01 * i for i in range(6)])
        assert not report["significant"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_improvement([1.0], [1.0, 2.0])

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            wilcoxon_improvement([1.0], [0.5])


from repro.eval.ranking import map_at_k, mrr_at_k


class TestMAP:
    def test_perfect_ranking_is_one(self):
        assert map_at_k([1, 2, 9], {1, 2}, 3) == 1.0

    def test_hand_case(self):
        # Hits at ranks 1 and 3: AP = (1/1 + 2/3) / 2.
        expected = (1.0 + 2.0 / 3.0) / 2.0
        assert map_at_k([7, 5, 8], {7, 8}, 3) == pytest.approx(expected)

    def test_normalized_by_reachable_hits(self):
        # 5 relevant but k=2: front-loading both slots scores 1.0
        # (min(|relevant|, k) normalizer, the RecBole convention).
        assert map_at_k([1, 2], {1, 2, 3, 4, 5}, 2) == 1.0

    def test_miss_is_zero(self):
        assert map_at_k([1, 2, 3], {9}, 3) == 0.0

    def test_order_sensitivity(self):
        better = map_at_k([7, 9], {7}, 2)
        worse = map_at_k([9, 7], {7}, 2)
        assert better > worse

    def test_empty_relevant_raises(self):
        with pytest.raises(ValueError):
            map_at_k([1], set(), 1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            map_at_k([1], {1}, 0)

    @given(
        seed=st.integers(0, 9999),
        k=st.integers(1, 10),
        n_items=st.integers(10, 30),
    )
    def test_bounds_property(self, seed, k, n_items):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(n_items).tolist()
        relevant = set(rng.choice(n_items, size=3, replace=False).tolist())
        assert 0.0 <= map_at_k(ranked, relevant, k) <= 1.0


class TestEvaluateTopKKeys:
    def test_reports_full_metric_set(self, micro_dataset):
        from repro.baselines import BPRMF
        from repro.eval import evaluate_topk

        model = BPRMF(micro_dataset, dim=4, seed=0)
        report = evaluate_topk(model, micro_dataset.test, k_values=(2, 3))
        for metric in ("recall", "ndcg", "precision", "hit", "map", "mrr"):
            for k in (2, 3):
                assert f"{metric}@{k}" in report
        assert all(0.0 <= v <= 1.0 for v in report.values())


class TestMRR:
    def test_first_position(self):
        assert mrr_at_k([7, 1, 2], {7}, 3) == 1.0

    def test_third_position(self):
        assert mrr_at_k([1, 2, 7], {7}, 3) == pytest.approx(1 / 3)

    def test_outside_k_is_zero(self):
        assert mrr_at_k([1, 2, 7], {7}, 2) == 0.0

    def test_earliest_relevant_counts(self):
        assert mrr_at_k([1, 7, 8], {7, 8}, 3) == pytest.approx(1 / 2)

    def test_empty_relevant_raises(self):
        with pytest.raises(ValueError):
            mrr_at_k([1], set(), 1)


class TestMetricValidationUnified:
    """Every per-user ranking metric validates its arguments identically."""

    METRICS = [
        recall_at_k,
        precision_at_k,
        hit_ratio_at_k,
        ndcg_at_k,
        mrr_at_k,
        map_at_k,
    ]

    @pytest.mark.parametrize("metric", METRICS)
    def test_empty_relevant_raises(self, metric):
        with pytest.raises(ValueError, match="empty relevant"):
            metric([1, 2, 3], set(), 2)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_raises(self, metric, k):
        with pytest.raises(ValueError, match="positive k"):
            metric([1, 2, 3], {1}, k)

    @pytest.mark.parametrize("metric", METRICS)
    def test_valid_args_accepted(self, metric):
        value = metric([1, 2, 3], {2}, 3)
        assert 0.0 <= value <= 1.0
