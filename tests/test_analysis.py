"""Analysis helpers: sparsity buckets and attention diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    attention_entropy,
    recall_by_history_size,
)
from repro.analysis.sparsity import DEFAULT_BUCKETS, UserBucketReport
from repro.core import CGKGR, CGKGRConfig


class TestAttentionEntropy:
    def test_uniform_is_log_n(self):
        weights = np.full(4, 0.25)
        assert attention_entropy(weights) == pytest.approx(np.log(4))

    def test_point_mass_is_zero(self):
        assert attention_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_mask_restricts_support(self):
        weights = np.array([0.5, 0.5, 99.0])
        mask = np.array([True, True, False])
        assert attention_entropy(weights, mask) == pytest.approx(np.log(2))

    def test_all_zero_is_zero(self):
        assert attention_entropy(np.zeros(3)) == 0.0

    def test_sharpening_lowers_entropy(self):
        assert attention_entropy(np.array([0.7, 0.2, 0.1])) < attention_entropy(
            np.full(3, 1 / 3)
        )


class TestSparsityBuckets:
    def test_bucket_counts_cover_test_users(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        report = recall_by_history_size(model, tiny_dataset, k=10)
        n_test_users = len(
            [u for u in np.unique(tiny_dataset.test.users) if tiny_dataset.test.items_of(int(u))]
        )
        assert sum(report.counts.values()) <= n_test_users
        assert sum(report.counts.values()) > 0

    def test_metrics_bounded(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        report = recall_by_history_size(model, tiny_dataset, k=10)
        for label in DEFAULT_BUCKETS:
            assert 0.0 <= report.recall[label] <= 1.0
            assert 0.0 <= report.ndcg[label] <= 1.0

    def test_lift_computation(self):
        buckets = {"a": (1, 2)}
        ours = UserBucketReport(buckets=buckets, recall={"a": 0.4})
        theirs = UserBucketReport(buckets=buckets, recall={"a": 0.2})
        assert ours.lift_over(theirs)["a"] == pytest.approx(1.0)

    def test_lift_with_zero_baseline(self):
        buckets = {"a": (1, 2)}
        ours = UserBucketReport(buckets=buckets, recall={"a": 0.4})
        theirs = UserBucketReport(buckets=buckets, recall={"a": 0.0})
        assert ours.lift_over(theirs)["a"] == float("inf")

    def test_custom_buckets(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        report = recall_by_history_size(
            model, tiny_dataset, k=5, buckets={"all": (0, 10**9)}
        )
        assert set(report.counts) == {"all"}
