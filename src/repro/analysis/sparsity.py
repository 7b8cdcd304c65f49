"""Per-user sparsity analysis.

The paper motivates KG-aware recommendation by data sparsity and
cold-start users (Sec. I); these helpers quantify where a model's
accuracy comes from by bucketing test users on the size of their
*training* history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.data.dataset import RecDataset
from repro.eval.ranking import USER_BLOCK, ndcg_at_k, rank_items, recall_at_k


@dataclass
class UserBucketReport:
    """Mean metric per history-size bucket."""

    buckets: Dict[str, Tuple[int, int]]
    counts: Dict[str, int] = field(default_factory=dict)
    recall: Dict[str, float] = field(default_factory=dict)
    ndcg: Dict[str, float] = field(default_factory=dict)

    def lift_over(self, other: "UserBucketReport") -> Dict[str, float]:
        """Relative recall lift of this report over ``other`` per bucket."""
        lifts = {}
        for label in self.buckets:
            theirs = other.recall.get(label, 0.0)
            ours = self.recall.get(label, 0.0)
            lifts[label] = (ours / theirs - 1.0) if theirs > 0 else float("inf")
        return lifts


DEFAULT_BUCKETS: Dict[str, Tuple[int, int]] = {
    "cold (1-2)": (1, 2),
    "light (3-4)": (3, 4),
    "warm (5+)": (5, 10**9),
}


def recall_by_history_size(
    model: Recommender,
    dataset: RecDataset,
    k: int = 20,
    buckets: Dict[str, Tuple[int, int]] | None = None,
) -> UserBucketReport:
    """Recall@k / NDCG@k per training-history bucket of test users."""
    buckets = dict(buckets or DEFAULT_BUCKETS)
    report = UserBucketReport(buckets=buckets)
    per_bucket_recall: Dict[str, List[float]] = {label: [] for label in buckets}
    per_bucket_ndcg: Dict[str, List[float]] = {label: [] for label in buckets}

    labelled: List[Tuple[int, str]] = []
    for user in np.unique(dataset.test.users):
        user = int(user)
        if not dataset.test.items_of(user):
            continue
        history = len(dataset.train.items_of(user))
        label = next(
            (name for name, (lo, hi) in buckets.items() if lo <= history <= hi),
            None,
        )
        if label is not None:
            labelled.append((user, label))

    for start in range(0, len(labelled), USER_BLOCK):
        block = labelled[start : start + USER_BLOCK]
        scores = model.score_users([user for user, _ in block])
        for (user, label), row in zip(block, scores):
            relevant = set(dataset.test.items_of(user))
            masked = (
                set(dataset.train.items_of(user)) | set(dataset.valid.items_of(user))
            ) - relevant
            ranking = rank_items(row, masked).tolist()
            per_bucket_recall[label].append(recall_at_k(ranking, relevant, k))
            per_bucket_ndcg[label].append(ndcg_at_k(ranking, relevant, k))

    for label in buckets:
        values = per_bucket_recall[label]
        report.counts[label] = len(values)
        report.recall[label] = float(np.mean(values)) if values else 0.0
        report.ndcg[label] = (
            float(np.mean(per_bucket_ndcg[label])) if per_bucket_ndcg[label] else 0.0
        )
    return report
