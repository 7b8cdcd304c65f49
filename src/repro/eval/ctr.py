"""Click-through-rate prediction metrics and protocol (Sec. IV-C).

Scores are rescaled with the sigmoid; AUC is computed rank-based
(equivalent to the Mann-Whitney statistic, ties handled by mid-ranks) and
F1 uses the paper's fixed 0.5 threshold on the rescaled score.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import Recommender
from repro.data.dataset import RecDataset
from repro.data.negative_sampling import sample_ctr_negatives
from repro.graph.interactions import InteractionGraph


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via mid-rank Mann-Whitney."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative labels")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    # Mid-ranks for ties.
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = ranks[labels == 1].sum()
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1_score(labels: np.ndarray, predictions: np.ndarray) -> float:
    """Binary F1 for 0/1 label and prediction arrays."""
    labels = np.asarray(labels, dtype=bool)
    predictions = np.asarray(predictions, dtype=bool)
    tp = int(np.sum(labels & predictions))
    fp = int(np.sum(~labels & predictions))
    fn = int(np.sum(labels & ~predictions))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def evaluate_ctr(
    model: Recommender,
    split: InteractionGraph,
    dataset: Optional[RecDataset] = None,
    negative_seed: int = 0,
    threshold: float = 0.5,
) -> Dict[str, float]:
    """CTR evaluation on a split: balanced positives/negatives, AUC + F1.

    The rescaled score crosses the 0.5 threshold exactly when the raw
    logit crosses 0, matching the paper's protocol.
    """
    dataset = dataset or model.dataset
    rng = np.random.default_rng(negative_seed)
    users, items, labels = sample_ctr_negatives(
        split, dataset.all_positive_items(), dataset.n_items, rng
    )
    raw = model.predict(users, items)
    probabilities = _sigmoid(raw)
    return {
        "auc": auc_score(labels, probabilities),
        "f1": f1_score(labels, probabilities >= threshold),
    }
