"""Top-K ranking metrics and evaluation protocol (Sec. IV-C).

Per-user metrics over a ranked item list against the user's test
positives; the protocol ranks the **full catalogue with training (and
validation) positives masked**, averages over users that have at least
one test positive, and reports Recall@K and NDCG@K (plus Precision@K and
HitRatio@K for completeness).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.baselines.base import Recommender
from repro.graph.interactions import InteractionGraph

#: Users scored per :meth:`Recommender.score_users` call, which bounds the
#: ``(users, n_items)`` score block an evaluation holds.
USER_BLOCK = 256


def _check_metric_args(metric: str, relevant: Set[int], k: int) -> None:
    """Shared argument validation for every per-user ranking metric.

    All six metrics agree on the degenerate cases: an empty relevant set
    makes the metric undefined (the caller should have filtered the user
    out), and a non-positive cutoff is always a caller bug — silently
    returning 0.0 for either would hide protocol mistakes in averages.
    """
    if k <= 0:
        raise ValueError(f"{metric} requires a positive k, got {k}")
    if not relevant:
        raise ValueError(f"{metric} undefined for an empty relevant set")


def recall_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """|top-k ∩ relevant| / |relevant|."""
    _check_metric_args("recall", relevant, k)
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / len(relevant)


def precision_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """|top-k ∩ relevant| / k."""
    _check_metric_args("precision", relevant, k)
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / k


def hit_ratio_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """1 if any relevant item appears in the top-k."""
    _check_metric_args("hit_ratio", relevant, k)
    return 1.0 if any(item in relevant for item in ranked[:k]) else 0.0


def ndcg_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """Binary-relevance NDCG with the ideal DCG as normalizer."""
    _check_metric_args("ndcg", relevant, k)
    dcg = 0.0
    for position, item in enumerate(ranked[:k]):
        if item in relevant:
            dcg += 1.0 / np.log2(position + 2.0)
    ideal_hits = min(len(relevant), k)
    idcg = sum(1.0 / np.log2(position + 2.0) for position in range(ideal_hits))
    return dcg / idcg


def rank_items(
    scores: np.ndarray, masked_items: Optional[Iterable[int]] = None
) -> np.ndarray:
    """Descending-score item ranking with masked items pushed to the end.

    ``masked_items`` may be any id collection; an ``np.ndarray`` of indices
    is applied directly (no per-item python loop), which is the form the
    evaluation protocol and the serving index precompute per user.
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    if masked_items is not None:
        masked = np.asarray(
            masked_items
            if isinstance(masked_items, np.ndarray)
            else list(masked_items),
            dtype=np.int64,
        )
        if masked.size:
            scores[masked] = -np.inf
    return np.argsort(-scores, kind="stable")


def build_mask_table(
    mask_splits: Sequence[InteractionGraph], n_users: int
) -> List[np.ndarray]:
    """Per-user sorted arrays of items to exclude from ranking candidates.

    One pass over the mask splits (train, and optionally validation) yields
    an index array per user that :func:`rank_items` and the serving index
    (:mod:`repro.serve.index`) apply directly — the two consumers share one
    masking code path, so evaluation and serving cannot drift apart.

    Built by one lexsort over the concatenated splits (sorted-unique per
    user by construction); the result is reusable across eval epochs —
    pass it to :func:`evaluate_topk` via ``mask_table`` to avoid
    rebuilding (the :class:`~repro.training.trainer.Trainer` caches it).
    """
    users = np.concatenate(
        [np.asarray(split.users, dtype=np.int64) for split in mask_splits]
    )
    items = np.concatenate(
        [np.asarray(split.items, dtype=np.int64) for split in mask_splits]
    )
    if not len(users):
        return [np.empty(0, dtype=np.int64) for _ in range(n_users)]
    order = np.lexsort((items, users))
    users, items = users[order], items[order]
    # Drop consecutive duplicates so each user's slice is sorted-unique.
    keep = np.ones(len(users), dtype=bool)
    keep[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    users, items = users[keep], items[keep]
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=n_users), out=offsets[1:])
    return [items[offsets[u] : offsets[u + 1]] for u in range(n_users)]


def evaluate_topk(
    model: Recommender,
    test: InteractionGraph,
    k_values: Iterable[int] = (20,),
    mask_splits: Optional[Sequence[InteractionGraph]] = None,
    max_users: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mask_table: Optional[List[np.ndarray]] = None,
) -> Dict[str, float]:
    """Full-ranking Top-K evaluation.

    Parameters
    ----------
    model:
        Trained recommender.
    test:
        Held-out positives.
    k_values:
        Cutoffs; keys of the result are ``recall@K`` / ``ndcg@K`` /
        ``precision@K`` / ``hit@K``.
    mask_splits:
        Interaction graphs whose positives are removed from the candidate
        ranking (train, and optionally validation).  Defaults to the
        model's training split.
    max_users:
        Optional cap on evaluated users (random subsample) for speed.
    mask_table:
        Prebuilt :func:`build_mask_table` output for ``mask_splits``;
        callers evaluating every epoch pass it to skip the rebuild.
    """
    if mask_splits is None:
        mask_splits = [model.dataset.train]
    k_list = sorted(set(int(k) for k in k_values))
    test_users = [
        int(u) for u in np.unique(test.users) if test.items_of(int(u))
    ]
    if max_users is not None and len(test_users) > max_users:
        rng = rng or np.random.default_rng(0)
        chosen = rng.choice(len(test_users), size=max_users, replace=False)
        test_users = [test_users[i] for i in chosen]

    sums: Dict[str, float] = {
        f"{metric}@{k}": 0.0
        for metric in ("recall", "ndcg", "precision", "hit", "map", "mrr")
        for k in k_list
    }
    if mask_table is None:
        mask_table = build_mask_table(mask_splits, test.n_users)
    # A user whose masked positives cover the whole catalogue has no
    # candidate pool left to rank against: after the ground truth is
    # unmasked below, every competitor sits at -inf, so each test positive
    # trivially lands in the top-k and the user contributes perfect-looking
    # garbage to the averages.  Skip and count them.
    ranked_users = [u for u in test_users if mask_table[u].size < test.n_items]
    n_skipped = len(test_users) - len(ranked_users)
    for start in range(0, len(ranked_users), USER_BLOCK):
        block = ranked_users[start : start + USER_BLOCK]
        for user, scores in zip(block, model.score_users(block)):
            relevant = set(test.items_of(user))
            # Never mask the ground truth itself.
            masked = np.setdiff1d(
                mask_table[user],
                np.fromiter(relevant, dtype=np.int64, count=len(relevant)),
                assume_unique=True,
            )
            ranked_list = rank_items(scores, masked).tolist()
            for k in k_list:
                sums[f"recall@{k}"] += recall_at_k(ranked_list, relevant, k)
                sums[f"ndcg@{k}"] += ndcg_at_k(ranked_list, relevant, k)
                sums[f"precision@{k}"] += precision_at_k(ranked_list, relevant, k)
                sums[f"hit@{k}"] += hit_ratio_at_k(ranked_list, relevant, k)
                sums[f"map@{k}"] += map_at_k(ranked_list, relevant, k)
                sums[f"mrr@{k}"] += mrr_at_k(ranked_list, relevant, k)

    n = max(1, len(test_users) - n_skipped)
    result = {key: value / n for key, value in sums.items()}
    result["n_skipped_users"] = float(n_skipped)
    return result


def mrr_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """Mean reciprocal rank of the first relevant item within the top-k."""
    _check_metric_args("mrr", relevant, k)
    for position, item in enumerate(ranked[:k]):
        if item in relevant:
            return 1.0 / (position + 1.0)
    return 0.0


def map_at_k(ranked: Sequence[int], relevant: Set[int], k: int) -> float:
    """Average precision at k: mean of precision@i over relevant hits.

    Normalized by ``min(|relevant|, k)`` (the best achievable hit count
    within the cutoff), so a ranking that front-loads every reachable
    relevant item scores 1.0 — the RecBole/trec convention.
    """
    _check_metric_args("map", relevant, k)
    hits = 0
    precision_sum = 0.0
    for position, item in enumerate(ranked[:k]):
        if item in relevant:
            hits += 1
            precision_sum += hits / (position + 1.0)
    return precision_sum / min(len(relevant), k)
