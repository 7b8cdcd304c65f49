"""Output checks: every answer the benchmark times is also verified.

A served answer is correct when it is a 200 carrying ``k`` unique items,
none of them among the user's masked train+valid items, equal to the
offline protocol's ranking (``TopKIndex.build(model, mask_splits=[train,
valid]).topk``, written by ``export_child.py``) item for item, with
scores equal within the server's 8-decimal rounding.  A training run is
correct when every step's loss is finite and the best validation
recall@20 lies inside the reference band.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

#: Best validation recall@20 of train-movie must fall in this band.  The
#: fit is deterministic per seed; at 15 epochs seeds 7, 101-110, 201-210
#: and 301-310 reached 0.31-0.48, while a model that does not learn
#: ranks at random (recall@20 ≈ 20 / ~147 candidates ≈ 0.14).
RECALL_BAND = (0.2, 0.75)

#: Served scores are rounded to 8 decimals by the server.
SCORE_ATOL = 1e-7


def check_recommendation(status: int, body: bytes, user: int, k: int,
                         refs: Dict) -> Optional[str]:
    """``None`` when one ``GET /recommend`` answer is right, else why not."""
    if status != 200:
        return f"status {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return "body is not JSON"
    return check_ranking(payload, user, k, refs)


def check_ranking(payload: Dict, user: int, k: int, refs: Dict) -> Optional[str]:
    """Check one user's ``{"user", "items", "scores"}`` against the refs."""
    if payload.get("user") != user:
        return f"answer for user {payload.get('user')}, asked {user}"
    items: List[int] = payload.get("items", [])
    scores: List[float] = payload.get("scores", [])
    if len(items) != k or len(scores) != k:
        return f"{len(items)} items / {len(scores)} scores, expected {k}"
    if len(set(items)) != k:
        return "duplicate items"
    masked = set(refs["masked"][user]).intersection(items)
    if masked:
        return f"masked items served: {sorted(masked)}"
    if items != refs["items"][user][:k]:
        return "ranking differs from the offline index"
    for got, want in zip(scores, refs["scores"][user][:k]):
        if not math.isfinite(got) or abs(got - want) > SCORE_ATOL + 1e-6 * abs(want):
            return f"score {got} differs from offline {want}"
    return None


def check_batch(status: int, body: bytes, users: Sequence[int], k: int,
                refs: Dict) -> Optional[str]:
    """Check one ``POST /recommend {"users": [...]}`` answer."""
    if status != 200:
        return f"status {status}"
    try:
        results = json.loads(body)["results"]
    except (ValueError, KeyError):
        return "body is not a batch answer"
    if len(results) != len(users):
        return f"{len(results)} results for {len(users)} users"
    for user, result in zip(users, results):
        problem = check_ranking(result, user, k, refs)
        if problem:
            return f"user {user}: {problem}"
    return None


def check_training(losses: Sequence[float], best_recall: Optional[float]) -> List[str]:
    """Problems of a finished train-movie fit (empty list = correct)."""
    problems = []
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        problems.append(f"non-finite loss at steps {bad[:5]}")
    lo, hi = RECALL_BAND
    if best_recall is None or not lo <= best_recall <= hi:
        problems.append(f"best recall@20 {best_recall} outside [{lo}, {hi}]")
    return problems
