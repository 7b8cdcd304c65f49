"""Negative sampling.

Two flavours are needed:

* **training negatives** — per epoch, one unobserved item per positive
  interaction (``|Y_u^+| = |Y_u^-|``, updated "on the fly", Sec. III-C);
* **CTR negatives** — a frozen, per-split set of unobserved pairs matching
  the positive count, so AUC/F1 are computed on a balanced sample exactly
  as the KGCN-family evaluation protocol does.

The training sampler runs as batched draw-and-reject rounds against a
:class:`PositivePairIndex` (sorted ``user * n_items + item`` keys with
``searchsorted`` membership), so an epoch's negatives cost a handful of
vectorized draws, at most ``1 + MAX_TRIES`` per row.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.graph.interactions import InteractionGraph


class PositivePairIndex:
    """Membership structure over every observed ``(user, item)`` pair.

    Encodes pairs as sorted ``user * n_items + item`` int64 keys;
    :meth:`contains` is then one vectorized ``searchsorted`` per query
    batch.  Build once per dataset and reuse across epochs.
    """

    def __init__(self, all_positive_items: Dict[int, Set[int]], n_items: int):
        self.n_items = int(n_items)
        keys = [
            np.fromiter(
                (user * self.n_items + item for item in items),
                dtype=np.int64,
                count=len(items),
            )
            for user, items in all_positive_items.items()
            if items
        ]
        merged = (
            np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
        )
        merged.sort()
        self._keys = merged

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Boolean mask: is each ``(user, item)`` an observed positive?"""
        queries = users.astype(np.int64) * self.n_items + items
        pos = np.searchsorted(self._keys, queries)
        pos = np.minimum(pos, len(self._keys) - 1) if len(self._keys) else pos
        if not len(self._keys):
            return np.zeros(len(queries), dtype=bool)
        return self._keys[pos] == queries


#: Redraw rounds per row before a training negative keeps its last draw.
MAX_TRIES = 50


def sample_training_negatives(
    positives: InteractionGraph,
    all_positive_items: Dict[int, Set[int]],
    n_items: int,
    rng: np.random.Generator,
    index: Optional[PositivePairIndex] = None,
) -> np.ndarray:
    """One negative item per positive pair, avoiding observed positives.

    Returns an int array aligned with ``positives.pairs()`` rows.  Rows are
    drawn in one batch, then only the rows that hit an observed positive
    are redrawn, at most :data:`MAX_TRIES` times.  A user who has
    interacted with (nearly) the whole catalogue keeps the last draw —
    with a balanced synthetic catalogue this is vanishingly rare, and a
    soft fallback beats an infinite loop.

    Pass a prebuilt :class:`PositivePairIndex` as ``index`` to amortize
    its construction across epochs; ``None`` builds one from
    ``all_positive_items``.
    """
    if index is None:
        index = PositivePairIndex(all_positive_items, n_items)
    users = np.asarray(positives.users, dtype=np.int64)
    negatives = rng.integers(0, n_items, size=len(users)).astype(np.int64)
    pending = np.flatnonzero(index.contains(users, negatives))
    tries = 0
    while pending.size and tries < MAX_TRIES:
        redraw = rng.integers(0, n_items, size=pending.size).astype(np.int64)
        negatives[pending] = redraw
        pending = pending[index.contains(users[pending], redraw)]
        tries += 1
    return negatives


def sample_ctr_negatives(
    split: InteractionGraph,
    all_positive_items: Dict[int, Set[int]],
    n_items: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced CTR evaluation set for a split.

    Returns ``(users, items, labels)`` where each positive pair of the
    split is matched by one sampled negative for the same user.

    Frozen evaluation negatives are drawn from the **exact complement** of
    the user's positives across every split — unlike the training sampler,
    there is no soft draw-and-reject fallback, so a held-out positive can
    never leak into the negative class and depress AUC/F1.  A user whose
    positives cover the whole catalogue has no valid negative; that user's
    pairs are dropped entirely (both halves, keeping the set balanced).
    """
    pos_users = np.asarray(split.users, dtype=np.int64)
    pos_items = np.asarray(split.items, dtype=np.int64)
    neg_items = np.full(len(pos_users), -1, dtype=np.int64)
    # Group the split's rows by user (stable argsort keeps users ascending,
    # so the rng stream is deterministic for a fixed split), then draw each
    # user's negatives uniformly from their unobserved-item complement.
    order = np.argsort(pos_users, kind="stable")
    boundaries = np.flatnonzero(np.diff(pos_users[order])) + 1
    for rows in np.split(order, boundaries) if len(order) else []:
        user = int(pos_users[rows[0]])
        seen = all_positive_items.get(user, set())
        forbidden = np.fromiter(seen, dtype=np.int64, count=len(seen))
        complement = np.setdiff1d(
            np.arange(n_items, dtype=np.int64), forbidden
        )
        if complement.size:
            picks = rng.integers(0, complement.size, size=rows.size)
            neg_items[rows] = complement[picks]
    keep = neg_items >= 0
    pos_users, pos_items, neg_items = (
        pos_users[keep],
        pos_items[keep],
        neg_items[keep],
    )
    users = np.concatenate([pos_users, pos_users])
    items = np.concatenate([pos_items, neg_items])
    labels = np.concatenate(
        [np.ones(len(pos_users), dtype=np.float64), np.zeros(len(pos_users), dtype=np.float64)]
    )
    return users, items, labels
