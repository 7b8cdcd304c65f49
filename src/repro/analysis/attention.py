"""Attention diagnostics for the collaborative guidance mechanism.

Measures the Fig. 5 effect: how concentrated the knowledge attention is
with and without the guidance signal.
"""

from __future__ import annotations

import numpy as np


def attention_entropy(weights: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Shannon entropy (nats) of a normalized attention vector.

    Lower entropy = more selective knowledge extraction; the paper's
    claim is that guidance sharpens attention toward informative triples.
    """
    w = np.asarray(weights, dtype=np.float64)
    if mask is not None:
        w = w[np.asarray(mask, dtype=bool)]
    total = w.sum()
    if total <= 0:
        return 0.0
    p = w / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())
