"""Seeded RNG helper."""

from __future__ import annotations

import numpy as np


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator derived from a tuple of integer keys.

    The stream is a pure function of the key tuple — independent of
    process, call order, and platform — so, say, the epoch-``e``
    neighbor-sampling stream can be rebuilt as ``derive_rng(seed,
    STREAM_SAMPLER, e)`` and draws identical values every time.  Distinct
    key tuples give statistically independent streams
    (``np.random.SeedSequence`` entropy pooling); key order matters.
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))
