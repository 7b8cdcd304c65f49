"""Weight initializers.

The paper initializes all models with the Xavier (Glorot) scheme; the
functions here fill numpy arrays in place or return fresh arrays, always
drawing from a caller-supplied :class:`numpy.random.Generator` so that
experiments are reproducible under seed control.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _fan_in_out(shape: Sequence[int]) -> Tuple[int, int]:
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initializer."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))


def normal(shape: Sequence[int], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Zero-mean Gaussian with the given standard deviation."""
    return rng.normal(0.0, std, size=tuple(shape))


def uniform(shape: Sequence[int], rng: np.random.Generator, low: float = -0.05, high: float = 0.05) -> np.ndarray:
    """Uniform initializer on ``[low, high)``."""
    return rng.uniform(low, high, size=tuple(shape))


def zeros(shape: Sequence[int]) -> np.ndarray:
    return np.zeros(tuple(shape))


def ones(shape: Sequence[int]) -> np.ndarray:
    return np.ones(tuple(shape))
