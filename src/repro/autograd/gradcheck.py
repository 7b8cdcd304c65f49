"""Numerical gradient checking for the autograd engine.

Central finite differences against analytic gradients.  This is the
correctness backstop for every differentiable op: the test suite grad-checks
each primitive and several composite expressions (including the CG-KGR
attention path).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input."""
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Compare analytic and numerical gradients of ``sum(fn(*inputs))``.

    Raises ``AssertionError`` with a diagnostic on mismatch; returns True
    on success so it can be used directly in test assertions.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.sum().backward()
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {i}: "
                f"max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
