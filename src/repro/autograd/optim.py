"""Adam over a :class:`Parameter` list — the optimizer the paper trains with.

``weight_decay`` implements the paper's L2 regularizer
``λ‖Θ‖²`` (gradient contribution ``2λθ``) so that models do not have to
thread every parameter through the loss expression.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.autograd.nn import Parameter


class Adam:
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        #: Number of completed steps.
        self._t = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def flush(self) -> None:
        """No-op: every parameter is current after :meth:`step`.

        Kept as a stable name that profilers wrap when timing the
        optimizer (``perfbench/train_child.py`` wraps ``Adam.flush``).
        """

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _grad(self, p: Parameter) -> np.ndarray:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if self.weight_decay:
            grad = grad + 2.0 * self.weight_decay * p.data
        return grad

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p in self.params:
            grad = self._grad(p)
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            m = grad * (1 - self.beta1) if m is None else self.beta1 * m + (1 - self.beta1) * grad
            v = grad**2 * (1 - self.beta2) if v is None else self.beta2 * v + (1 - self.beta2) * grad**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
