"""Optimizers: convergence, weight decay, state handling, validation."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.nn import Parameter
from repro.autograd.optim import SGD, Adam


def quadratic_loss(p: Parameter) -> Tensor:
    target = np.array([1.0, -2.0, 3.0])
    diff = ops.sub(p, target)
    return ops.sum(ops.mul(diff, diff))


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0, 3.0], atol=1e-4)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(3))
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(30):
                loss = quadratic_loss(p)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return quadratic_loss(p).item()

        assert run(0.9) < run(0.0)

    def test_single_step_matches_formula(self):
        p = Parameter(np.array([2.0]))
        opt = SGD([p], lr=0.5)
        loss = ops.sum(ops.mul(p, p))  # grad = 2p = 4
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.5 * 4.0)

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward happened
        assert p.data[0] == pytest.approx(1.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0, 3.0], atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, |Δ| ≈ lr regardless of gradient scale.
        p = Parameter(np.array([100.0]))
        opt = Adam([p], lr=0.01)
        loss = ops.sum(ops.mul(p, p))
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert abs(p.data[0] - 100.0) == pytest.approx(0.01, rel=1e-5)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))


class TestWeightDecay:
    def test_decay_shrinks_parameters(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.step()  # grad 0 → update = -lr · 2λθ
        assert p.data[0] == pytest.approx(10.0 - 0.1 * 2 * 0.5 * 10.0)

    def test_decay_changes_fixed_point(self):
        # min (p - 1)² + λp² has fixed point 1 / (1 + λ).
        lam = 0.5
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.05, weight_decay=lam)
        for _ in range(500):
            diff = ops.sub(p, 1.0)
            loss = ops.sum(ops.mul(diff, diff))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert p.data[0] == pytest.approx(1.0 / (1.0 + lam), abs=1e-3)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, weight_decay=-1.0)


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_zero_grad_clears_all(self):
        p1, p2 = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        opt = SGD([p1, p2], lr=0.1)
        ops.sum(ops.add(ops.mul(p1, p1), p2)).backward()
        opt.zero_grad()
        assert p1.grad is None and p2.grad is None


class TestEmbeddingTableReference:
    """Multi-step updates of a table whose gradient reaches only the rows
    gathered that step must match a plain numpy optimizer bit for bit:
    untouched rows still get moment decay and weight-decay drift."""

    PLANS = [[0, 1, 2], [3], [0, 5], [7, 8, 9], [1], [11], [0, 1, 2, 3]]

    @staticmethod
    def _gather_grads(shape):
        # Gradient of sum(table[rows] * w) is w scattered into `rows`.
        grads = []
        for step, rows in enumerate(TestEmbeddingTableReference.PLANS):
            w = np.random.default_rng(step).normal(size=(len(rows), shape[1]))
            g = np.zeros(shape)
            g[rows] = w
            grads.append((rows, w, g))
        return grads

    def _train(self, opt_factory):
        table = Parameter(np.random.default_rng(0).normal(size=(12, 4)))
        start = table.data.copy()
        opt = opt_factory([table])
        grads = self._gather_grads(table.data.shape)
        for rows, w, _ in grads:
            loss = ops.sum(ops.mul(ops.gather_rows(table, np.asarray(rows)), w))
            opt.zero_grad()
            loss.backward()
            opt.step()
        return table.data, start, [g for _, _, g in grads]

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_adam_matches_numpy(self, weight_decay):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        got, theta, grads = self._train(
            lambda ps: Adam(ps, lr=lr, weight_decay=weight_decay)
        )
        m = v = None
        for t, g in enumerate(grads, 1):
            if weight_decay:
                g = g + 2.0 * weight_decay * theta
            m = g * (1 - b1) if m is None else b1 * m + (1 - b1) * g
            v = g**2 * (1 - b2) if v is None else b2 * v + (1 - b2) * g**2
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(got, theta)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_sgd_matches_numpy(self, momentum, weight_decay):
        lr = 0.05
        got, theta, grads = self._train(
            lambda ps: SGD(ps, lr=lr, momentum=momentum, weight_decay=weight_decay)
        )
        vel = None
        for g in grads:
            if weight_decay:
                g = g + 2.0 * weight_decay * theta
            if momentum:
                vel = g if vel is None else momentum * vel + g
                g = vel
            theta = theta - lr * g
        assert np.array_equal(got, theta)
