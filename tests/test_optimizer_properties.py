"""Property tests on optimizer update rules."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import ops
from repro.autograd.nn import Parameter
from repro.autograd.optim import Adam

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


def small_vec():
    return st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ).map(np.asarray)


class TestAdamProperties:
    @given(vec=small_vec(), lr=st.floats(1e-4, 1e-1))
    def test_step_magnitude_bounded(self, vec, lr):
        """Adam's bias-corrected first step is ≤ lr per coordinate
        (up to eps slack), regardless of gradient scale."""
        p = Parameter(vec.copy())
        opt = Adam([p], lr=lr)
        loss = ops.sum(ops.mul(p, ops.mul(p, 1000.0)))  # huge gradients
        opt.zero_grad()
        loss.backward()
        opt.step()
        delta = np.abs(p.data - vec)
        assert np.all(delta <= lr * 1.001 + 1e-12)

    @given(vec=small_vec())
    def test_zero_gradient_no_movement_without_decay(self, vec):
        p = Parameter(vec.copy())
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward at all
        np.testing.assert_allclose(p.data, vec)

    @given(vec=small_vec(), decay=st.floats(0.01, 1.0))
    def test_weight_decay_pulls_toward_zero(self, vec, decay):
        """Adam's first step has magnitude ≈ lr in the -sign(θ) direction
        under pure decay; coordinates larger than lr must shrink (smaller
        ones may legitimately overshoot zero)."""
        lr = 0.01
        p = Parameter(vec.copy())
        opt = Adam([p], lr=lr, weight_decay=decay)
        opt.step()
        large = np.abs(vec) > 2 * lr
        assert np.all(np.abs(p.data[large]) < np.abs(vec[large]))
