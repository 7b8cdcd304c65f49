"""Tensor mechanics: construction, tape recording, backward traversal."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.autograd.tensor import ensure_tensor, unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_int_array_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_from_scalar(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5

    def test_float_array_kept(self):
        arr = np.ones((2, 2), dtype=np.float32)
        t = Tensor(arr)
        assert t.dtype == np.float32

    def test_leaf_has_no_parents(self):
        t = Tensor([1.0], requires_grad=True)
        assert t._parents == ()
        assert t._op == "leaf"

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12
        assert t.ndim == 2


class TestBackward:
    def test_scalar_backward_default_seed(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_nonscalar_backward_requires_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        y.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_on_nongrad_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_accumulates_across_backwards(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx(6.0)

    def test_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_sums_paths(self):
        # y = x*x + x*x: two paths to x.
        x = Tensor(3.0, requires_grad=True)
        a = x * x
        y = a + a
        y.backward()
        assert x.grad == pytest.approx(12.0)

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        s = x + 1.0
        y = s * s
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_deep_chain(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(200):
            y = y + 1.0
        y.backward()
        assert x.grad == pytest.approx(1.0)


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_new_tensor_in_no_grad_does_not_require(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad

    def test_interleaved_threads_keep_their_own_mode(self):
        """A enters, B enters, A exits: B is still in no-grad mode, and
        once both exit the main thread records the tape again."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                assert b_in.wait(timeout=5)
            a_out.set()

        def thread_b():
            assert a_in.wait(timeout=5)
            with no_grad():
                b_in.set()
                assert a_out.wait(timeout=5)
                seen["enabled"] = is_grad_enabled()
                y = Tensor(2.0, requires_grad=True) * 3.0
                seen["recorded"] = y.requires_grad

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert seen == {"enabled": False, "recorded": False}
        assert is_grad_enabled()
        x = Tensor(2.0, requires_grad=True)
        assert (x * x).requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_leading_axis(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_size_one_axis(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_combined(self):
        g = np.ones((5, 2, 3))
        out = unbroadcast(g, (1, 3))
        np.testing.assert_allclose(out, np.full((1, 3), 10.0))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        out = unbroadcast(g, ())
        assert out == pytest.approx(4.0)


class TestEnsureTensor:
    def test_passthrough(self):
        t = Tensor([1.0])
        assert ensure_tensor(t) is t

    def test_wraps_array(self):
        out = ensure_tensor(np.array([1.0, 2.0]))
        assert isinstance(out, Tensor)
        assert not out.requires_grad


class TestOperatorSugar:
    def test_radd_rsub_rmul_rdiv(self):
        x = Tensor(4.0, requires_grad=True)
        assert (1.0 + x).item() == pytest.approx(5.0)
        assert (1.0 - x).item() == pytest.approx(-3.0)
        assert (2.0 * x).item() == pytest.approx(8.0)
        assert (8.0 / x).item() == pytest.approx(2.0)

    def test_neg_and_pow(self):
        x = Tensor(3.0, requires_grad=True)
        y = (-x) ** 2
        y.backward()
        assert y.item() == pytest.approx(9.0)
        assert x.grad == pytest.approx(6.0)

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0], [2.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[1.0], [2.0]])

    def test_getitem(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        y = x[0]
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    def test_transpose_property(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert x.T.shape == (3, 2)
