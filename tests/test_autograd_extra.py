"""Additional autograd coverage: where/power gradients, einsum
adjoint shapes, mixed requires_grad, and numerical-gradient utilities."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops
from repro.autograd.gradcheck import numerical_gradient


class TestMixedRequiresGrad:
    def test_constant_branch_gets_no_gradient(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)))  # constant
        out = ops.mul(a, b)
        out.sum().backward()
        assert a.grad is not None
        assert b.grad is None

    def test_all_constant_output_not_tracked(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        b = Tensor(rng.normal(size=(3,)))
        out = ops.mul(a, b)
        assert not out.requires_grad

    def test_einsum_partial_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)))
        out = ops.einsum("ij,jk->ik", a, b)
        out.sum().backward()
        assert a.grad.shape == (2, 3)


class TestNumericalGradientUtility:
    def test_matches_known_derivative(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        grad = numerical_gradient(lambda t: ops.mul(t, t), [x], 0)
        np.testing.assert_allclose(grad, [4.0, 6.0], atol=1e-5)

    def test_gradcheck_detects_wrong_gradient(self):
        """A deliberately broken op must make gradcheck fail."""

        def broken(a):
            out = ops.mul(a, a)
            # Tamper with the tape: double the true gradient.
            orig = out._backward_fns[0]
            out._backward_fns = (lambda g: 2.0 * orig(g), out._backward_fns[1])
            return out

        x = Tensor(np.array([1.5]), requires_grad=True)
        with pytest.raises(AssertionError):
            gradcheck(broken, [x])


class TestChainedComposites:
    def test_full_recommender_style_expression(self, rng):
        """Embedding → attention → aggregate → dot, end-to-end gradcheck."""
        table = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        idx_users = np.array([0, 3])
        idx_items = np.array([5, 7])
        idx_nb = np.array([[1, 2, 4], [0, 6, 2]])

        def fn(table, weight):
            v_u = ops.gather_rows(weight, idx_users)
            v_i = ops.gather_rows(table, idx_items)
            nb = ops.gather_rows(table, idx_nb)
            scores = ops.einsum("bd,bkd->bk", v_u, nb)
            att = ops.softmax(scores, axis=-1)
            summary = ops.einsum("bk,bkd->bd", att, nb)
            v = ops.tanh(ops.add(v_i, summary))
            return ops.sum(ops.mul(v_u, v), axis=-1)

        assert gradcheck(fn, [table, weight])

    def test_power_of_sum(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3,))) + 1.0, requires_grad=True)
        assert gradcheck(lambda x: ops.power(ops.add(x, 1.0), 2.0), [a])

    def test_where_blend_gradcheck(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert gradcheck(
            lambda x, y: ops.where(cond, ops.exp(x), ops.mul(y, 2.0)), [a, b]
        )


class TestEinsumBackwardShapes:
    @pytest.mark.parametrize(
        "expr,shapes",
        [
            ("bd,hde,bke->bhk", [(2, 3), (2, 3, 3), (2, 4, 3)]),
            ("nq,rhpq->nrhp", [(5, 3), (2, 2, 3, 3)]),
            ("bed,behd->bhe", [(2, 4, 3), (2, 4, 2, 3)]),
            ("bwk,bwkd->bwd", [(2, 3, 2), (2, 3, 2, 4)]),
            ("bs,bsd->bd", [(2, 5), (2, 5, 3)]),
        ],
    )
    def test_grad_shapes_match_inputs(self, expr, shapes, rng):
        tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        out = ops.einsum(expr, *tensors)
        out.sum().backward()
        for t, s in zip(tensors, shapes):
            assert t.grad.shape == s
