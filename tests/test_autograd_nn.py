"""Module system: parameter discovery, layers, state round-trips."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.nn import MLP, Embedding, Linear, Module, Parameter, activation


class Inner(Module):
    def __init__(self, rng):
        self.linear = Linear(3, 2, rng)


class Outer(Module):
    def __init__(self, rng):
        self.inner = Inner(rng)
        self.free = Parameter(np.zeros(4))
        self.layer_list = [Linear(2, 2, rng), Linear(2, 2, rng)]
        self.layer_dict = {"a": Parameter(np.ones(1))}
        self.not_a_param = np.zeros(3)


class TestModuleDiscovery:
    def test_named_parameters_paths(self, rng):
        m = Outer(rng)
        names = dict(m.named_parameters())
        assert "inner.linear.weight" in names
        assert "inner.linear.bias" in names
        assert "free" in names
        assert "layer_list.0.weight" in names
        assert "layer_dict.a" in names

    def test_parameters_unique(self, rng):
        m = Outer(rng)
        shared = Parameter(np.zeros(2))
        m.shared_a = shared
        m.shared_b = shared
        params = m.parameters()
        assert sum(1 for p in params if p is shared) == 1

    def test_plain_arrays_not_collected(self, rng):
        m = Outer(rng)
        assert all(isinstance(p, Parameter) for p in m.parameters())

    def test_num_parameters(self, rng):
        m = Inner(rng)
        assert m.num_parameters() == 3 * 2 + 2

    def test_zero_grad(self, rng):
        m = Inner(rng)
        out = m.linear(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert m.linear.weight.grad is not None
        m.zero_grad()
        assert m.linear.weight.grad is None


class TestStateDict:
    def test_round_trip(self, rng):
        m1, m2 = Inner(rng), Inner(np.random.default_rng(99))
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(m1.linear.weight.data, m2.linear.weight.data)

    def test_state_dict_is_a_copy(self, rng):
        m = Inner(rng)
        state = m.state_dict()
        state["linear.weight"][:] = 0.0
        assert not np.allclose(m.linear.weight.data, 0.0)

    def test_unknown_key_rejected(self, rng):
        m = Inner(rng)
        with pytest.raises(KeyError):
            m.load_state_dict({"nope": np.zeros(1)})

    def test_shape_mismatch_rejected(self, rng):
        m = Inner(rng)
        state = m.state_dict()
        state["linear.bias"] = np.zeros(5)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 4)

    def test_lookup_values(self, rng):
        emb = Embedding(5, 3, rng)
        np.testing.assert_allclose(emb([2]).numpy()[0], emb.weight.data[2])

    def test_gradient_flows_to_rows(self, rng):
        emb = Embedding(5, 3, rng)
        emb(np.array([1, 1, 4])).sum().backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[1], 2.0)
        np.testing.assert_allclose(grad[4], 1.0)
        np.testing.assert_allclose(grad[0], 0.0)


class TestLinearAndMLP:
    def test_linear_affine(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_linear_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_shapes(self, rng):
        mlp = MLP([4, 8, 2], rng)
        out = mlp(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)

    def test_mlp_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_learns_xor_direction(self, rng):
        # Quick sanity: gradient descent reduces loss on a toy problem.
        from repro.autograd.optim import Adam

        mlp = MLP([2, 8, 1], rng, hidden_activation="tanh")
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        opt = Adam(mlp.parameters(), lr=5e-2)
        first = None
        for _ in range(150):
            pred = mlp(Tensor(x))
            diff = ops.sub(pred, y)
            loss = ops.mean(ops.mul(diff, diff))
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.2


class TestActivationRegistry:
    def test_known(self):
        f = activation("relu")
        t = Tensor([[-1.0, 2.0]])
        np.testing.assert_array_equal(f(t).data, ops.relu(t).data)

    def test_late_binding_sees_patched_ops(self, monkeypatch):
        """Activations must resolve through the ops *module attribute* at
        call time — the profiler patches it, and an early-bound
        reference would silently bypass it."""
        f = activation("relu")
        calls = []
        real = ops.relu
        monkeypatch.setattr(
            ops, "relu", lambda x: calls.append("hit") or real(x)
        )
        f(Tensor([1.0, -1.0]))
        assert calls == ["hit"]

    def test_identity(self):
        f = activation("identity")
        t = Tensor([1.0, -1.0])
        assert f(t) is t

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            activation("swish9000")


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        from repro.autograd.nn import load_state, save_state

        m1 = MLP([3, 4, 2], rng)
        m2 = MLP([3, 4, 2], np.random.default_rng(99))
        path = str(tmp_path / "weights.npz")
        save_state(m1, path)
        load_state(m2, path)
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(m1(x).numpy(), m2(x).numpy())

    def test_model_level_round_trip(self, rng, tmp_path):
        from repro.autograd.nn import load_state, save_state
        from repro.core import CGKGR, CGKGRConfig
        from repro.data import generate_profile

        ds = generate_profile("music", seed=0, scale=0.3)
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        m1 = CGKGR(ds, cfg, seed=0)
        m2 = CGKGR(ds, cfg, seed=5)
        path = str(tmp_path / "cgkgr.npz")
        save_state(m1, path)
        load_state(m2, path)
        m2.sampler = m1.sampler  # align sampled neighborhoods
        users, items = ds.train.users[:4], ds.train.items[:4]
        np.testing.assert_allclose(m1.predict(users, items), m2.predict(users, items))
