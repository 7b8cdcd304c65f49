"""Minimal neural-network module system on the autograd engine.

``Module`` provides recursive parameter discovery (attributes that are
``Parameter``, ``Module``, or lists/dicts thereof), mirroring the familiar
PyTorch layout so model code stays conventional.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import init as initializers
from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.utils.artifact import load_npz, save_npz


class Parameter(Tensor):
    """A tensor flagged as trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter/submodule discovery."""

    def parameters(self) -> List[Parameter]:
        """Return all unique parameters in this module tree."""
        seen: Dict[int, Parameter] = {}
        for _, param in self.named_parameters():
            seen.setdefault(id(param), param)
        return list(seen.values())

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            yield from _walk(full, value)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable values."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted attribute path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays saved by :meth:`state_dict` (shapes must match).

        ``strict`` (default) also rejects *incomplete* state — every
        parameter of the module must be present, so a truncated checkpoint
        fails loudly instead of silently keeping random initialization.
        """
        params = dict(self.named_parameters())
        unknown = set(state) - set(params)
        if unknown:
            raise KeyError(f"state_dict has unknown keys: {sorted(unknown)}")
        if strict:
            missing = set(params) - set(state)
            if missing:
                raise KeyError(f"state_dict is missing keys: {sorted(missing)}")
        for name, value in state.items():
            if params[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{params[name].shape} vs {value.shape}"
                )
            params[name].data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _walk(name: str, value) -> Iterator[Tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(prefix=f"{name}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(f"{name}.{key}", item)


class Embedding(Module):
    """Lookup table of ``num_embeddings`` rows of dimension ``dim``."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(initializers.xavier_uniform((num_embeddings, dim), rng))

    def forward(self, indices) -> Tensor:
        return ops.gather_rows(self.weight, np.asarray(indices))


class Linear(Module):
    """Affine map ``x @ W + b`` with Xavier-initialized ``W``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializers.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out


def _identity(x: Tensor) -> Tensor:
    return x


# Late-bound thin wrappers, not direct references to the ops functions:
# tools that wrap ops *module attributes* (call counters) must see
# activations, so they reach the ops through attribute lookup at call time.
def _relu(x: Tensor) -> Tensor:
    return ops.relu(x)


def _tanh(x: Tensor) -> Tensor:
    return ops.tanh(x)


def _sigmoid(x: Tensor) -> Tensor:
    return ops.sigmoid(x)


def _leaky_relu(x: Tensor) -> Tensor:
    return ops.leaky_relu(x)


_ACTIVATIONS = {
    "relu": _relu,
    "tanh": _tanh,
    "sigmoid": _sigmoid,
    "leaky_relu": _leaky_relu,
    "identity": _identity,
}


def activation(name: str):
    """Look up an activation function by name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None


class MLP(Module):
    """Feed-forward stack with a hidden activation on all but the last layer."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "identity",
    ):
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        self.layers = [
            Linear(layer_sizes[i], layer_sizes[i + 1], rng)
            for i in range(len(layer_sizes) - 1)
        ]
        self._hidden = activation(hidden_activation)
        self._output = activation(output_activation)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = self._hidden(layer(x))
        return self._output(self.layers[-1](x))


def save_state(module: Module, path: str) -> None:
    """Persist a module's parameters to a verified ``.npz`` artifact
    (:mod:`repro.utils.artifact`), keyed by their dotted paths."""
    save_npz(path, module.state_dict(), {"kind": "module_state"})


def load_state(module: Module, path: str) -> None:
    """Load parameters saved by :func:`save_state` into ``module``."""
    state, _ = load_npz(path, "module_state")
    module.load_state_dict(state)
