"""Core ``Tensor`` type with a reverse-mode gradient tape.

The design mirrors the classic define-by-run pattern: every operation on
tensors records a node holding references to its parents and a closure that
maps the output gradient to parent gradients.  Calling
:meth:`Tensor.backward` runs a topological sweep over the recorded graph.

Gradients are dense numpy arrays with the same shape as their tensor.  All
floating tensors default to ``float64`` so that numerical gradient checks
are tight; model code may down-cast inputs if desired.

Observers (:class:`Observer`, :func:`add_observer`) watch three points of
the engine — :func:`differentiable` op calls, tensor construction, and
:meth:`Tensor.backward` walks — without patching anything.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

class _GradMode(threading.local):
    """Per-thread tape switch: a server runs ``no_grad`` forwards on
    several threads at once, and one thread's exit must not flip another's
    mode.  Every thread starts enabled."""

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record the gradient tape."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode) on the
    calling thread."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


# ----------------------------------------------------------------------
# Observers
# ----------------------------------------------------------------------
#: Registered observers, in registration order.  Every hook site tests
#: this list first, so with no observer a hook costs one truthiness check.
_observers: List["Observer"] = []
_observers_lock = threading.Lock()  # registration is check-then-act
_op_depth = threading.local()


class Observer:
    """Base class of autograd observers; override the hooks you need.
    Hooks run synchronously on the thread that triggered them."""

    def on_op(self, name: str, t0: float, t1: float, depth: int, out: Any) -> None:
        """Op ``name`` returned ``out``; ``t0``/``t1`` are ``perf_counter``
        stamps, ``depth`` counts enclosing op calls on this thread."""

    def on_tensor(self, tensor: "Tensor", op: str) -> None:
        """``tensor`` was built by op ``op`` (``"leaf"`` if constructed directly)."""

    def on_backward(self, t0: float, t1: float) -> None:
        """A :meth:`Tensor.backward` walk ran from ``t0`` to ``t1``."""


def add_observer(observer: Observer) -> None:
    """Register ``observer``; registering one twice raises ``RuntimeError``."""
    with _observers_lock:
        if observer in _observers:
            raise RuntimeError(f"{type(observer).__name__} is already observing autograd")
        _observers.append(observer)


def remove_observer(observer: Observer) -> None:
    """Unregister ``observer`` (a no-op if it is not registered)."""
    with _observers_lock:
        if observer in _observers:
            _observers.remove(observer)


def differentiable(fn: Optional[Callable] = None, *, name: Optional[str] = None):
    """Declare ``fn`` a differentiable op, reported to observers as ``name``
    (default: the function's own name).  Use bare or as
    ``@differentiable(name="label")``."""
    if fn is None:
        return functools.partial(differentiable, name=name)
    label = name or fn.__name__

    @functools.wraps(fn)
    def op(*args, **kwargs):
        if not _observers:
            return fn(*args, **kwargs)
        return _observed_call(label, fn, args, kwargs)

    return op


def _observed_call(name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
    depth = getattr(_op_depth, "depth", 0)
    _op_depth.depth = depth + 1
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        _op_depth.depth = depth
    t1 = time.perf_counter()
    for observer in tuple(_observers):
        observer.on_op(name, t0, t1, depth, out)
    return out


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return value
        if value.dtype.kind in "iub":
            return value.astype(np.float64)
        return np.asarray(value, dtype=np.float64)
    return np.asarray(value, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting in the forward pass implicitly replicates values; the
    corresponding adjoint operation sums gradients over the replicated axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; floats are kept as-is, ints are cast to float64.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor during :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fns",
        "_op",
        # Weak referenceability lets observers watch buffer release
        # (`repro.obs.memory` registers a weakref.finalize per tensor it
        # sees constructed); costs one pointer per instance.
        "__weakref__",
    )
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False, _op: str = "leaf"):
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fns: Tuple[Optional[Callable[[np.ndarray], np.ndarray]], ...] = ()
        #: Name of the op that produced this tensor (``"leaf"`` if direct).
        self._op: str = _op
        if _observers:
            for observer in tuple(_observers):
                observer.on_tensor(self, _op)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fns: Sequence[Optional[Callable[[np.ndarray], np.ndarray]]],
        op: str,
    ) -> "Tensor":
        """Build a non-leaf tensor recording its parents on the tape."""
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track, _op=op)
        if track:
            out._parents = tuple(parents)
            out._backward_fns = tuple(backward_fns)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() on tensor of size {self.size}")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_flag})"

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar outputs.
        """
        if not _observers:
            return self._walk(grad)
        t0 = time.perf_counter()
        try:
            self._walk(grad)
        finally:
            t1 = time.perf_counter()
            for observer in tuple(_observers):
                observer.on_backward(t0, t1)

    def _walk(self, grad: Optional[ArrayLike]) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        seed = _as_array(grad)
        if seed.shape != self.shape:
            seed = np.broadcast_to(seed, self.shape).copy()

        order = self._topological_order()
        grads = {id(self): seed}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            for parent, fn in zip(node._parents, node._backward_fns):
                if fn is None or not parent.requires_grad:
                    continue
                contribution = fn(node_grad)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution

    def _topological_order(self) -> List["Tensor"]:
        """Return tensors reachable from self, outputs before inputs."""
        visited = set()
        order: List[Tensor] = []
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Operators (implemented in ops.py; bound lazily to avoid circularity)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.autograd import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autograd import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.autograd import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.autograd import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autograd import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.autograd import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.autograd import ops

        return ops.neg(self)

    def __pow__(self, exponent):
        from repro.autograd import ops

        return ops.power(self, exponent)

    def __matmul__(self, other):
        from repro.autograd import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.autograd import ops

        return ops.index_select(self, index)

    # Convenience method forms -----------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autograd import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        from repro.autograd import ops

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes or None)

    @property
    def T(self):
        return self.transpose()

    def exp(self):
        from repro.autograd import ops

        return ops.exp(self)

    def log(self):
        from repro.autograd import ops

        return ops.log(self)

    def sqrt(self):
        from repro.autograd import ops

        return ops.sqrt(self)

    def tanh(self):
        from repro.autograd import ops

        return ops.tanh(self)

    def sigmoid(self):
        from repro.autograd import ops

        return ops.sigmoid(self)

    def relu(self):
        from repro.autograd import ops

        return ops.relu(self)

    def softmax(self, axis: int = -1):
        from repro.autograd import ops

        return ops.softmax(self, axis=axis)


def ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce array-likes to (non-grad) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
