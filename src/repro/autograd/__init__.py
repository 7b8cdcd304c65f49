"""A from-scratch reverse-mode automatic-differentiation engine on numpy.

This package is the deep-learning substrate for the CG-KGR reproduction:
the original artifact used TensorFlow 1.14, which is unavailable here, so
the tensor/AD layer is reimplemented from first principles.

Public surface:

* :class:`~repro.autograd.tensor.Tensor` — n-d array with a gradient tape.
* Functional ops — :func:`matmul`, :func:`einsum`, :func:`softmax`, ... in
  :mod:`repro.autograd.ops` (most are also methods on ``Tensor``).
* :mod:`repro.autograd.nn` — ``Module`` / ``Parameter`` / ``Embedding`` /
  ``Linear`` / ``MLP`` building blocks.
* :mod:`repro.autograd.optim` — ``Adam``.
* :mod:`repro.autograd.init` — Xavier and friends.
* :func:`~repro.autograd.gradcheck.gradcheck` — numerical gradient checking.
* :class:`~repro.autograd.tensor.Observer` with :func:`add_observer` /
  :func:`remove_observer` — hooks on op calls, tensor construction and
  backward walks (ops declare themselves with :func:`differentiable`).
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd.tensor import Observer, add_observer, differentiable, remove_observer
from repro.autograd.ops import (
    add,
    concat,
    div,
    einsum,
    embedding_lookup,
    exp,
    gather_rows,
    leaky_relu,
    log,
    log_sigmoid,
    logsumexp,
    matmul,
    maximum,
    mean,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    softplus,
    sqrt,
    stack,
    sub,
    sum as sum_,
    tanh,
    transpose,
    where,
)
from repro.autograd.gradcheck import gradcheck
from repro.autograd import init, nn, optim

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Observer", "add_observer", "remove_observer", "differentiable",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "einsum",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "log_sigmoid",
    "softplus",
    "relu",
    "leaky_relu",
    "softmax",
    "logsumexp",
    "maximum",
    "where",
    "mean",
    "sum_",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "gather_rows",
    "embedding_lookup",
    "gradcheck",
    "nn",
    "optim",
    "init",
]
