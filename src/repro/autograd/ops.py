"""Differentiable operations on :class:`~repro.autograd.tensor.Tensor`.

Every function returns a new tensor whose tape node closes over whatever
intermediate arrays the backward pass needs.  Broadcasting binary ops undo
broadcasting in backward via :func:`~repro.autograd.tensor.unbroadcast`.

The general :func:`einsum` is the workhorse of the attention mechanisms in
:mod:`repro.core`: its adjoint swaps the output subscript with the operand
subscript, which is valid whenever each operand's indices all appear in the
output or the other operands (asserted at trace time).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import ArrayLike, Tensor, differentiable, ensure_tensor, unbroadcast

TensorLike = Union[Tensor, ArrayLike]


# ----------------------------------------------------------------------
# Elementwise binary ops
# ----------------------------------------------------------------------
@differentiable
def add(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, sa=a.shape: unbroadcast(g, sa),
            lambda g, sb=b.shape: unbroadcast(g, sb),
        ),
        "add",
    )


@differentiable
def sub(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, sa=a.shape: unbroadcast(g, sa),
            lambda g, sb=b.shape: unbroadcast(-g, sb),
        ),
        "sub",
    )


@differentiable
def mul(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, bd=b.data, sa=a.shape: unbroadcast(g * bd, sa),
            lambda g, ad=a.data, sb=b.shape: unbroadcast(g * ad, sb),
        ),
        "mul",
    )


@differentiable
def div(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data / b.data
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, bd=b.data, sa=a.shape: unbroadcast(g / bd, sa),
            lambda g, ad=a.data, bd=b.data, sb=b.shape: unbroadcast(
                -g * ad / (bd * bd), sb
            ),
        ),
        "div",
    )


@differentiable
def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise maximum; on ties the gradient flows to the first input."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, m=take_a, sa=a.shape: unbroadcast(g * m, sa),
            lambda g, m=~take_a, sb=b.shape: unbroadcast(g * m, sb),
        ),
        "maximum",
    )


@differentiable
def where(condition: ArrayLike, a: TensorLike, b: TensorLike) -> Tensor:
    """Select elementwise from ``a`` where ``condition`` else ``b``."""
    cond = np.asarray(condition, dtype=bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.where(cond, a.data, b.data)
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g, c=cond, sa=a.shape: unbroadcast(g * c, sa),
            lambda g, c=~cond, sb=b.shape: unbroadcast(g * c, sb),
        ),
        "where",
    )


@differentiable
def neg(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    return Tensor._make(-a.data, (a,), (lambda g: -g,), "neg")


@differentiable
def power(a: TensorLike, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = ensure_tensor(a)
    p = float(exponent)
    out = a.data**p
    return Tensor._make(
        out,
        (a,),
        (lambda g, ad=a.data, p=p: g * p * ad ** (p - 1.0),),
        "power",
    )


# ----------------------------------------------------------------------
# Elementwise unary ops
# ----------------------------------------------------------------------
@differentiable
def exp(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    out = np.exp(a.data)
    return Tensor._make(out, (a,), (lambda g, o=out: g * o,), "exp")


@differentiable
def log(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    out = np.log(a.data)
    return Tensor._make(out, (a,), (lambda g, ad=a.data: g / ad,), "log")


@differentiable
def sqrt(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    out = np.sqrt(a.data)
    return Tensor._make(out, (a,), (lambda g, o=out: g / (2.0 * o),), "sqrt")


@differentiable
def tanh(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    out = np.tanh(a.data)
    return Tensor._make(out, (a,), (lambda g, o=out: g * (1.0 - o * o),), "tanh")


@differentiable
def sigmoid(a: TensorLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = ensure_tensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return Tensor._make(out, (a,), (lambda g, o=out: g * o * (1.0 - o),), "sigmoid")


@differentiable
def log_sigmoid(a: TensorLike) -> Tensor:
    """``log(sigmoid(a))`` computed stably as ``-softplus(-a)``."""
    a = ensure_tensor(a)
    x = a.data
    out = -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    sig = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    return Tensor._make(out, (a,), (lambda g, s=sig: g * (1.0 - s),), "log_sigmoid")


@differentiable
def softplus(a: TensorLike) -> Tensor:
    """``log(1 + exp(a))`` computed stably."""
    a = ensure_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    return Tensor._make(out, (a,), (lambda g, s=sig: g * s,), "softplus")


@differentiable
def relu(a: TensorLike) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    out = a.data * mask
    return Tensor._make(out, (a,), (lambda g, m=mask: g * m,), "relu")


@differentiable
def leaky_relu(a: TensorLike, negative_slope: float = 0.2) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    slope = float(negative_slope)
    scale = np.where(mask, 1.0, slope)
    out = a.data * scale
    return Tensor._make(out, (a,), (lambda g, s=scale: g * s,), "leaky_relu")


@differentiable
def dropout(a: TensorLike, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero a fraction ``rate`` and rescale survivors."""
    a = ensure_tensor(a)
    if not training or rate <= 0.0:
        return a
    keep = 1.0 - float(rate)
    mask = (rng.random(a.shape) < keep) / keep
    out = a.data * mask
    return Tensor._make(out, (a,), (lambda g, m=mask: g * m,), "dropout")


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _normalize_axis(axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


@differentiable
def sum(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all axes if ``None``)."""
    a = ensure_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g, shape=a.shape, axes=axes, keepdims=keepdims):
        if axes is None:
            return np.broadcast_to(g, shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, shape).copy()

    return Tensor._make(np.asarray(out), (a,), (backward,), "sum")


@differentiable
def mean(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    a = ensure_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(g, shape=a.shape, axes=axes, keepdims=keepdims, count=count):
        if axes is None:
            return np.broadcast_to(g / count, shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g / count, shape).copy()

    return Tensor._make(np.asarray(out), (a,), (backward,), "mean")


@differentiable
def max(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; gradient flows to (all) argmax positions."""
    a = ensure_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out = a.data.max(axis=axes, keepdims=keepdims)
    expanded = a.data.max(axis=axes, keepdims=True)
    mask = a.data == expanded
    counts = mask.sum(axis=axes, keepdims=True)

    def backward(g, axes=axes, keepdims=keepdims, mask=mask, counts=counts):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        elif axes is None:
            g = np.asarray(g).reshape((1,) * mask.ndim)
        return mask * (g / counts)

    return Tensor._make(np.asarray(out), (a,), (backward,), "max")


@differentiable
def logsumexp(a: TensorLike, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable ``log(sum(exp(a)))`` along one axis."""
    a = ensure_tensor(a)
    ax = axis % a.ndim
    shift = a.data.max(axis=ax, keepdims=True)
    expd = np.exp(a.data - shift)
    total = expd.sum(axis=ax, keepdims=True)
    out = np.log(total) + shift
    soft = expd / total
    if not keepdims:
        out = out.squeeze(axis=ax)

    def backward(g, soft=soft, ax=ax, keepdims=keepdims):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return g * soft

    return Tensor._make(out, (a,), (backward,), "logsumexp")


@differentiable
def softmax(a: TensorLike, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    a = ensure_tensor(a)
    ax = axis % a.ndim if a.ndim else 0
    shift = a.data - a.data.max(axis=ax, keepdims=True)
    expd = np.exp(shift)
    out = expd / expd.sum(axis=ax, keepdims=True)

    def backward(g, o=out, ax=ax):
        inner = (g * o).sum(axis=ax, keepdims=True)
        return o * (g - inner)

    return Tensor._make(out, (a,), (backward,), "softmax")


@differentiable
def masked_softmax(a: TensorLike, mask: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is truthy.

    Fully-masked slices produce all-zero weights instead of NaN, which is
    what the neighbor-sampling code relies on when a node has no neighbors.
    """
    a = ensure_tensor(a)
    m = np.asarray(mask, dtype=bool)
    ax = axis % a.ndim
    neg = np.where(m, a.data, -np.inf)
    shift_vals = neg.max(axis=ax, keepdims=True)
    shift_vals = np.where(np.isfinite(shift_vals), shift_vals, 0.0)
    # exp(-inf) is exactly 0, so masked slots zero themselves; reuse the
    # ``neg`` buffer for the remaining passes instead of allocating anew.
    np.subtract(neg, shift_vals, out=neg)
    expd = np.exp(neg, out=neg)
    total = expd.sum(axis=ax, keepdims=True)
    safe_total = np.where(total > 0, total, 1.0)
    out = np.divide(expd, safe_total, out=expd)

    def backward(g, o=out, ax=ax):
        inner = (g * o).sum(axis=ax, keepdims=True)
        return o * (g - inner)

    return Tensor._make(out, (a,), (backward,), "masked_softmax")


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
@differentiable
def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    """Matrix product following numpy ``@`` semantics (incl. batching)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data

    def backward_a(g, ad=a.data, bd=b.data, sa=a.shape):
        if bd.ndim == 1:
            grad = np.expand_dims(g, -1) * bd  # (..., n) outer
        elif ad.ndim == 1:
            grad = (np.expand_dims(g, -2) @ np.swapaxes(bd, -1, -2)).squeeze(-2)
        else:
            grad = g @ np.swapaxes(bd, -1, -2)
        return unbroadcast(grad, sa)

    def backward_b(g, ad=a.data, bd=b.data, sb=b.shape):
        if ad.ndim == 1:
            grad = np.expand_dims(ad, -1) * np.expand_dims(g, -2)
        elif bd.ndim == 1:
            grad = (np.swapaxes(ad, -1, -2) @ np.expand_dims(g, -1)).squeeze(-1)
        else:
            grad = np.swapaxes(ad, -1, -2) @ g
        return unbroadcast(grad, sb)

    return Tensor._make(out, (a, b), (backward_a, backward_b), "matmul")


def _parse_einsum_subscripts(subscripts: str, n_operands: int) -> Tuple[list, str]:
    if "->" not in subscripts:
        raise ValueError("einsum requires explicit output subscripts ('->')")
    lhs, rhs = subscripts.split("->")
    operand_subs = [s.strip() for s in lhs.split(",")]
    if len(operand_subs) != n_operands:
        raise ValueError(
            f"einsum got {n_operands} operands for {len(operand_subs)} subscripts"
        )
    return operand_subs, rhs.strip()


#: Contraction plans keyed by (subscripts, operand shapes): ``False``
#: (run the single-pass C kernel), a precomputed ``np.einsum_path`` result,
#: or a :class:`_BmmPlan` routing the contraction through batched matmul.
_EINSUM_PLANS: dict = {}


class _BmmPlan:
    """A two-operand einsum rewritten as one batched GEMM.

    Index groups: *batch* (in both operands and the output), *m* (first
    operand + output), *n* (second operand + output), *k* (contracted).
    Execution transposes each operand to ``batch+m+k`` / ``batch+k+n``
    order, reshapes to 3-D, runs ``np.matmul``, and permutes the result
    back to the requested output order.
    """

    __slots__ = ("perm_a", "perm_b", "bmk", "bkn", "inter_shape", "perm_out")

    def __init__(self, a_subs, b_subs, out_subs, a_shape, b_shape):
        dims = {c: s for c, s in zip(a_subs, a_shape)}
        dims.update({c: s for c, s in zip(b_subs, b_shape)})
        a_set, b_set, out_set = set(a_subs), set(b_subs), set(out_subs)
        batch = [c for c in out_subs if c in a_set and c in b_set]
        m = [c for c in out_subs if c in a_set and c not in b_set]
        n = [c for c in out_subs if c in b_set and c not in a_set]
        k = [c for c in a_subs if c in b_set and c not in out_set]
        prod = lambda cs: int(np.prod([dims[c] for c in cs])) if cs else 1
        self.perm_a = [a_subs.index(c) for c in batch + m + k]
        self.perm_b = [b_subs.index(c) for c in batch + k + n]
        self.bmk = (prod(batch), prod(m), prod(k))
        self.bkn = (prod(batch), prod(k), prod(n))
        inter = batch + m + n
        self.inter_shape = tuple(dims[c] for c in inter)
        self.perm_out = [inter.index(c) for c in out_subs]

    def sizes(self):
        return self.bmk[1], self.bmk[2], self.bkn[2]

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        at = a.transpose(self.perm_a).reshape(self.bmk)
        bt = b.transpose(self.perm_b).reshape(self.bkn)
        out = np.matmul(at, bt).reshape(self.inter_shape)
        return out.transpose(self.perm_out)


def _try_bmm_plan(subscripts: str, a, b):
    """A :class:`_BmmPlan` when the spec is a clean batched GEMM, else None."""
    lhs, rhs = subscripts.split("->")
    a_subs, b_subs = (s.strip() for s in lhs.split(","))
    out_subs = rhs.strip()
    a_set, b_set, out_set = set(a_subs), set(b_subs), set(out_subs)
    if (
        len(a_set) != len(a_subs)
        or len(b_set) != len(b_subs)
        or len(out_set) != len(out_subs)
    ):
        return None  # repeated index (trace/diagonal): not a GEMM
    if out_set - (a_set | b_set) or (a_set ^ b_set) - out_set:
        return None  # free index missing from the output
    return _BmmPlan(a_subs, b_subs, out_subs, a.shape, b.shape)


def _choose_einsum_plan(subscripts: str, arrays) -> object:
    """Pick between the single-pass kernel and a BLAS-routed contraction.

    The rule is shape-deterministic (no timing involved, so results are
    reproducible run to run): three or more operands always benefit from
    pairwise contraction.  A two-operand contraction without a *batch*
    index (one shared by both operands **and** the output) is a true GEMM
    and goes through ``np.einsum_path``.  A batched contraction goes
    through :class:`_BmmPlan` (one batched GEMM) exactly when the
    per-batch problem is big enough to amortize the transposes —
    ``M·K·N ≥ 256`` with every side ≥ 2; degenerate per-batch shapes
    (outer products, dot products) stay on the single-pass kernel, which
    beats BLAS there.
    """
    if len(arrays) < 2:
        return False
    if len(arrays) == 2:
        lhs, rhs = subscripts.split("->")
        a_subs, b_subs = (s.strip() for s in lhs.split(","))
        if set(a_subs) & set(b_subs) & set(rhs.strip()):
            plan = _try_bmm_plan(subscripts, *arrays)
            if plan is not None:
                m, k, n = plan.sizes()
                if m * k * n >= 256 and min(m, k, n) >= 2:
                    return plan
            return False
    return np.einsum_path(subscripts, *arrays, optimize="optimal")[0]


def _fast_einsum(subscripts: str, *arrays) -> np.ndarray:
    """``np.einsum`` with a cached, deterministically chosen contraction plan."""
    key = (subscripts,) + tuple(a.shape for a in arrays)
    plan = _EINSUM_PLANS.get(key)
    if plan is None:
        plan = _choose_einsum_plan(subscripts, arrays)
        _EINSUM_PLANS[key] = plan
    if plan is False:
        return np.einsum(subscripts, *arrays)
    if isinstance(plan, _BmmPlan):
        return plan(*arrays)
    return np.einsum(subscripts, *arrays, optimize=plan)


@differentiable
def einsum(subscripts: str, *operands: TensorLike) -> Tensor:
    """Differentiable ``numpy.einsum`` with explicit output subscripts.

    The adjoint for operand *i* is ``einsum(out_subs + other_subs ->
    subs_i, grad, *others)``.  This is valid when every index of operand
    *i* appears in the output or some other operand, and no operand repeats
    an index internally — both conditions are asserted.
    """
    tensors = [ensure_tensor(op) for op in operands]
    operand_subs, out_subs = _parse_einsum_subscripts(subscripts, len(tensors))
    for subs in operand_subs:
        if len(set(subs)) != len(subs):
            raise ValueError(f"einsum operand subscript {subs!r} repeats an index")
    out = _fast_einsum(subscripts, *[t.data for t in tensors])

    backward_fns = []
    for i, subs_i in enumerate(operand_subs):
        other_subs = [s for j, s in enumerate(operand_subs) if j != i]
        others = [t.data for j, t in enumerate(tensors) if j != i]
        available = set(out_subs) | set("".join(other_subs))
        missing = set(subs_i) - available
        if missing:
            raise ValueError(
                f"einsum index {missing} appears only in operand {i}; "
                "its adjoint is not expressible — restructure the expression"
            )
        grad_expr = ",".join([out_subs] + other_subs) + "->" + subs_i

        def backward(g, expr=grad_expr, others=tuple(others)):
            return _fast_einsum(expr, g, *others)

        backward_fns.append(backward)

    return Tensor._make(np.asarray(out), tuple(tensors), tuple(backward_fns), "einsum")


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
@differentiable
def reshape(a: TensorLike, shape: Tuple[int, ...]) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.reshape(shape)
    return Tensor._make(
        out, (a,), (lambda g, s=a.shape: g.reshape(s),), "reshape"
    )


@differentiable
def transpose(a: TensorLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))
    return Tensor._make(
        out, (a,), (lambda g, inv=inverse: g.transpose(inv),), "transpose"
    )


@differentiable
def concat(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    ts = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    backward_fns = []
    for i in range(len(ts)):
        lo, hi = offsets[i], offsets[i + 1]

        def backward(g, lo=lo, hi=hi, axis=axis):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(lo, hi)
            return g[tuple(slicer)]

        backward_fns.append(backward)

    return Tensor._make(out, tuple(ts), tuple(backward_fns), "concat")


@differentiable
def stack(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    ts = [ensure_tensor(t) for t in tensors]
    out = np.stack([t.data for t in ts], axis=axis)

    backward_fns = []
    for i in range(len(ts)):

        def backward(g, i=i, axis=axis):
            return np.take(g, i, axis=axis)

        backward_fns.append(backward)

    return Tensor._make(out, tuple(ts), tuple(backward_fns), "stack")


def segment_sum(keys, n_keys: int, dense: np.ndarray, cols=None, weights=None) -> np.ndarray:
    """Keyed row sum ``out[h, k] = Σ_{j: keys[j]=k} weights[j, h] · dense[cols[j]]``.

    The one scatter-add primitive: the embedding, index and guided
    attention adjoints and the :func:`scatter_rows` forward use it.
    ``keys`` (any shape, flattened; negative values count from the end as
    in numpy indexing) picks the output row of each term ``j``; ``cols``
    (default ``arange``) the ``dense`` row it reads; ``weights`` ``(n, H)``
    scales it per head (default: one head of 1s).  ``dense`` is
    ``(m, d)``; the result is ``(H, n_keys, d)``.

    It runs as a single ``csr_matrix @ dense`` product with head-major rows
    ``h · n_keys + k``, so nothing per-term of size ``d`` is materialized.
    A stable sort of ``keys`` (radix for 16-bit keys) orders each row's
    terms by ``j``, the order ``np.add.at`` and ``np.bincount`` sum in,
    so unit-weight results are bit-identical to theirs.
    """
    from scipy import sparse

    keys = np.asarray(keys).reshape(-1).astype(np.intp, copy=False)
    if keys.size and keys.min() < 0:
        keys = np.where(keys < 0, keys + n_keys, keys)
    sort_keys = keys.astype(np.uint16) if n_keys <= 65535 else keys
    order = np.argsort(sort_keys, kind="stable")
    if weights is None:
        weights = np.ones((keys.size, 1), dtype=dense.dtype)
    n_heads = weights.shape[1]
    counts = np.bincount(keys, minlength=n_keys)
    indptr = np.zeros(n_heads * n_keys + 1, dtype=np.int64)
    np.cumsum(np.tile(counts, n_heads), out=indptr[1:])
    rows = order if cols is None else np.asarray(cols).reshape(-1)[order]
    matrix = sparse.csr_matrix(
        (weights[order].T.reshape(-1), np.tile(rows, n_heads), indptr),
        shape=(n_heads * n_keys, len(dense)),
    )
    return (matrix @ dense).reshape(n_heads, n_keys, dense.shape[1])


def _scatter_index(shape: Tuple[int, ...], idx, g: np.ndarray) -> np.ndarray:
    """Adjoint of ``a[idx]``: ``zeros(shape)`` with ``g`` summed in at ``idx``.

    An integer array, or a tuple of them (the transformed-table gather of
    the KG attention), indexes the leading axes; it is linearized into one
    key per position and summed by :func:`segment_sum`.  Any other index
    expression uses ``np.add.at``.
    """
    parts = idx if isinstance(idx, tuple) else (idx,)
    if (
        parts
        and len(parts) <= len(shape)
        and all(isinstance(p, np.ndarray) and p.dtype.kind in "iu" for p in parts)
    ):
        k = len(parts)
        keys = parts[0] if k == 1 else np.ravel_multi_index(
            np.broadcast_arrays(*parts), shape[:k], mode="wrap"
        )
        n_keys = int(np.prod(shape[:k], dtype=np.int64))
        rest = int(np.prod(shape[k:], dtype=np.int64))
        return segment_sum(keys, n_keys, g.reshape(keys.size, rest))[0].reshape(shape)
    grad = np.zeros(shape, dtype=g.dtype)
    np.add.at(grad, idx, g)
    return grad


@differentiable
def index_select(a: TensorLike, index) -> Tensor:
    """Generic ``a[index]`` with scatter-add backward.

    ``index`` may be any basic/advanced numpy index expression whose
    adjoint is well defined via scatter-add.
    """
    a = ensure_tensor(a)
    out = a.data[index]

    def backward(g, idx=index, shape=a.shape):
        return _scatter_index(shape, idx, g)

    return Tensor._make(np.asarray(out), (a,), (backward,), "index_select")


@differentiable
def gather_rows(table: TensorLike, indices: ArrayLike) -> Tensor:
    """Row lookup ``table[indices]`` for an integer index array.

    This is the embedding-lookup primitive: ``table`` is ``(n, d)`` and
    ``indices`` any integer-shaped array; the result has shape
    ``indices.shape + (d,)``.  Backward scatter-adds into the table.
    """
    table = ensure_tensor(table)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError("gather_rows indices must be integers")
    out = table.data[idx]

    def backward(g, idx=idx, shape=table.shape):
        return _scatter_index(shape, idx, g)

    return Tensor._make(out, (table,), (backward,), "gather_rows")


# Alias with the conventional deep-learning name.
embedding_lookup = gather_rows


@differentiable
def l2_norm_squared(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of squared entries across a list of tensors (L2 regularizer)."""
    total: Optional[Tensor] = None
    for t in tensors:
        term = sum(mul(t, t))
        total = term if total is None else add(total, term)
    if total is None:
        return Tensor(0.0)
    return total


@differentiable
def scatter_rows(values: TensorLike, indices: ArrayLike, n_rows: int) -> Tensor:
    """Scatter-add ``(E, d)`` rows into an ``(n_rows, d)`` table.

    The adjoint of :func:`gather_rows`: ``out[r] = Σ_{e: indices[e]=r}
    values[e]``; backward gathers the output gradient back per row.  Used
    by graph convolutions that aggregate edge messages into node tables.
    """
    values = ensure_tensor(values)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError("scatter_rows indices must be integers")
    if idx.ndim != 1 or values.ndim != 2 or len(idx) != len(values):
        raise ValueError("scatter_rows expects (E, d) values and (E,) indices")
    out = segment_sum(idx, int(n_rows), values.data)[0]

    def backward(g, idx=idx):
        return g[idx]

    return Tensor._make(out, (values,), (backward,), "scatter_rows")


@differentiable
def bpr_loss(pos_scores: TensorLike, neg_scores: TensorLike) -> Tensor:
    """Bayesian personalized ranking loss: ``-mean(log σ(ŷ⁺ - ŷ⁻))``.

    The pairwise objective shared by BPRMF/LightGCN/NGCF/KGAT (Rendle et
    al., 2009); composed from primitive ops so the tape differentiates it.
    """
    return neg(mean(log_sigmoid(sub(pos_scores, neg_scores))))


@differentiable
def emb_loss(tensors: Sequence[Tensor]) -> Tensor:
    """Embedding L2 over a batch's *gathered rows*: ``Σ_t ½‖t‖² / B``.

    The KGAT/RecBole ``EmbLoss`` convention — squared Frobenius norm of
    each gathered embedding block, halved and averaged over the batch
    size ``B`` (leading dimension of the first block).  Unlike optimizer
    weight decay this only regularizes rows that appear in the batch,
    which is what the pairwise objective of this model family pairs with.
    """
    blocks = [ensure_tensor(t) for t in tensors]
    if not blocks:
        return Tensor(0.0)
    batch = int(blocks[0].shape[0]) if blocks[0].ndim else 1
    if batch < 1:  # empty batch — avoid a divide by zero (`max` is an op here)
        batch = 1
    return mul(l2_norm_squared(blocks), 0.5 / batch)
