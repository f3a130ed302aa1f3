"""Dense tensors with reverse-mode automatic differentiation.

numpy provides storage and BLAS; this module adds the tape. Every op
validates that its output is finite and raises ``NonFiniteError`` otherwise,
so numerical problems surface at the op that caused them instead of three
modules later. The tape serves training and gradient checks. Inference runs
the same layers on plain arrays, with no tape and no per-op check, and passes
each forward's outputs to ``check_finite`` once, so a NaN or Inf still raises
``NonFiniteError`` before any token is chosen from them.

Gradients accumulate: callers zero them between optimizer steps. The tape is
built only while gradients are enabled (see ``no_grad``) and only for outputs
that depend on at least one tensor with ``requires_grad=True``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "NonFiniteError",
    "Tensor",
    "Parameter",
    "no_grad",
    "set_default_dtype",
    "default_dtype",
    "dtype_context",
    "add",
    "mul",
    "matmul",
    "concat",
    "stack",
    "select",
    "narrow",
    "transpose",
    "swap_last_axes",
    "reshape",
    "expand_dims",
    "tsum",
    "softmax",
    "silu",
    "sigmoid",
    "rms_norm",
    "embedding",
    "lookup",
    "check_ids",
    "check_finite",
    "stable_softmax",
    "cross_entropy",
    "backward",
]


class DimensionError(ValueError):
    """Shape, axis, or extent mismatch between operands."""


class NonFiniteError(FloatingPointError):
    """An op produced (or was handed) NaN or Inf."""


_DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_GRAD_ENABLED = True


def set_default_dtype(dtype) -> None:
    """Set the dtype used for tensors created from Python data (f32 or f64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (e.g. a frozen model's taped forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def dtype_context(dtype):
    """Temporarily switch the default dtype (e.g. build and train in f32)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return ``arr``; raise ``NonFiniteError``, naming ``what`` and its shape, on NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} of shape {arr.shape} contains NaN or Inf")
    return arr


class Tensor:
    """N-dimensional float array, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        if isinstance(data, np.ndarray) and dtype is None and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        check_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
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

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- gradient plumbing ---------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))


class Parameter(Tensor):
    """Trainable tensor with a checkpoint name (assigned at registration)."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_DEFAULT_DTYPE))


def _result(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accum(t: Tensor, grad: np.ndarray) -> None:
    """Add ``grad``, summed down to ``t``'s shape, into ``t.grad``.

    The first gradient is stored as a C-contiguous copy, never as ``grad``
    itself: ``add``'s backward hands one array to both of its parents, and a
    broadcast view (``tsum``'s) is read-only, so either would break the
    in-place accumulation of a later gradient.
    """
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(grad, dtype=t.data.dtype), t.data.shape)
    if t.grad is None:
        t.grad = np.array(g, order="C")
    else:
        t.grad += g


def _accum_slice(t: Tensor, key: tuple, grad: np.ndarray) -> None:
    """Add ``grad`` into ``t.grad[key]``, the part of ``t`` a slice op read."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[key] += np.asarray(grad, dtype=t.data.dtype)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad`` fields."""
    if loss.data.size != 1:
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor requiring grad")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    _accum(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# -- elementwise ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _result(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(out, (a, b), bwd)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the smooth gate used throughout the feed-forward blocks."""
    s = sigmoid(x.data)
    out = x.data * s

    def bwd(g):
        _accum(x, g * (s + x.data * s * (1.0 - s)))

    return _result(out, (x,), bwd)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) of a plain array, overflow-free on both tails, with
    one exp: e = exp(-|x|) <= 1 is exp(x) where x < 0, so the max picks e
    there and 1 elsewhere, without a branch. The same bits as the two-exp
    exp(min(x, 0)) / (1 + exp(-|x|))."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, x >= 0)
    e += 1.0
    s /= e
    return s


# -- shape ops -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style batching on leading axes.

    Backward computes a gradient only for an operand that requires one. A
    2-D (or 1-D) ``b``, a weight, gets its gradient from one GEMM over every
    row of ``a``, ``a.reshape(-1, d_in).T @ g.reshape(-1, d_out)``, rather
    than from a per-batch [..., d_in, d_out] stack summed over its batch axes.
    Batched-by-batched products (attention's q.k^T and p.v) keep the batched
    form. The forward is one ``np.matmul`` either way.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise DimensionError("matmul requires at least 1-D operands")
    A = ad[None, :] if ad.ndim == 1 else ad
    B = bd[:, None] if bd.ndim == 1 else bd
    if A.shape[-1] != B.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {ad.shape} @ {bd.shape}"
        )
    out = np.matmul(A, B)
    if bd.ndim == 1:
        out = out[..., 0]
    if ad.ndim == 1:
        out = out[..., 0, :] if bd.ndim > 1 else out[..., 0]

    def bwd(g):
        G = np.asarray(g)
        if ad.ndim == 1 and bd.ndim == 1:
            G = G.reshape(G.shape + (1, 1))
        elif ad.ndim == 1:
            G = np.expand_dims(G, -2)
        elif bd.ndim == 1:
            G = np.expand_dims(G, -1)
        if a.requires_grad:
            ga = np.matmul(G, np.swapaxes(B, -1, -2))
            if ad.ndim == 1:
                ga = ga.reshape(ga.shape[:-2] + (ga.shape[-1],))
            _accum(a, ga)
        if b.requires_grad:
            if B.ndim == 2:
                gb = A.reshape(-1, A.shape[-1]).T @ G.reshape(-1, G.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(A, -1, -2), G)
            if bd.ndim == 1:
                gb = gb.reshape(gb.shape[:-1])
            _accum(b, gb)

    return _result(out, (a, b), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accum(x, np.transpose(g, inverse))

    return _result(out, (x,), bwd)


def swap_last_axes(x: Tensor) -> Tensor:
    axes = list(range(x.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(x, axes)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _result(out, (x,), bwd)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    shape = list(x.shape)
    shape.insert(axis if axis >= 0 else axis + x.ndim + 1, 1)
    return reshape(x, shape)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _result(out, tuple(tensors), bwd)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return concat([expand_dims(t, axis) for t in tensors], axis=axis)


def select(x: Tensor, index: int, axis: int) -> Tensor:
    """Pick one slice along ``axis`` (the axis is dropped)."""
    axis = axis if axis >= 0 else axis + x.ndim
    if not 0 <= axis < x.ndim:
        raise DimensionError(f"select axis {axis} out of range for ndim {x.ndim}")
    if not 0 <= index < x.shape[axis]:
        raise DimensionError(f"select index {index} out of range for extent {x.shape[axis]}")
    key = (slice(None),) * axis + (index,)
    out = x.data[key]

    def bwd(g):
        _accum_slice(x, key, g)

    return _result(np.ascontiguousarray(out), (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    axis = axis if axis >= 0 else axis + x.ndim
    if not 0 <= axis < x.ndim:
        raise DimensionError(f"narrow axis {axis} out of range for ndim {x.ndim}")
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}, {start + length}) out of range for extent {x.shape[axis]}"
        )
    key = (slice(None),) * axis + (slice(start, start + length),)
    out = x.data[key]

    def bwd(g):
        _accum_slice(x, key, g)

    return _result(np.ascontiguousarray(out), (x,), bwd)


# -- reductions --------------------------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape))
            return
        g2 = g if keepdims else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g2, x.data.shape))

    return _result(out, (x,), bwd)


# -- neural-net ops -----------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probabilities along ``axis``, stabilized by max subtraction."""
    if x.data.shape == () or x.data.shape[axis] < 1:
        raise DimensionError("softmax over an empty axis")
    out = stable_softmax(x.data, axis)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - inner))

    return _result(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis with learnable gain."""
    if gain.data.shape != (x.data.shape[-1],):
        raise DimensionError(
            f"gain shape {gain.shape} does not match feature dim {x.shape[-1]}"
        )
    ms = (x.data * x.data).mean(axis=-1, keepdims=True) + eps
    r = ms**-0.5
    normed = x.data * r
    out = normed * gain.data

    def bwd(g):
        n = x.data.shape[-1]
        gy = g * gain.data
        inner = (gy * x.data).sum(axis=-1, keepdims=True)
        _accum(x, r * gy - (r**3 / n) * x.data * inner)
        _accum(gain, (g * normed).sum(axis=tuple(range(g.ndim - 1))))

    return _result(out, (x, gain), bwd)


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of a plain array along ``axis``, stabilized by max subtraction."""
    ex = np.exp(x - x.max(axis=axis, keepdims=True))
    return ex / ex.sum(axis=axis, keepdims=True)


def check_ids(ids: np.ndarray, n: int, what: str) -> None:
    """Raise ``IndexError`` unless every id lies in [0, n): one id by an int
    compare, more by a min/max scan."""
    if ids.size == 1:
        bad = not 0 <= ids.item() < n
    else:
        bad = ids.size and (ids.min() < 0 or ids.max() >= n)
    if bad:
        raise IndexError(f"{what} out of range [0, {n})")


def lookup(table: np.ndarray, ids) -> np.ndarray:
    """Rows of a plain array, with the id range check of ``embedding``."""
    ids = np.asarray(ids)
    check_ids(ids, table.shape[0], "token id")
    return table[ids]


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids of any shape -> output of shape ids.shape + (dim,)."""
    ids = np.asarray(ids)
    out = lookup(table.data, ids)

    def bwd(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        _accum(table, buf)

    return _result(out, (table,), bwd)


def _log_softmax_data(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean cross-entropy of ``logits`` rows against hard indices or soft rows.

    Hard target: integer index (array of shape logits.shape[:-1]) ->
    -log softmax(logits)[index]. Soft target: probability rows summing to
    1 +/- 1e-6 -> -sum p * log softmax(logits). Targets are constants; no
    gradient flows into them.
    """
    ld = logits.data
    if ld.ndim == 0:
        raise DimensionError("cross_entropy requires at least one logit axis")
    n = ld.shape[-1]
    rows_shape = ld.shape[:-1]
    n_rows = int(np.prod(rows_shape)) if rows_shape else 1
    flat = ld.reshape(n_rows, n)
    logp = _log_softmax_data(flat)
    probs = np.exp(logp)

    if isinstance(target, Tensor):
        target = target.data
    tgt = np.asarray(target)

    if np.issubdtype(tgt.dtype, np.integer):
        if tgt.shape != rows_shape:
            raise DimensionError(
                f"hard target shape {tgt.shape} does not match logit rows {rows_shape}"
            )
        ti = tgt.reshape(n_rows)
        check_ids(ti, n, "target index")
        losses = -logp[np.arange(n_rows), ti]
        delta = probs.copy()
        delta[np.arange(n_rows), ti] -= 1.0
    else:
        if tgt.shape != ld.shape:
            raise DimensionError(
                f"soft target shape {tgt.shape} does not match logits {ld.shape}"
            )
        soft = tgt.reshape(n_rows, n)
        sums = soft.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-6) or np.any(soft < -1e-9):
            raise ValueError("soft target rows must be probabilities summing to 1")
        losses = -(soft * logp).sum(axis=-1)
        delta = probs - soft

    scale = 1.0 / n_rows
    out = np.asarray(losses.sum() * scale)

    def bwd(g):
        g_val = float(np.asarray(g).reshape(-1)[0])
        _accum(logits, (g_val * scale * delta).reshape(ld.shape))

    return _result(out, (logits,), bwd)
