"""Layer building blocks shared by the target model and the draft module.

Every layer accepts either input type. A ``Tensor`` runs the autodiff tape
(training and gradient checks). A plain ``np.ndarray`` runs tape-free numpy
(inference); only this path takes a KV cache. The array path checks nothing
for NaN or Inf itself: its callers wrap each forward's outputs in a
``Tensor`` once, which checks them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import DimensionError, Parameter, Tensor

MASKED_SCORE = -1e9
# Added to the mean square under RMSNorm's square root.
NORM_EPS = 1e-5
# Query rows per block of tape-free attention (see SelfAttention._attend).
# Trees of up to 64 nodes and 1-token steps stay one block, computed exactly
# as unblocked attention; 32 and 128 were timed too (README, "Precision").
BLOCK = 64


class Module:
    """Minimal parameter container with deterministic dotted naming.

    Attributes that are Parameters, Modules, or lists thereof are registered
    in definition order; attributes starting with "_" are ignored (used for
    shared/frozen references that belong to another module's checkpoint).
    """

    def named_parameters(self, prefix: str = ""):
        for key, val in vars(self).items():
            if key.startswith("_"):
                continue
            full = f"{prefix}{key}"
            if isinstance(val, Parameter):
                val.name = full
                yield full, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{full}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Parameter):
                        item.name = f"{full}.{i}"
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        state = {}
        for name, p in self.named_parameters(prefix):
            if name in state:
                raise ValueError(f"duplicate parameter name {name!r}")
            state[name] = p.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for name, p in self.named_parameters(prefix):
            if name not in state:
                raise KeyError(f"checkpoint is missing {name!r}")
            arr = state[name]
            if tuple(arr.shape) != p.shape:
                raise DimensionError(
                    f"{name!r}: checkpoint shape {arr.shape} != parameter shape {p.shape}"
                )
            p.data = np.ascontiguousarray(arr, dtype=p.data.dtype)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(T.default_dtype())


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Parameter(uniform_init(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(uniform_init(rng, (out_dim,), in_dim)) if bias else None

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            out = x @ self.weight.data
            if self.bias is not None:
                out += self.bias.data
            return out
        out = T.matmul(x, self.weight)
        if self.bias is not None:
            out = T.add(out, self.bias)
        return out


class RMSNorm(Module):
    def __init__(self, dim: int):
        self.gain = Parameter(np.ones(dim, dtype=T.default_dtype()))

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            # sum / n is what ndarray.mean computes, bit for bit, with less overhead
            ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + NORM_EPS
            return x * ms**-0.5 * self.gain.data
        return T.rms_norm(x, self.gain, NORM_EPS)


def silu(x):
    """x * sigmoid(x) on a Tensor (taped) or on an array."""
    if isinstance(x, Tensor):
        return T.silu(x)
    out = T.sigmoid(x)
    out *= x
    return out


class LayerKV:
    """Per-layer key/value store: preallocated [capacity, n_heads, head_dim]
    buffers and a length pointer. ``k`` and ``v`` are [len, n_heads, head_dim]
    views; nothing here copies the cached rows."""

    def __init__(self, n_heads: int, head_dim: int, capacity: int):
        dt = T.default_dtype()
        self._k = np.zeros((capacity, n_heads, head_dim), dtype=dt)
        self._v = np.zeros((capacity, n_heads, head_dim), dtype=dt)
        self.length = 0

    @property
    def k(self) -> np.ndarray:
        return self._k[: self.length]

    @property
    def v(self) -> np.ndarray:
        return self._v[: self.length]

    def extend(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write [T, n_heads, head_dim] rows after the cached ones, in place."""
        start, end = self.length, self.length + k_new.shape[0]
        if end > self._k.shape[0]:
            raise DimensionError(
                f"KV cache overflow: {start} cached + {k_new.shape[0]} new > "
                f"capacity {self._k.shape[0]}"
            )
        self._k[start:end] = k_new
        self._v[start:end] = v_new
        self.length = end

    def truncate(self, new_len: int) -> None:
        if not 0 <= new_len <= self.length:
            raise DimensionError(f"cannot truncate cache of length {self.length} to {new_len}")
        self.length = new_len

    def select(self, base: int, offsets: list[int]) -> None:
        """Keep rows [0, base) and then base + offset for each offset, in order."""
        rows = base + np.asarray(offsets, dtype=np.int64)
        end = base + len(offsets)
        self._k[base:end] = self._k[rows]
        self._v[base:end] = self._v[rows]
        self.length = end


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., T, d] -> [..., H, T, dh]."""
    *lead, t, d = x.shape
    head_dim = d // n_heads
    x = T.reshape(x, (*lead, t, n_heads, head_dim))
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.transpose(x, axes)


def _merge_heads(x: Tensor) -> Tensor:
    """[..., H, T, dh] -> [..., T, d]."""
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    x = T.transpose(x, axes)
    *lead, t, h, dh = x.shape
    return T.reshape(x, (*lead, t, h * dh))


@lru_cache(maxsize=8)
def causal_mask_bias(n: int, dtype) -> np.ndarray:
    """Additive [n, n] mask over new tokens: token i sees new tokens j <= i.
    Memoized, so it is read-only: every caller shares one array."""
    bias = np.triu(np.full((n, n), MASKED_SCORE, dtype=dtype), k=1)
    bias.flags.writeable = False
    return bias


def tree_mask_bias(tree_mask: np.ndarray, dtype) -> np.ndarray:
    """Additive [n, n] mask from a boolean ancestor-or-self matrix over new tokens."""
    return np.where(tree_mask, 0.0, MASKED_SCORE).astype(dtype, copy=False)


class SelfAttention(Module):
    """Multi-head self-attention over [..., T, d].

    ``causal=True`` lets new token i see new tokens j <= i. In its place,
    ``mask_bias`` is an additive [T, T] mask over the new tokens' own keys; on
    the array path it must be lower-triangular (no new token sees a later one).
    Keys already in ``cache`` (array input only) are visible to every query.
    ``last_rows`` (array input only) computes the output of just the last
    ``last_rows`` new tokens, [..., last_rows, d]; every new token's key and
    value still enter ``cache``.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        if dim % n_heads:
            raise DimensionError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.wq = Linear(dim, dim, rng, bias=False)
        self.wk = Linear(dim, dim, rng, bias=False)
        self.wv = Linear(dim, dim, rng, bias=False)
        self.wo = Linear(dim, dim, rng, bias=False)
        self._n_heads = n_heads
        # a Python float scales an f32 array in f32, as the taped path does
        self._scale = float(1.0 / np.sqrt(dim // n_heads))

    def __call__(
        self,
        x,
        cache: LayerKV | None = None,
        mask_bias: np.ndarray | None = None,
        causal: bool = False,
        last_rows: int | None = None,
    ):
        if isinstance(x, np.ndarray):
            return self._attend(x, cache, mask_bias, causal, last_rows)
        if cache is not None or last_rows is not None:
            raise TypeError("cached or last-row attention takes an np.ndarray input, not a Tensor")
        if causal:
            mask_bias = causal_mask_bias(x.shape[-2], x.data.dtype)
        q = _split_heads(self.wq(x), self._n_heads)
        k = _split_heads(self.wk(x), self._n_heads)
        v = _split_heads(self.wv(x), self._n_heads)
        scores = T.mul(
            T.matmul(q, T.swap_last_axes(k)),
            Tensor(np.asarray(self._scale, dtype=x.data.dtype)),
        )
        if mask_bias is not None:
            scores = T.add(scores, Tensor(mask_bias))
        probs = T.softmax(scores, axis=-1)
        out = _merge_heads(T.matmul(probs, v))
        return self.wo(out)

    def _attend(
        self, x: np.ndarray, cache: LayerKV | None, mask_bias, causal, last_rows
    ) -> np.ndarray:
        """Attention in blocks of ``BLOCK`` query rows, over the query rows
        [t0, T) (all of them unless ``last_rows``). Under a mask, block
        [s0, e) scores only keys [0, base + e): every later key is masked, so
        skipping it drops only exact zeros from each softmax row. A causal
        block adds just its diagonal [s0:e, s0:e] part of the mask; the rest
        of its row is 0. With T - t0 <= BLOCK one block scores every key."""
        *lead, t, d = x.shape
        t0 = 0 if last_rows is None else t - last_rows
        split = (*lead, -1, self._n_heads, d // self._n_heads)
        q = ((x if t0 == 0 else x[..., t0:, :]) @ self.wq.weight.data).reshape(split)
        k = (x @ self.wk.weight.data).reshape(split)
        v = (x @ self.wv.weight.data).reshape(split)
        if cache is not None:
            if lead:
                raise DimensionError("cached attention expects an unbatched [T, d] input")
            cache.extend(k, v)
            k, v = cache.k, cache.v
        q, k, v = q.swapaxes(-3, -2), k.swapaxes(-3, -2), v.swapaxes(-3, -2)  # [..., H, T, dh]
        n_keys = k.shape[-2]
        base = n_keys - t  # cached keys
        diagonal = causal_mask_bias(BLOCK, x.dtype) if causal and t > 1 else None
        if t - t0 <= BLOCK:  # one block: every query row against every key, no slices
            out = self._block(q, k, v, diagonal, mask_bias, base, t0, t)
        else:
            blocks = []
            for s0 in range(t0, t, BLOCK):
                e = min(s0 + BLOCK, t)
                end = base + e if causal or mask_bias is not None else n_keys
                qb, kb, vb = q[..., s0 - t0 : e - t0, :], k[..., :end, :], v[..., :end, :]
                blocks.append(self._block(qb, kb, vb, diagonal, mask_bias, base, s0, e))
            out = np.concatenate(blocks, axis=-2)
        return out.swapaxes(-3, -2).reshape(*lead, t - t0, d) @ self.wo.weight.data

    def _block(self, q, k, v, diagonal, mask_bias, base: int, s0: int, e: int) -> np.ndarray:
        """Softmax attention of the new query rows [s0, e) over keys ``k``."""
        scores = q @ k.swapaxes(-1, -2)
        scores *= self._scale
        if diagonal is not None:
            scores[..., base + s0 :] += diagonal[: e - s0, : e - s0]
        elif mask_bias is not None:
            scores[..., base:] += mask_bias[s0:e, :e]
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        return scores @ v


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.w1 = Linear(dim, hidden, rng, bias=False)
        self.w2 = Linear(hidden, dim, rng, bias=False)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return silu(x @ self.w1.weight.data) @ self.w2.weight.data
        return self.w2(silu(self.w1(x)))


class TransformerLayer(Module):
    """Pre-norm attention + feed-forward block with residual connections.

    ``out_norm=True`` adds a final normalization, used where a single layer
    stands alone (adaptation layers, encoder stacks) rather than inside a deep
    stack with one shared final norm. ``last_rows`` (array input only)
    returns just the last rows, as ``SelfAttention`` computes them.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        ffn_dim: int,
        rng: np.random.Generator,
        out_norm: bool = False,
    ):
        self.norm1 = RMSNorm(dim)
        self.attn = SelfAttention(dim, n_heads, rng)
        self.norm2 = RMSNorm(dim)
        self.ffn = FeedForward(dim, ffn_dim, rng)
        self.out_norm = RMSNorm(dim) if out_norm else None

    def __call__(
        self,
        x,
        cache: LayerKV | None = None,
        mask_bias: np.ndarray | None = None,
        causal: bool = False,
        last_rows: int | None = None,
    ):
        a = self.attn(
            self.norm1(x), cache=cache, mask_bias=mask_bias, causal=causal, last_rows=last_rows
        )
        h = x + a if last_rows is None else x[..., -last_rows:, :] + a
        h = h + self.ffn(self.norm2(h))
        if self.out_norm is not None:
            h = self.out_norm(h)
        return h
