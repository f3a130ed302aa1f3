"""Layer building blocks shared by the target model and the draft module.

Every layer accepts either input type. A ``Tensor`` runs the autodiff tape
(training and gradient checks). A plain ``np.ndarray`` runs tape-free numpy
(inference); only this path takes a KV cache. The array path checks nothing
for NaN or Inf itself: its callers wrap each forward's outputs in a
``Tensor`` once, which checks them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import DimensionError, Parameter, Tensor

MASKED_SCORE = -1e9


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

    def promote_to(self, dtype) -> None:
        """Cast all parameters (f32 -> f64 is exact, so a model trained in f32
        can be evaluated under the f64 decoding engine bit-stably)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None


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
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Parameter(np.ones(dim, dtype=T.default_dtype()))
        self._eps = eps

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            # sum / n is what ndarray.mean computes, bit for bit, with less overhead
            ms = (x * x).sum(axis=-1, keepdims=True) / x.shape[-1] + self._eps
            return x * ms**-0.5 * self.gain.data
        return T.rms_norm(x, self.gain, self._eps)


def silu(x):
    """x * sigmoid(x) on a Tensor (taped) or on an array."""
    if isinstance(x, Tensor):
        return T.silu(x)
    # T.silu's sigmoid bit for bit, with one exp: exp(min(x, 0)) is exp(-|x|) if x < 0, else 1
    e = np.exp(-np.abs(x))
    return x * (np.where(x < 0, e, 1.0) / (1.0 + e))


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


def causal_mask_bias(n: int, dtype) -> np.ndarray:
    """Additive [n, n] mask over new tokens: token i sees new tokens j <= i."""
    return np.triu(np.full((n, n), MASKED_SCORE, dtype=dtype), k=1)


def tree_mask_bias(tree_mask: np.ndarray, dtype) -> np.ndarray:
    """Additive [n, n] mask from a boolean ancestor-or-self matrix over new tokens."""
    return np.where(tree_mask, 0.0, MASKED_SCORE).astype(dtype, copy=False)


class SelfAttention(Module):
    """Multi-head self-attention over [..., T, d].

    ``mask_bias`` is an additive [T, T] mask over the new tokens' own keys;
    keys already in ``cache`` (array input only) are visible to every query.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        if dim % n_heads:
            raise DimensionError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.wq = Linear(dim, dim, rng, bias=False)
        self.wk = Linear(dim, dim, rng, bias=False)
        self.wv = Linear(dim, dim, rng, bias=False)
        self.wo = Linear(dim, dim, rng, bias=False)
        self._n_heads = n_heads
        self._scale = 1.0 / np.sqrt(dim // n_heads)

    def __call__(self, x, cache: LayerKV | None = None, mask_bias: np.ndarray | None = None):
        if isinstance(x, np.ndarray):
            return self._attend(x, cache, mask_bias)
        if cache is not None:
            raise TypeError("cached attention takes an np.ndarray input, not a Tensor")
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

    def _attend(self, x: np.ndarray, cache: LayerKV | None, mask_bias) -> np.ndarray:
        *lead, t, d = x.shape
        split = (*lead, t, self._n_heads, d // self._n_heads)
        q, k, v = (proj(x).reshape(split) for proj in (self.wq, self.wk, self.wv))
        if cache is not None:
            if lead:
                raise DimensionError("cached attention expects an unbatched [T, d] input")
            cache.extend(k, v)
            k, v = cache.k, cache.v
        q, k, v = (y.swapaxes(-3, -2) for y in (q, k, v))  # [..., H, T, dh]
        scores = q @ k.swapaxes(-1, -2)
        scores *= self._scale
        if mask_bias is not None:
            scores[..., -t:] += mask_bias
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return self.wo((scores @ v).swapaxes(-3, -2).reshape(*lead, t, d))


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.w1 = Linear(dim, hidden, rng, bias=False)
        self.w2 = Linear(hidden, dim, rng, bias=False)

    def __call__(self, x):
        return self.w2(silu(self.w1(x)))


class TransformerLayer(Module):
    """Pre-norm attention + feed-forward block with residual connections.

    ``out_norm=True`` adds a final normalization, used where a single layer
    stands alone (adaptation layers, encoder stacks) rather than inside a deep
    stack with one shared final norm.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        ffn_dim: int,
        rng: np.random.Generator,
        eps: float = 1e-5,
        out_norm: bool = False,
    ):
        self.norm1 = RMSNorm(dim, eps)
        self.attn = SelfAttention(dim, n_heads, rng)
        self.norm2 = RMSNorm(dim, eps)
        self.ffn = FeedForward(dim, ffn_dim, rng)
        self.out_norm = RMSNorm(dim, eps) if out_norm else None

    def __call__(self, x, cache: LayerKV | None = None, mask_bias: np.ndarray | None = None):
        h = x + self.attn(self.norm1(x), cache=cache, mask_bias=mask_bias)
        h = h + self.ffn(self.norm2(h))
        if self.out_norm is not None:
            h = self.out_norm(h)
        return h
