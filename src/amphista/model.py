"""Frozen-able causal decoder target model with KV caching and tree-masked decoding.

``forward`` (cached decoding) runs tape-free and returns checked arrays.
``forward_batch`` (whole sequences, no cache) returns ``Tensor``s, taped only
while a parameter requires grad: when the target itself trains, and for the
unfrozen reference the cached path is tested against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (
    LayerKV,
    Linear,
    Module,
    Parameter,
    RMSNorm,
    TransformerLayer,
    tree_mask_bias,
)
from .tensor import DimensionError, NonFiniteError, Tensor, check_finite


@dataclass
class ModelConfig:
    vocab_size: int = 256
    hidden_dim: int = 64
    n_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 256
    max_seq_len: int = 512

    def __post_init__(self):
        if self.hidden_dim % self.n_heads:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2")


class KVCache:
    """Per-layer key/value store for one decoding session; all layers share a length."""

    def __init__(self, n_layers: int, n_heads: int, head_dim: int, capacity: int):
        self.layers = [LayerKV(n_heads, head_dim, capacity) for _ in range(n_layers)]

    @property
    def length(self) -> int:
        lens = {layer.length for layer in self.layers}
        if len(lens) != 1:
            raise RuntimeError(f"cache layers disagree on length: {sorted(lens)}")
        return lens.pop()

    def truncate(self, new_len: int) -> None:
        """Drop entries past ``new_len``; replay after truncation matches a fresh run."""
        if new_len > self.length:
            raise DimensionError(
                f"truncate to {new_len} exceeds cache length {self.length}"
            )
        for layer in self.layers:
            layer.truncate(new_len)

    def select_path(self, base: int, offsets: list[int]) -> None:
        """Compact tree entries down to the accepted path.

        Keeps entries [0, base) plus base+offset for each offset, in order;
        offsets are strictly increasing tree-local indices.
        """
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if offsets and (offsets[0] < 0 or base + offsets[-1] >= self.length):
            raise DimensionError("path offset out of cache range")
        for layer in self.layers:
            layer.select(base, offsets)


@dataclass
class TargetOutput:
    """Rows of the final hidden state and logits: the last new token's from a
    causal ``forward`` ([1, d], [1, V]), every node's from a tree-masked one
    ([n_new, ...]), every position's from ``forward_batch`` ([B, T, ...]).
    Arrays from ``forward``, ``Tensor``s from ``forward_batch``."""

    hidden: np.ndarray | Tensor
    logits: np.ndarray | Tensor


class TargetModel(Module):
    """Small pre-norm decoder-only transformer with learned absolute positions."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        d = config.hidden_dim
        dt = T.default_dtype()
        self.token_emb = Parameter((rng.standard_normal((config.vocab_size, d)) * 0.02).astype(dt))
        self.pos_emb = Parameter((rng.standard_normal((config.max_seq_len, d)) * 0.02).astype(dt))
        self.layers = [
            TransformerLayer(d, config.n_heads, config.ffn_dim, rng)
            for _ in range(config.n_layers)
        ]
        self.final_norm = RMSNorm(d)
        self.lm_head = Linear(d, config.vocab_size, rng, bias=False)

    @property
    def head_dim(self) -> int:
        return self.config.hidden_dim // self.config.n_heads

    def new_cache(self) -> KVCache:
        c = self.config
        return KVCache(c.n_layers, c.n_heads, self.head_dim, c.max_seq_len)

    def forward(
        self,
        tokens,
        cache: KVCache,
        mask: np.ndarray | None = None,
        positions=None,
    ) -> TargetOutput:
        """Extend ``cache`` with ``tokens`` and return hidden states and logits.

        Without a mask, attention is causal over cache + new tokens, and only
        the last new token's row is returned ([1, d] and [1, V]); the last
        layer runs its queries, FFN and the LM head for that row alone, and
        still caches every new token's keys and values. With a (square,
        boolean) tree mask, every new token's row is returned: new token i
        additionally attends to new token j iff mask[i][j]; the mask must be
        lower-triangular (j <= i, as ``build_mask`` makes it) and
        ``positions`` must then be supplied.

        Runs tape-free and returns arrays. Every check raises before
        ``cache`` changes; a NaN or Inf output rolls it back.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        n = tokens.shape[0] if tokens.ndim else 0
        if tokens.ndim != 1 or n == 0:
            raise DimensionError("forward requires a non-empty 1-D token list")
        base = cache.length
        if base + n > self.config.max_seq_len:
            raise DimensionError(
                f"sequence overflow: {base} cached + {n} new > max_seq_len "
                f"{self.config.max_seq_len}"
            )
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n, n):
                raise DimensionError(f"mask shape {mask.shape} != ({n}, {n})")
            if np.triu(mask, k=1).any():
                raise DimensionError(
                    "mask has an entry above the diagonal: a token may not attend to a later one"
                )
            if positions is None:
                raise DimensionError("tree-masked forward requires explicit positions")
        if positions is None:  # in range: the overflow check above passed
            pos = self.pos_emb.data[base : base + n]
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.shape != (n,):
                raise DimensionError(f"positions length {positions.shape} != token count {n}")
            T.check_ids(positions, self.config.max_seq_len, "position id")
            pos = self.pos_emb.data[positions]
        bias = None if mask is None else tree_mask_bias(mask, self.token_emb.data.dtype)
        x = T.lookup(self.token_emb.data, tokens) + pos
        causal = mask is None
        for i, (layer, kv) in enumerate(zip(self.layers, cache.layers)):
            last_rows = 1 if causal and i == len(self.layers) - 1 else None
            x = layer(x, cache=kv, mask_bias=bias, causal=causal, last_rows=last_rows)
        hidden = self.final_norm(x)
        logits = self.lm_head(hidden)
        try:
            check_finite(hidden, "hidden states")
            check_finite(logits, "logits")
        except NonFiniteError:
            cache.truncate(base)  # a failed forward leaves no new rows in the cache
            raise
        return TargetOutput(hidden=hidden, logits=logits)

    def forward_batch(self, tokens: np.ndarray) -> TargetOutput:
        """Causal full-sequence forward over [B, T] token ids (no cache).

        On the tape while any parameter requires grad; otherwise (a frozen
        target) tape-free through the same layers, as ``forward`` runs."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[1] == 0:
            raise DimensionError("forward_batch requires a [B, T] token array")
        t = tokens.shape[1]
        if t > self.config.max_seq_len:
            raise DimensionError("sequence longer than max_seq_len")
        taped = any(p.requires_grad for p in self.parameters())
        if taped:
            x = T.add(T.embedding(self.token_emb, tokens), T.embedding(self.pos_emb, np.arange(t)))
        else:
            x = T.lookup(self.token_emb.data, tokens) + self.pos_emb.data[:t]
        for layer in self.layers:
            x = layer(x, causal=True)
        hidden = self.final_norm(x)
        logits = self.lm_head(hidden)
        if taped:
            return TargetOutput(hidden=hidden, logits=logits)
        return TargetOutput(hidden=Tensor(hidden), logits=Tensor(logits))


def sample(logits: np.ndarray, temperature: float, rng: np.random.Generator | None = None) -> int:
    """Draw a token: argmax at T=0 (lowest index wins ties), categorical otherwise."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if logits.ndim != 1:
        raise DimensionError("sample expects a single logits row")
    if temperature == 0:
        return int(logits.argmax())
    if rng is None:
        raise ValueError("temperature > 0 sampling requires an rng")
    return categorical(T.stable_softmax(logits / temperature), rng)


def categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Deterministic inverse-CDF draw given the generator state."""
    cdf = np.cumsum(probs)
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(probs) - 1))
