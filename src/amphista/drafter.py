"""The draft module: staged adaptation layers, per-head projections, an
auto-embedding block with learnable positional rows and bi-directional
self-attention, and one LM head per drafting position.

Every ablation variant is reachable through ``DrafterConfig`` alone; the
all-off configuration reproduces the independent-head (Medusa-style)
computation graph.

``draft`` (one decode step over the rolling caches) runs tape-free on plain
arrays; ``sequence_logits`` (training) runs on the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .model import TargetModel
from .nn import LayerKV, Linear, Module, RMSNorm, TransformerLayer, causal_mask_bias, silu
from .tensor import DimensionError, Parameter, Tensor

ADAPTATION_MODES = ("staged", "one_layer", "none")


@dataclass
class DrafterConfig:
    K: int = 4
    adaptation: str = "staged"
    use_sampled_token: bool = True
    use_auto_embedding: bool = True
    use_positional_encoding: bool = True
    encoder_layers: int = 1
    lm_head_rank: int | str = "full"
    sal_heads: int = 4
    sal_ffn_dim: int = 0  # 0 -> 4 * hidden_dim
    top_k_per_head: tuple[int, ...] = ()  # empty -> 10 per head

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("need at least 2 drafting heads")
        if self.adaptation not in ADAPTATION_MODES:
            raise ValueError(f"adaptation must be one of {ADAPTATION_MODES}")
        if self.encoder_layers < 1:
            raise ValueError("encoder_layers must be >= 1")
        if isinstance(self.lm_head_rank, str):
            if self.lm_head_rank != "full":
                raise ValueError("lm_head_rank must be 'full' or a positive int")
        elif self.lm_head_rank < 1:
            raise ValueError("lm_head_rank must be 'full' or a positive int")
        if not self.top_k_per_head:
            self.top_k_per_head = (10,) * self.K
        self.top_k_per_head = tuple(int(k) for k in self.top_k_per_head)
        if len(self.top_k_per_head) != self.K or any(k < 1 for k in self.top_k_per_head):
            raise ValueError("top_k_per_head needs K entries, each >= 1")


@dataclass
class DraftOutput:
    d_logits: Tensor  # [K, V]
    topk: list[list[tuple[int, float]]]  # per head, (token, prob) sorted by prob desc


def topk_lists(
    d_logits: np.ndarray, sizes: tuple[int, ...]
) -> list[list[tuple[int, float]]]:
    """Per-head (token, probability) lists, descending, ties to lower tokens."""
    out = []
    for k, size in enumerate(sizes):
        row = d_logits[k]
        shifted = row - row.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        idx = np.argsort(-probs, kind="stable")[:size]
        out.append([(int(i), float(probs[i])) for i in idx])
    return out


class DraftState:
    """Rolling KV caches for the adaptation layers, one entry per committed draft step."""

    def __init__(self, n_heads: int, head_dim: int, capacity: int):
        self.kv1 = LayerKV(n_heads, head_dim, capacity)
        self.kv2 = LayerKV(n_heads, head_dim, capacity)

    @property
    def length(self) -> int:
        return self.kv1.length

    def rollback(self, new_len: int) -> None:
        if new_len > self.length:
            raise DimensionError(
                f"rollback to {new_len} exceeds draft state length {self.length}"
            )
        self.kv1.truncate(new_len)
        self.kv2.truncate(min(new_len, self.kv2.length))


class LowRankHead(Module):
    """Factored d -> r -> V logit map (no biases, so parameters = r*(d+V))."""

    def __init__(self, dim: int, rank: int, vocab: int, rng: np.random.Generator):
        self.down = Linear(dim, rank, rng, bias=False)
        self.up = Linear(rank, vocab, rng, bias=False)

    def __call__(self, x):
        return self.up(self.down(x))


class Drafter(Module):
    """Predicts the next K tokens from the target model's latest hidden state."""

    def __init__(self, config: DrafterConfig, target: TargetModel, rng: np.random.Generator):
        mc = target.config
        d = mc.hidden_dim
        if d % config.sal_heads:
            raise ValueError("hidden_dim must be divisible by sal_heads")
        self.config = config
        self._token_emb = target.token_emb  # frozen, checkpointed with the target
        self._hidden_dim = d
        self._vocab = mc.vocab_size
        self._max_seq_len = mc.max_seq_len  # bounds the draft steps of one session
        sal_ffn = config.sal_ffn_dim or 4 * d

        if config.adaptation != "none":
            self.fc1 = Linear(2 * d, d, rng, bias=True)
            self.sal1 = TransformerLayer(d, config.sal_heads, sal_ffn, rng, out_norm=True)
        if config.adaptation == "staged":
            self.fc2 = Linear(2 * d, d, rng, bias=True)
            self.sal2 = TransformerLayer(d, config.sal_heads, sal_ffn, rng, out_norm=True)

        self.mlps = [Linear(d, d, rng, bias=True) for _ in range(config.K)]
        if config.use_positional_encoding:
            self.pe = Parameter(np.zeros((config.K, d), dtype=T.default_dtype()))
        if config.use_auto_embedding:
            self.encoder = [
                TransformerLayer(d, config.sal_heads, sal_ffn, rng)
                for _ in range(config.encoder_layers)
            ]
            self.encoder_norm = RMSNorm(d)

        if config.lm_head_rank == "full":
            self.lm_heads = [Linear(d, mc.vocab_size, rng, bias=False) for _ in range(config.K)]
        else:
            self.lm_heads = [
                LowRankHead(d, int(config.lm_head_rank), mc.vocab_size, rng)
                for _ in range(config.K)
            ]

    # -- state ---------------------------------------------------------------

    def new_state(self) -> DraftState:
        heads = self.config.sal_heads
        return DraftState(heads, self._hidden_dim // heads, self._max_seq_len)

    def attach_token_embedding(self, param: Parameter) -> None:
        """Rebind the frozen shared embedding (e.g. to a promoted target copy)."""
        if param.shape != self._token_emb.shape:
            raise DimensionError("embedding table shape mismatch")
        self._token_emb = param

    # -- stage 1: adaptation ----------------------------------------------------

    def _sampled_embedding(self, next_token) -> Tensor:
        if not self.config.use_sampled_token:
            ids = np.asarray(next_token)
            return Tensor(
                np.zeros(ids.shape + (self._hidden_dim,), dtype=self._token_emb.data.dtype)
            )
        ids = np.asarray(next_token)
        if ids.size and (ids.min() < 0 or ids.max() >= self._vocab):
            raise IndexError(f"sampled token out of range [0, {self._vocab})")
        return T.embedding(self._token_emb, ids)

    def adapt(
        self, h_t: np.ndarray, next_token: int, state: DraftState
    ) -> tuple[np.ndarray, np.ndarray]:
        """One decode step, tape-free: transform (h_t, sampled-token embedding)
        through the adaptation layers, extending their caches by one position."""
        tok = int(next_token)
        if not 0 <= tok < self._vocab:  # checked even where the embedding is unused
            raise IndexError(f"sampled token out of range [0, {self._vocab})")
        if self.config.adaptation == "none":
            return h_t, h_t
        if self.config.use_sampled_token:
            e = self._token_emb.data[tok]
        else:
            e = np.zeros_like(h_t)
        x1 = self.fc1(np.concatenate([h_t, e]))
        h1 = self.sal1(x1[None], cache=state.kv1)[0]
        if self.config.adaptation == "one_layer":
            return h1, h1
        x2 = self.fc2(np.concatenate([h1, e]))
        return h1, self.sal2(x2[None], cache=state.kv2)[0]

    def adapt_sequence(self, h: Tensor, next_tokens: np.ndarray) -> tuple[Tensor, Tensor]:
        """Teacher-forced adaptation of a whole sequence ([..., T, d]) with full
        causal attention, on the tape; equivalent to stepping ``adapt`` position
        by position."""
        if self.config.adaptation == "none":
            return h, h
        e = self._sampled_embedding(next_tokens)
        bias = causal_mask_bias(h.shape[-2], h.data.dtype)
        x1 = self.fc1(T.concat([h, e], axis=-1))
        h1 = self.sal1(x1, mask_bias=bias)
        if self.config.adaptation == "one_layer":
            return h1, h1
        x2 = self.fc2(T.concat([h1, e], axis=-1))
        return h1, self.sal2(x2, mask_bias=bias)

    # -- stage 2: auto-embedding ---------------------------------------------------

    def auto_embed(self, h1, h2):
        """Project the adapted states into K per-head rows and let them attend
        to each other. Input [..., d]; output [..., K, d], Tensors or arrays
        alike. The first floor(K/2) rows derive from h1, the rest from h2."""
        k_half = self.config.K // 2
        rows = [silu(self.mlps[k](h1 if k < k_half else h2)) for k in range(self.config.K)]
        taped = isinstance(h1, Tensor)
        out = T.stack(rows, axis=-2) if taped else np.stack(rows, axis=-2)
        if self.config.use_positional_encoding:
            out = out + (self.pe if taped else self.pe.data)
        if self.config.use_auto_embedding:
            for layer in self.encoder:
                out = layer(out)  # no mask: every head attends to every head
            out = self.encoder_norm(out)
        return out

    # -- stage 3: logits --------------------------------------------------------------

    def all_head_logits(self, attn_o):
        """Map row k through LM head k: [..., K, d] -> [..., K, V], Tensors or
        arrays alike."""
        taped = isinstance(attn_o, Tensor)
        outs = [
            self.lm_heads[k](T.select(attn_o, k, axis=-2) if taped else attn_o[..., k, :])
            for k in range(self.config.K)
        ]
        return T.stack(outs, axis=-2) if taped else np.stack(outs, axis=-2)

    def head_logits(self, attn_o) -> DraftOutput:
        d_logits = self.all_head_logits(attn_o)
        if not isinstance(d_logits, Tensor):
            d_logits = Tensor(d_logits)  # the one NaN/Inf check of a draft step
        return DraftOutput(
            d_logits=d_logits,
            topk=topk_lists(d_logits.data, self.config.top_k_per_head),
        )

    # -- composition ---------------------------------------------------------------------

    def draft(self, h_t: np.ndarray, next_token: int, state: DraftState) -> DraftOutput:
        h1, h2 = self.adapt(h_t, next_token, state)
        return self.head_logits(self.auto_embed(h1, h2))

    def sequence_logits(self, h: Tensor, next_tokens: np.ndarray) -> Tensor:
        """Teacher-forced per-position draft logits: [..., T, d] -> [..., T, K, V]."""
        h1, h2 = self.adapt_sequence(h, next_tokens)
        return self.all_head_logits(self.auto_embed(h1, h2))


def variant_config(name: str, base: DrafterConfig) -> DrafterConfig:
    """Resolve an ablation-variant name to a concrete config."""
    name = name.replace("_", "-")
    if name == "amphista":
        return replace(base)
    if name == "medusa":
        return replace(
            base,
            adaptation="none",
            use_sampled_token=False,
            use_auto_embedding=False,
            use_positional_encoding=False,
        )
    if name == "no-auto-embedding":
        return replace(base, use_auto_embedding=False)
    if name == "no-position-encoding":
        return replace(base, use_positional_encoding=False)
    if name == "no-staged-adaptation":
        return replace(base, adaptation="none", use_sampled_token=False)
    if name == "one-adaptation-layer":
        return replace(base, adaptation="one_layer")
    if name == "no-sampled-token":
        return replace(base, use_sampled_token=False)
    raise ValueError(f"unknown variant {name!r}")


VARIANT_NAMES = (
    "medusa",
    "no-auto-embedding",
    "no-position-encoding",
    "no-staged-adaptation",
    "one-adaptation-layer",
    "no-sampled-token",
    "amphista",
)
