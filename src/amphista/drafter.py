"""The draft module: staged adaptation layers, per-head projections, an
auto-embedding block with learnable positional rows and bi-directional
self-attention, and one LM head per drafting position.

Every ablation variant is reachable through ``VARIANTS``; the all-off
``medusa`` row reproduces the independent-head (Medusa-style) computation
graph.

One ``adapt`` serves every caller. ``draft`` (one decode step over the
rolling caches) runs it tape-free on plain arrays, and checks its logits once.
``sequence_logits`` runs it over whole sequences: on the autodiff tape for
training, and tape-free on arrays for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .model import TargetModel
from .nn import LayerKV, Linear, Module, RMSNorm, TransformerLayer, silu
from .tensor import DimensionError, Parameter, Tensor, check_finite

ADAPTATION_MODES = ("staged", "one_layer", "none")
# Tokens each head lists, best first: the widest choice index a tree can use.
TOP_K = 10
# The four flags a variant name sets (``VARIANTS``); no config file key sets them.
_BY_VARIANT = {"file_key": False}


@dataclass
class DrafterConfig:
    K: int = 4
    adaptation: str = field(default="staged", metadata=_BY_VARIANT)
    use_sampled_token: bool = field(default=True, metadata=_BY_VARIANT)
    use_auto_embedding: bool = field(default=True, metadata=_BY_VARIANT)
    use_positional_encoding: bool = field(default=True, metadata=_BY_VARIANT)
    encoder_layers: int = 1
    lm_head_rank: int | str = "full"
    sal_heads: int = 4
    sal_ffn_dim: int = 0  # 0 -> 4 * hidden_dim

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


@dataclass
class DraftOutput:
    d_logits: np.ndarray  # [K, V], finite
    probs: np.ndarray  # [K, V], softmax of d_logits
    order: np.ndarray  # [K, min(TOP_K, V)] int: each head's tokens by prob desc


def topk_lists(d_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-head probabilities [K, V] and top-``TOP_K`` token order
    [K, min(TOP_K, V)]: one stable argsort, so ties go to the lower token."""
    probs = T.stable_softmax(d_logits)
    return probs, np.argsort(-probs, axis=-1, kind="stable")[:, :TOP_K]


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

    # -- stage 1: adaptation ----------------------------------------------------

    def adapt(self, h, next_tokens, state: DraftState | None = None):
        """Transform hidden states [..., T, d], each with the token sampled
        after it ([..., T]), through the adaptation layers, attending causally.
        A Tensor runs on the tape (training); an array runs tape-free, and
        with a ``state`` (unbatched [T, d] only) attends to and extends its
        caches, so T rows in one call match T one-row calls."""
        ids = np.asarray(next_tokens)
        T.check_ids(ids, self._vocab, "sampled token")  # even where unused
        if self.config.adaptation == "none":
            return h, h
        taped = isinstance(h, Tensor)
        if self.config.use_sampled_token:
            e = T.embedding(self._token_emb, ids) if taped else self._token_emb.data[ids]
        else:
            e = np.zeros(ids.shape + (self._hidden_dim,), dtype=self._token_emb.data.dtype)
            e = Tensor(e) if taped else e
        concat = T.concat if taped else np.concatenate
        kv1, kv2 = (None, None) if state is None else (state.kv1, state.kv2)
        h1 = self.sal1(self.fc1(concat([h, e], axis=-1)), cache=kv1, causal=True)
        if self.config.adaptation == "one_layer":
            return h1, h1
        return h1, self.sal2(self.fc2(concat([h1, e], axis=-1)), cache=kv2, causal=True)

    # -- stage 2: auto-embedding ---------------------------------------------------

    def auto_embed(self, h1, h2):
        """Project the adapted states into K per-head rows and let them attend
        to each other. Input [..., d]; output [..., K, d], Tensors or arrays
        alike. The first floor(K/2) rows derive from h1, the rest from h2."""
        k_half = self.config.K // 2
        rows = [self.mlps[k](h1 if k < k_half else h2) for k in range(self.config.K)]
        taped = isinstance(h1, Tensor)
        out = silu(T.stack(rows, axis=-2) if taped else np.stack(rows, axis=-2))
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

    def head_logits(self, attn_o: np.ndarray) -> DraftOutput:
        d_logits = check_finite(self.all_head_logits(attn_o), "draft logits")
        probs, order = topk_lists(d_logits)
        return DraftOutput(d_logits=d_logits, probs=probs, order=order)

    # -- composition ---------------------------------------------------------------------

    def draft(self, h_t: np.ndarray, next_token: int, state: DraftState) -> DraftOutput:
        """One decode step: adapt one row [d], extending ``state`` by one entry."""
        h1, h2 = self.adapt(h_t[None], [next_token], state)
        return self.head_logits(self.auto_embed(h1[0], h2[0]))

    def sequence_logits(self, h, next_tokens):
        """Teacher-forced per-position draft logits: [..., T, d] -> [..., T, K, V],
        on the tape for a Tensor, tape-free for an array."""
        h1, h2 = self.adapt(h, next_tokens)
        return self.all_head_logits(self.auto_embed(h1, h2))


# Each ablation variant's four flags, in ablation order: the one place they are
# set, so a base config's flag values never reach a variant.
_VARIANT_FLAGS = ("adaptation", "use_sampled_token", "use_auto_embedding", "use_positional_encoding")
VARIANTS = {
    name: dict(zip(_VARIANT_FLAGS, flags))
    for name, flags in (
        ("medusa", ("none", False, False, False)),
        ("no-auto-embedding", ("staged", True, False, True)),
        ("no-position-encoding", ("staged", True, True, False)),
        ("no-staged-adaptation", ("none", False, True, True)),
        ("one-adaptation-layer", ("one_layer", True, True, True)),
        ("no-sampled-token", ("staged", False, True, True)),
        ("amphista", ("staged", True, True, True)),
    )
}


def variant_config(name: str, base: DrafterConfig) -> DrafterConfig:
    """``base`` with all four variant flags set as variant ``name`` sets them."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}")
    return replace(base, **VARIANTS[name])
