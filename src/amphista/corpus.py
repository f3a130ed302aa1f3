"""Byte-level tokenization and reproducible synthetic corpora.

The default corpus is an order-2 Markov chain over a small symbol set
embedded in the 256-value byte space: predictable enough that drafting heads
climb well above chance within a few epochs, random enough to be non-trivial.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configfile import check_positive

BYTE_VOCAB = 256


class TokenizerError(ValueError):
    pass


def tokenize(text: str | bytes) -> list[int]:
    """Byte-level tokens; str input is UTF-8 encoded first."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    return list(data)


def detokenize(tokens) -> bytes:
    out = bytearray()
    for t in tokens:
        t = int(t)
        if not 0 <= t < BYTE_VOCAB:
            raise TokenizerError(f"token {t} outside byte range [0, {BYTE_VOCAB})")
        out.append(t)
    return bytes(out)


@dataclass
class CorpusSpec:
    kind: str = "markov"  # markov | text
    order: int = 2
    vocab: int = 32
    alpha: float = 0.05  # Dirichlet concentration; lower = more predictable
    context_mix: float = 0.25  # weight of the full-order modulation vs the order-1 core
    n_sequences: int = 512
    seq_len: int = 48
    byte_offset: int = 64  # embed symbols at this byte value
    text_path: str = ""

    def __post_init__(self):
        if self.kind not in ("markov", "text"):
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        check_positive(self, "order", "n_sequences", "seq_len")
        if self.vocab < 2:
            raise ValueError(f"vocab must be >= 2, got {self.vocab}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha:g}")
        if not 0 <= self.context_mix <= 1:
            raise ValueError(f"context_mix must be in [0, 1], got {self.context_mix:g}")
        if self.byte_offset < 0:
            raise ValueError(f"byte_offset must be >= 0, got {self.byte_offset}")
        if self.kind == "markov" and self.byte_offset + self.vocab > BYTE_VOCAB:
            raise ValueError("symbol embedding exceeds the byte space")


@dataclass
class Corpus:
    name: str
    sequences: list[list[int]]
    spec: CorpusSpec | None = None

    def __len__(self) -> int:
        return len(self.sequences)


class MarkovGenerator:
    """Seeded order-k transition table over `vocab` symbols.

    The table mixes a peaked order-1 backbone (conditioning on the latest
    symbol only) with a full-order modulation: genuinely order-k statistics,
    but with a core that a small model can learn from a few thousand tokens.
    Each context's row is kept as its cumulative sum, indexed by the context
    read as a base-`vocab` number.
    """

    def __init__(self, spec: CorpusSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
        v = spec.vocab
        shape = (v,) * spec.order + (v,)
        backbone = rng.gamma(spec.alpha, size=(v, v))
        backbone /= backbone.sum(axis=-1, keepdims=True)
        modulation = rng.gamma(spec.alpha, size=shape)
        modulation /= modulation.sum(axis=-1, keepdims=True)
        mix = spec.context_mix
        cdf = np.cumsum((1.0 - mix) * backbone + mix * modulation, axis=-1)
        self._cdf_rows = [array("d", row.tobytes()) for row in cdf.reshape(-1, v)]

    def sequence(self, rng: np.random.Generator, length: int) -> list[int]:
        """``length`` tokens: ``order`` uniform context symbols, then one
        inverse-CDF draw per symbol from the row of the last ``order``."""
        order, vocab, off = self.spec.order, self.spec.vocab, self.spec.byte_offset
        symbols = rng.integers(0, vocab, size=order).tolist()
        context = 0
        for s in symbols:
            context = context * vocab + s
        rows, span = self._cdf_rows, vocab ** (order - 1)
        for u in rng.random(max(length - order, 0)).tolist():
            row = rows[context]
            s = min(bisect_right(row, u * row[-1]), vocab - 1)
            symbols.append(s)
            context = context % span * vocab + s
        return [s + off for s in symbols[:length]]


def _sample(spec: CorpusSpec, seed: int, stream: int, n: int, length: int) -> list[list[int]]:
    """``n`` sequences of the (spec, seed) chain from draw stream ``stream``."""
    gen = MarkovGenerator(spec, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return [gen.sequence(rng, length) for _ in range(n)]


def make_corpus(spec: CorpusSpec, seed: int, name: str = "train") -> Corpus:
    """Materialize a corpus; (spec, seed) fully determine the result."""
    if spec.kind == "text":
        return load_text_corpus(spec.text_path, spec.seq_len, name=name)
    sequences = _sample(spec, seed, 1, spec.n_sequences, spec.seq_len)
    return Corpus(name=name, sequences=sequences, spec=spec)


def make_prompts(
    spec: CorpusSpec, seed: int, n_prompts: int, prompt_len: int, stream: int = 2
) -> list[list[int]]:
    """Fresh evaluation prompts from the same generator family as the corpus.

    ``stream`` picks an independent draw from the same chain: the corpus
    uses stream 1, evaluation prompts stream 2. A text corpus has one fixed
    set of prompts, its first chunks, so it offers stream 2 only.
    """
    if spec.kind == "text":
        if stream != 2:
            raise ValueError(
                f"a text corpus has no prompt stream {stream}: its prompts are its first "
                "chunks, which the evaluation prompts already are"
            )
        corpus = load_text_corpus(spec.text_path, prompt_len, name="prompts")
        if len(corpus.sequences) < n_prompts:
            raise ValueError("text corpus too small for the requested prompt count")
        return corpus.sequences[:n_prompts]
    return _sample(spec, seed, stream, n_prompts, prompt_len)


def load_text_corpus(path: str | Path, seq_len: int, name: str = "text") -> Corpus:
    data = Path(path).read_bytes()
    if len(data) < seq_len:
        raise ValueError(f"text file shorter than one sequence of {seq_len} bytes")
    sequences = [
        list(data[i : i + seq_len])
        for i in range(0, len(data) - seq_len + 1, seq_len)
    ]
    return Corpus(name=name, sequences=sequences, spec=None)
