import numpy as np
import pytest
from hypothesis import settings

from amphista.drafter import Drafter, DrafterConfig
from amphista.model import ModelConfig, TargetModel

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")


TINY_MODEL = ModelConfig(
    vocab_size=24, hidden_dim=16, n_layers=2, n_heads=2, ffn_dim=32, max_seq_len=128
)


def make_tiny_model(seed: int = 0, config: ModelConfig = TINY_MODEL) -> TargetModel:
    return TargetModel(config, np.random.default_rng(seed))


def make_tiny_drafter(model: TargetModel, seed: int = 1, **cfg_kwargs) -> Drafter:
    cfg_kwargs.setdefault("sal_heads", 2)
    config = DrafterConfig(**cfg_kwargs)
    return Drafter(config, model, np.random.default_rng(seed))


def reference_markov_sequence(spec, seed: int, rng: np.random.Generator, length: int) -> list[int]:
    """The per-token sampler ``MarkovGenerator.sequence`` must equal: the
    (spec, seed) transition table, one ``np.cumsum``, scalar ``rng.random()``
    and ``np.searchsorted`` per token."""
    rng_table = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    v = spec.vocab
    backbone = rng_table.gamma(spec.alpha, size=(v, v))
    backbone /= backbone.sum(axis=-1, keepdims=True)
    modulation = rng_table.gamma(spec.alpha, size=(v,) * spec.order + (v,))
    modulation /= modulation.sum(axis=-1, keepdims=True)
    transition = (1.0 - spec.context_mix) * backbone + spec.context_mix * modulation
    order = spec.order
    symbols = list(rng.integers(0, v, size=order))
    while len(symbols) < length:
        cdf = np.cumsum(transition[tuple(symbols[-order:])])
        u = rng.random() * cdf[-1]
        symbols.append(int(min(np.searchsorted(cdf, u, side="right"), v - 1)))
    return [s + spec.byte_offset for s in symbols[:length]]


def random_tree_paths(rng: np.random.Generator, n_nodes: int, max_depth: int) -> list[tuple[int, ...]]:
    """A random prefix-closed tree of ``n_nodes`` nodes, root included, whose
    paths are at most ``max_depth`` long; each node grows under a uniformly
    drawn earlier node, and siblings are numbered from 0."""
    paths: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    while len(paths) < n_nodes - 1:
        parent = frontier[int(rng.integers(len(frontier)))]
        if len(parent) >= max_depth:
            continue
        child = parent + (sum(1 for p in paths if p[:-1] == parent),)
        paths.append(child)
        frontier.append(child)
    return paths


def longest_matched_prefix(paths, ranks) -> int:
    """How many tokens a greedy round of the tree accepts on a rank vector."""
    paths = set(paths)
    d = 0
    while d < len(ranks) and tuple(ranks[: d + 1]) in paths:
        d += 1
    return d


def predicted_tokens_per_step(paths, rank_vectors) -> float:
    """1 + the mean longest matched prefix: the tokens/step calibration predicts."""
    return 1.0 + float(np.mean([longest_matched_prefix(paths, r) for r in rank_vectors]))


@pytest.fixture
def tiny_model():
    return make_tiny_model()


@pytest.fixture
def tiny_drafter(tiny_model):
    return make_tiny_drafter(tiny_model)
