"""Decoding loops: plain autoregressive generation and the speculate-verify
loop (draft -> tree forward -> verify -> commit), with per-step event records
so every throughput metric can be recomputed from the raw log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .drafter import DraftOutput, Drafter, topk_lists
from .model import KVCache, TargetModel, sample
from .speculation import TreeTopology, commit, expand_tree, sample_chain_tree, verify
from .tensor import Tensor


class EngineError(RuntimeError):
    pass


@dataclass
class StepEvent:
    """One target forward pass during decoding (prefill excluded)."""

    step: int
    nodes: int
    accepted_len: int
    bonus: int

    def line(self) -> str:
        return f"step={self.step} nodes={self.nodes} accepted_len={self.accepted_len} bonus={self.bonus}"


@dataclass
class GenerationResult:
    prompt_len: int
    tokens: list[int]  # new tokens, trimmed to the requested budget
    events: list[StepEvent] = field(default_factory=list)
    emitted_raw: int = 0  # pre-trim count (whole verification rounds)
    wall_time: float = 0.0
    lossless: bool | None = None

    @property
    def steps(self) -> int:
        return len(self.events)

    @property
    def tokens_per_step(self) -> float:
        if not self.events:
            return 0.0
        return sum(e.accepted_len + 1 for e in self.events) / len(self.events)


class DrafterSession:
    """Binds a drafter to per-prompt adaptation-layer caches."""

    def __init__(self, drafter: Drafter):
        self.drafter = drafter
        self.state = drafter.new_state()

    @property
    def depth(self) -> int:
        return self.drafter.config.K

    def draft(self, h_t: np.ndarray, last_token: int, model_cache: KVCache) -> DraftOutput:
        return self.drafter.draft(h_t, last_token, self.state)


class OracleDrafterSession:
    """Test hook: heads wired to the target's own greedy continuation.

    Drafting rolls the committed cache forward K steps and truncates it back,
    so head k's logits are exactly the target's logits for position t+1+k.
    With a chain topology and greedy verification every round accepts all K
    drafts, the theoretical upper bound.
    """

    def __init__(self, model: TargetModel, k: int = 4, top_k_per_head: tuple[int, ...] = ()):
        self.model = model
        self.k = k
        self.top_k = top_k_per_head or (10,) * k
        self.state = None

    @property
    def depth(self) -> int:
        return self.k

    def draft(self, h_t: np.ndarray, last_token: int, model_cache: KVCache) -> DraftOutput:
        base = model_cache.length
        rows = []
        tok = last_token
        try:
            for _ in range(self.k):
                out = self.model.forward([tok], model_cache)
                rows.append(out.logits.data[0])
                tok = int(np.argmax(rows[-1]))
        finally:
            model_cache.truncate(base)
        d_logits = np.stack(rows)
        return DraftOutput(d_logits=Tensor(d_logits), topk=topk_lists(d_logits, self.top_k))


def ar_generate(
    model: TargetModel,
    prompt: list[int],
    max_new_tokens: int,
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
) -> GenerationResult:
    """Token-at-a-time baseline; tokens_per_step is 1 by construction."""
    if not prompt:
        raise EngineError("prompt must be non-empty")
    start = time.perf_counter()
    cache = model.new_cache()
    out = model.forward(prompt, cache)
    tok = sample(out.logits.data[-1], temperature, rng)
    new = [tok]
    events = []
    step = 0
    while len(new) < max_new_tokens:
        step += 1
        out = model.forward([tok], cache)
        tok = sample(out.logits.data[-1], temperature, rng)
        new.append(tok)
        events.append(StepEvent(step=step, nodes=1, accepted_len=0, bonus=tok))
    return GenerationResult(
        prompt_len=len(prompt),
        tokens=new[:max_new_tokens],
        events=events,
        emitted_raw=len(new),
        wall_time=time.perf_counter() - start,
    )


def speculative_generate(
    model: TargetModel,
    session,
    prompt: list[int],
    topology: TreeTopology | None,
    max_new_tokens: int,
    rule: str = "greedy",
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
    epsilon: float = 0.09,
    delta: float = 0.3,
) -> GenerationResult:
    """Speculate-verify decoding; greedy rule emits exactly the AR sequence."""
    if not prompt:
        raise EngineError("prompt must be non-empty")
    if rule != "chain" and topology is None:
        raise EngineError("tree verification requires a topology")
    start = time.perf_counter()
    cache = model.new_cache()
    events: list[StepEvent] = []
    out = model.forward(prompt, cache)
    tok = sample(out.logits.data[-1], temperature, rng)
    h = out.hidden.data[-1]
    new = [tok]
    step = 0
    while len(new) < max_new_tokens:
        step += 1
        draft = session.draft(h, tok, cache)
        if rule == "chain":
            tree = sample_chain_tree(draft, session.depth, tok, rng)
        else:
            tree = expand_tree(draft, topology, tok)
        base = cache.length
        if base + tree.node_count > model.config.max_seq_len:
            raise EngineError(
                "context window exhausted; lower max_new_tokens or the tree size"
            )
        tout = model.forward(
            tree.tokens, cache, mask=tree.mask, positions=base + tree.positions
        )
        result = verify(
            tree, tout.logits, rule, temperature, rng, epsilon=epsilon, delta=delta
        )
        bonus = commit(result, tree, cache, getattr(session, "state", None))
        new.extend(int(tree.tokens[i]) for i in result.accepted_nodes[1:])
        new.append(bonus)
        events.append(
            StepEvent(
                step=step,
                nodes=tree.node_count,
                accepted_len=result.accepted_len,
                bonus=bonus,
            )
        )
        h = tout.hidden.data[result.accepted_nodes[-1]]
        tok = bonus
    return GenerationResult(
        prompt_len=len(prompt),
        tokens=new[:max_new_tokens],
        events=events,
        emitted_raw=len(new),
        wall_time=time.perf_counter() - start,
    )
