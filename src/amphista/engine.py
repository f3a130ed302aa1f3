"""Decoding: one speculate-verify loop (draft -> tree forward -> verify ->
commit), with per-step event records so every throughput metric can be
recomputed from the raw log. Plain autoregressive generation is that loop
without a drafter session: every round is its 1-token step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .drafter import DraftOutput, Drafter, topk_lists
from .model import KVCache, ModelConfig, TargetModel, sample
from .speculation import TreeTopology, commit, expand_tree, sample_chain_tree, verify


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
    wall_time: float = 0.0

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

    def __init__(self, model: TargetModel, k: int = 4):
        self.model = model
        self.k = k

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
                rows.append(out.logits[0])
                tok = int(np.argmax(rows[-1]))
        finally:
            model_cache.truncate(base)
        d_logits = np.stack(rows)
        probs, order = topk_lists(d_logits)
        return DraftOutput(d_logits=d_logits, probs=probs, order=order)


def check_budget(config: ModelConfig, *parts: tuple[str, int]) -> None:
    """Reject a decode before any work unless every token it needs fits.

    ``parts`` name and count, in order, the prompt, the new tokens and any
    tokens decoded past them (tree-search's references run K further). A
    decode feeds its prompt and all but its last new token to the target, so
    their sum less one must fit in the context window.
    """
    for name, n in parts[:2]:  # the prompt and the new tokens
        if n < 1:
            raise EngineError(f"{name} must be >= 1, got {n}")
    if sum(n for _, n in parts) - 1 > config.max_seq_len:
        named = " + ".join(f"{name} {n}" for name, n in parts)
        raise EngineError(
            f"{named} exceeds the context window of {config.max_seq_len} tokens "
            "(a decode feeds the prompt and all but its last new token to the target)"
        )


def ar_generate(
    model: TargetModel,
    prompt: list[int],
    max_new_tokens: int,
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
) -> GenerationResult:
    """Token-at-a-time baseline: ``speculative_generate`` without a drafter
    session, so every round is a 1-token step; tokens_per_step is 1."""
    return speculative_generate(
        model, None, prompt, None, max_new_tokens, temperature=temperature, rng=rng
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
) -> GenerationResult:
    """Speculate-verify decoding; greedy rule emits exactly the AR sequence.
    The chain rule samples its tokens onto ``topology``, which must be a chain.

    A round is a 1-token target step when there is no ``session`` (AR
    decoding; ``topology`` and ``rule`` are then unused) or when its tree
    would not fit in the context window, so a request that passes the
    up-front budget check always finishes.
    """
    check_budget(model.config, ("prompt_len", len(prompt)), ("max_new_tokens", max_new_tokens))
    if session is not None and topology.depth_max != session.depth:
        raise EngineError(
            f"topology depth {topology.depth_max} != drafter depth {session.depth}"
        )
    start = time.perf_counter()
    cache = model.new_cache()
    events: list[StepEvent] = []
    out = model.forward(prompt, cache)
    tok = sample(out.logits[-1], temperature, rng)
    h = out.hidden[-1]
    new = [tok]
    step = 0
    while len(new) < max_new_tokens:
        step += 1
        base = cache.length
        if session is None or base + topology.node_count > model.config.max_seq_len:
            # The window only fills up, so no later round drafts again.
            out = model.forward([tok], cache)
            tok = sample(out.logits[-1], temperature, rng)
            new.append(tok)
            events.append(StepEvent(step=step, nodes=1, accepted_len=0, bonus=tok))
            continue
        draft = session.draft(h, tok, cache)
        if rule == "chain":
            tree = sample_chain_tree(draft, topology, tok, rng)
        else:
            tree = expand_tree(draft, topology, tok)
        tout = model.forward(
            tree.tokens, cache, mask=tree.mask, positions=base + tree.positions
        )
        result = verify(tree, tout.logits, rule, temperature, rng)
        bonus = commit(result, tree, cache)
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
        h = tout.hidden[result.accepted_nodes[-1]]
        tok = bonus
    return GenerationResult(
        prompt_len=len(prompt),
        tokens=new[:max_new_tokens],
        events=events,
        wall_time=time.perf_counter() - start,
    )
