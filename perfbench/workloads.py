"""Workloads, the closed loop that sends their requests, and the output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one returns. Inputs come from the workload seed only; the
program sees the generated prompts (or corpus slice) and nothing else.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from amphista import checkpoint
from amphista import tensor as T
from amphista.bench import RunConfig, build_drafter, build_model, run_prompt
from amphista.corpus import MarkovGenerator, make_corpus
from amphista.engine import ar_generate
from amphista.training import split_corpus, train

import fixture

# A teacher-forced top-2 logit margin above this proves that cached (AR)
# decoding picks the same token: the cached and cache-free f64 forwards
# differ by about 1e-14. Below it, the AR reference is decoded in full.
TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class DecodeWorkload:
    name: str
    mode: str
    prompt_len: int
    pool: int  # distinct prompts per run; a run that outlasts them cycles
    max_new_tokens: int = 64


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    n_sequences: int  # the first n sequences of the fixture's training corpus
    epochs: int
    pool: int = 1024  # drafter seeds per run


# Why each workload exists, and which layers it stresses: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        DecodeWorkload("spec-short", mode=RunConfig().mode, prompt_len=12, pool=512),
        DecodeWorkload("ar-short", mode="ar", prompt_len=12, pool=512),
        DecodeWorkload("spec-long", mode=RunConfig().mode, prompt_len=384, pool=96),
        TrainWorkload("train-drafter", n_sequences=18, epochs=2),
    )
}


@dataclass
class Request:
    index: int  # input index within the run's pool
    seconds: float
    result: object = None
    error: str = ""
    ok: bool = False


@dataclass
class Phase:
    """The requests of one measured loop and the tokens they delivered."""

    requests: list[Request] = field(default_factory=list)
    tokens: int = 0

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.requests)

    @property
    def busy_seconds(self) -> float:
        return sum(r.seconds for r in self.requests)

    def tokens_per_s(self) -> float:
        return self.tokens / self.busy_seconds

    def latency_ms(self, q: float) -> float:
        return float(np.percentile([r.seconds for r in self.requests], q)) * 1e3


def closed_loop(call, n_inputs: int, seconds: float, phase: Phase | None = None) -> Phase:
    """Send request after request for ``seconds``; each is timed from outside.

    Passing ``phase`` appends to it and goes on with the next input. Any
    exception the program raises fails that request, not the run.
    """
    phase = Phase() if phase is None else phase
    deadline = time.perf_counter() + seconds
    start = i = len(phase.requests)
    while i == start or time.perf_counter() < deadline:
        index = i % n_inputs
        t0 = time.perf_counter()
        try:
            result, error = call(index), ""
        except Exception as exc:  # the program's failures are counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
            if not any(r.error for r in phase.requests):
                traceback.print_exc(file=sys.stderr)
        phase.requests.append(Request(index, time.perf_counter() - t0, result, error))
        i += 1
    return phase


# -- decode workloads ----------------------------------------------------------


class DecodeSystem:
    """The loaded fixture with one run's prompts."""

    def __init__(self, workload: DecodeWorkload, cfg: fixture.Configs, ckpt, seed: int):
        self.model, self.drafter = fixture.load_system(cfg, ckpt)
        if workload.mode == "ar":
            self.drafter = None
        self.run = RunConfig(mode=workload.mode, max_new_tokens=workload.max_new_tokens)
        gen = MarkovGenerator(cfg.corpus, fixture.FIXTURE_SEED)
        rng = np.random.default_rng(seed)
        self.prompts = [gen.sequence(rng, workload.prompt_len) for _ in range(workload.pool)]
        self.request(0)  # untimed warm-up

    def request(self, index: int):
        return run_prompt(self.model, self.drafter, self.run, self.prompts[index], index)

    @property
    def n_inputs(self) -> int:
        return len(self.prompts)

    def check(self, phase: Phase, references: dict[int, list[int]]) -> None:
        """Mark each request ok iff its tokens equal the AR greedy reference."""
        for r in phase.requests:
            if r.error:
                continue
            if r.index not in references:
                references[r.index] = greedy_reference(
                    self.model, self.prompts[r.index], r.result.tokens, self.run.max_new_tokens
                )
            r.ok = r.result.tokens == references[r.index]
            if not r.ok:
                r.error = f"output differs from AR decoding on prompt {r.index}"
        phase.tokens = sum(len(r.result.tokens) for r in phase.requests if r.ok)


def greedy_reference(model, prompt: list[int], output: list[int], max_new_tokens: int) -> list[int]:
    """The tokens AR greedy decoding emits for ``prompt``.

    One cache-free forward over prompt + output scores every position. When
    each output token is the argmax by more than ``TIE_MARGIN``, AR decoding
    provably emits ``output``; otherwise the AR reference is decoded in full.
    """
    if len(output) == max_new_tokens:
        with T.no_grad():
            logits = model.forward_batch(np.asarray([prompt + output[:-1]])).logits.data[0]
        rows = logits[len(prompt) - 1 :]
        top2 = np.partition(rows, -2, axis=-1)[:, -2:]
        chosen = rows[np.arange(len(output)), output]
        if np.all(chosen == top2[:, 1]) and np.all(top2[:, 1] - top2[:, 0] > TIE_MARGIN):
            return list(output)
    return ar_generate(model, prompt, max_new_tokens, 0.0, None).tokens


# -- training workload ---------------------------------------------------------------


class TrainSystem:
    """The fixture target in f32 (exact: it was trained in f32) and a fixed
    corpus slice; each request trains a freshly seeded drafter on it."""

    def __init__(self, workload: TrainWorkload, cfg: fixture.Configs, ckpt, seed: int):
        self.workload = workload
        self.cfg = cfg
        state = checkpoint.load_checkpoint(ckpt)
        with T.dtype_context(np.float32):
            self.model = build_model(cfg.model, fixture.FIXTURE_SEED)
            self.model.load_state_dict(state, prefix="target.")
        self.model.freeze()
        spec = replace(cfg.corpus, n_sequences=workload.n_sequences)
        self.sequences = make_corpus(spec, fixture.FIXTURE_SEED).sequences
        n_train = len(split_corpus(self.sequences)[0])
        t_valid = cfg.corpus.seq_len - cfg.drafter.K - 1
        self.tokens_per_request = workload.epochs * n_train * t_valid
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=workload.pool)]
        self.request(0)  # untimed warm-up

    def request(self, index: int):
        with T.dtype_context(np.float32):
            drafter = build_drafter(self.cfg.trained_drafter, self.model, self.seeds[index])
            return train(
                self.sequences,
                self.model,
                drafter,
                replace(self.cfg.train, epochs=self.workload.epochs, seed=self.seeds[index]),
            )

    @property
    def n_inputs(self) -> int:
        return len(self.seeds)

    def check(self, phase: Phase, references=None) -> None:
        """A request fails if a loss is non-finite or training did not reduce it."""
        for r in phase.requests:
            if r.error:
                continue
            losses = r.result.total_losses
            r.ok = all(math.isfinite(x) for x in losses) and losses[-1] < losses[0]
            if not r.ok:
                r.error = f"training did not reduce the loss: {losses}"
        phase.tokens = self.tokens_per_request * sum(r.ok for r in phase.requests)


def make_system(name: str, cfg: fixture.Configs, ckpt, seed: int):
    workload = WORKLOADS[name]
    cls = DecodeSystem if isinstance(workload, DecodeWorkload) else TrainSystem
    return cls(workload, cfg, ckpt, seed)
