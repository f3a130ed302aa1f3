"""Drafter training against a frozen target: dual cross-entropy objective,
decoupled-weight-decay adaptive optimizer, warmup + cosine schedule.

The adaptation layers train with full-sequence causal attention (teacher
forcing: the sampled-token input is the ground-truth next token), which is
step-for-step equivalent to the cached inference computation.
``teacher_forced`` runs the frozen target once per batch, off the tape, for
both training and evaluation; only the drafter (and, in ``train_target``, the
target being pretrained) runs on the tape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .configfile import check_positive
from .drafter import Drafter
from .model import TargetModel
from .tensor import Parameter, Tensor


class TrainingError(RuntimeError):
    """A training precondition was violated (unfrozen target, missing grads, ...)."""


@dataclass
class LossWeights:
    lambda1: float = 1.0  # distribution-alignment term
    lambda2: float = 1.0  # ground-truth language-modeling term

    def __post_init__(self):
        weights = (self.lambda1, self.lambda2)
        if not all(0 <= w < math.inf for w in weights) or sum(weights) <= 0:
            raise ValueError("loss weights must be finite, non-negative and not both zero")


def compute_losses(
    d_logits: Tensor,
    target_logits,
    gt,
    weights: LossWeights,
) -> tuple[Tensor, Tensor, Tensor]:
    """Return (total, alignment, lm) for per-head draft logits [..., K, V].

    alignment: mean soft cross-entropy of each head against the target
    model's softmax distribution for that future position. lm: mean hard
    cross-entropy against the ground-truth tokens.
    """
    tl = target_logits.data if isinstance(target_logits, Tensor) else np.asarray(target_logits)
    if tl.shape != d_logits.shape:
        raise T.DimensionError(
            f"target logits shape {tl.shape} != draft logits shape {d_logits.shape}"
        )
    alignment = T.cross_entropy(d_logits, T.stable_softmax(tl))
    lm = T.cross_entropy(d_logits, np.asarray(gt, dtype=np.int64))
    dt = d_logits.data.dtype
    total = T.add(
        T.mul(alignment, T.Tensor(np.asarray(weights.lambda1, dtype=dt))),
        T.mul(lm, T.Tensor(np.asarray(weights.lambda2, dtype=dt))),
    )
    return total, alignment, lm


class AdamW:
    """Bias-corrected adaptive moments with decoupled weight decay.

    Gradients are left untouched by ``step``; callers zero them between steps.
    """

    def __init__(
        self,
        params: list[Parameter],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        for p in self.params:
            if p.grad is None:
                raise TrainingError(f"missing gradient for parameter {p.name or '<unnamed>'}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class Schedule:
    base_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")


def lr_at(step: int, schedule: Schedule) -> float:
    """Linear ramp 0 -> base_lr over warmup, then cosine decay to 0."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        if schedule.warmup_steps == 0:
            return schedule.base_lr
        return schedule.base_lr * step / schedule.warmup_steps
    progress = (step - schedule.warmup_steps) / (schedule.total_steps - schedule.warmup_steps)
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# Share of a run's optimizer steps over which the learning rate ramps up.
WARMUP_FRAC = 0.05


@dataclass
class TrainConfig:
    epochs: int = 4
    lr: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    lambda1: float = 1.0
    lambda2: float = 1.0
    target_epochs: int = 8  # the target's pretraining, before the drafter's epochs

    def __post_init__(self):
        check_positive(self, "epochs", "batch_size", "target_epochs")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr:g}")
        LossWeights(self.lambda1, self.lambda2)  # checked here, before any training


@dataclass
class EpochStats:
    epoch: int
    alignment_loss: float
    lm_loss: float
    total_loss: float
    head_top1: list[float]
    head_top5: list[float]


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]

    @property
    def total_losses(self) -> list[float]:
        return [e.total_loss for e in self.epochs]

    @property
    def head_accuracy_monotone(self) -> bool:
        """Soft expectation: top-1 accuracy does not increase with head index."""
        acc = self.final.head_top1
        return all(a >= b - 1e-12 for a, b in zip(acc, acc[1:]))

    def to_csv(self, path: str | Path) -> None:
        k = len(self.epochs[0].head_top1) if self.epochs else 0
        header = ["epoch", "alignment_loss", "lm_loss", "total"]
        for i in range(1, k + 1):
            header += [f"head_{i}_top1", f"head_{i}_top5"]
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for e in self.epochs:
                row = [e.epoch, f"{e.alignment_loss:.8f}", f"{e.lm_loss:.8f}", f"{e.total_loss:.8f}"]
                for t1, t5 in zip(e.head_top1, e.head_top5):
                    row += [f"{t1:.6f}", f"{t5:.6f}"]
                w.writerow(row)


def _as_token_matrix(sequences: list[list[int]]) -> np.ndarray:
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise TrainingError("training expects equal-length sequences (chunk text corpora first)")
    return np.asarray(sequences, dtype=np.int64)


def teacher_forced(model: TargetModel, tokens: np.ndarray, k: int):
    """The frozen target's teacher-forced view of [B, T] ``tokens`` for K
    heads: (hidden [B, T-1, d], target logits [B, T', K, V], tokens [B, T', K]).

    Hidden row t, with token t+1, is what the heads draft from there. The
    T' = T-K-1 positions are those with a full K-token future; at each, head
    k's window holds the target's logits for, and the token at, position
    t+2+k."""
    t_valid = tokens.shape[1] - k - 1
    if t_valid < 1:
        raise TrainingError(
            f"sequences of length {tokens.shape[1]} are shorter than K+2={k + 2} tokens"
        )
    out = model.forward_batch(tokens)

    def windows(a, start):
        return np.stack([a[:, start + i : start + i + t_valid] for i in range(k)], axis=2)

    return out.hidden.data[:, :-1], windows(out.logits.data, 1), windows(tokens, 2)


def batch_draft_logits(model: TargetModel, drafter: Drafter, tokens: np.ndarray):
    """Teacher-forced forward: returns (d_logits [B,T',K,V], target_logits, gt),
    the draft logits on the tape."""
    hidden, target_logits, gt = teacher_forced(model, tokens, drafter.config.K)
    d_logits = drafter.sequence_logits(Tensor(hidden), tokens[:, 1:])
    return T.narrow(d_logits, 1, 0, gt.shape[1]), target_logits, gt


def split_corpus(sequences: list[list[int]], held_out_frac: float = 0.1):
    n_held = max(1, int(round(len(sequences) * held_out_frac)))
    if n_held >= len(sequences):
        raise TrainingError("corpus too small to hold out an evaluation split")
    return sequences[:-n_held], sequences[-n_held:]


def corpus_sequences(corpus) -> list[list[int]]:
    """The token sequences of a ``Corpus``, or of any iterable of sequences."""
    return corpus.sequences if hasattr(corpus, "sequences") else list(corpus)


def _minibatch_epochs(
    tokens_all: np.ndarray, params: list[Parameter], config: TrainConfig, loss_terms
):
    """Train ``params`` with AdamW on shuffled minibatches of the rows of
    ``tokens_all``, under a warmup + cosine schedule over every step of the
    run. ``loss_terms(batch)`` returns loss Tensors, and the first of them is
    the one minimized. Yields, after each epoch, every term's mean per
    sequence over that epoch."""
    n = tokens_all.shape[0]
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * steps_per_epoch
    schedule = Schedule(
        base_lr=config.lr,
        warmup_steps=min(int(WARMUP_FRAC * total_steps), total_steps - 1),
        total_steps=total_steps,
    )
    opt = AdamW(params)
    rng = np.random.default_rng(config.seed)
    step = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        sums, seen = 0.0, 0
        for lo in range(0, n, config.batch_size):
            batch = tokens_all[order[lo : lo + config.batch_size]]
            step += 1
            terms = loss_terms(batch)
            opt.zero_grad()
            terms[0].backward()
            opt.step(lr_at(step, schedule))
            sums = sums + np.array([t.item() for t in terms]) * len(batch)
            seen += len(batch)
        yield (sums / seen).tolist()
    opt.zero_grad()


def train(
    corpus,
    model: TargetModel,
    drafter: Drafter,
    config: TrainConfig,
) -> TrainReport:
    """Train the drafter with the dual objective; the target stays frozen."""
    if any(p.requires_grad for p in model.parameters()):
        raise TrainingError("target model must be frozen before drafter training")
    train_seqs, held_seqs = split_corpus(corpus_sequences(corpus))
    weights = LossWeights(config.lambda1, config.lambda2)

    def loss_terms(batch):
        return compute_losses(*batch_draft_logits(model, drafter, batch), weights)

    tokens_all = _as_token_matrix(train_seqs)
    epochs = _minibatch_epochs(tokens_all, drafter.parameters(), config, loss_terms)
    report = TrainReport()
    for epoch, (total, alignment, lm) in enumerate(epochs, 1):
        top1, top5 = measure_head_accuracy(held_seqs, model, drafter, top_ns=(1, 5))
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                alignment_loss=alignment,
                lm_loss=lm,
                total_loss=total,
                head_top1=top1,
                head_top5=top5,
            )
        )
    return report


def _eval_draft_logits(model: TargetModel, drafter: Drafter, seq) -> tuple[np.ndarray, ...]:
    """One sequence, tape-free: its draft logits [T', K, V], then its
    ``teacher_forced`` target logits [T', K, V] and tokens [T', K]."""
    tokens = np.asarray(seq, dtype=np.int64)[None]
    hidden, target_logits, gt = teacher_forced(model, tokens, drafter.config.K)
    # wrapped once for its NaN/Inf check
    d_logits = Tensor(drafter.sequence_logits(hidden[0], tokens[0, 1:])).data
    return d_logits[: gt.shape[1]], target_logits[0], gt[0]


def measure_head_accuracy(
    sequences,
    model: TargetModel,
    drafter: Drafter,
    top_ns: tuple[int, ...] = (1, 5),
) -> tuple[list[float], ...]:
    """Per-head top-n accuracy: head k is correct@n at position t iff the true
    token at t+1+k ranks in its top n. Returns one list per requested n."""
    hits, total = 0, 0
    for seq in corpus_sequences(sequences):
        d_logits, _, corpus = _eval_draft_logits(model, drafter, seq)
        order = np.argsort(-d_logits, axis=-1, kind="stable")
        hits = hits + np.stack(
            [(order[..., :n] == corpus[..., None]).any(axis=-1).sum(axis=0) for n in top_ns]
        )
        total += len(corpus)
    return tuple((row / total).tolist() for row in hits)


def measure_greedy_top1(
    sequences: list[list[int]], model: TargetModel, drafter: Drafter
) -> list[float]:
    """Per-head agreement with the target: head k is right at position t iff
    its top-1 is the target's teacher-forced argmax for position t+1+k, the
    token greedy verification accepts there."""
    hits, total = 0, 0
    for seq in sequences:
        d_logits, target_logits, _ = _eval_draft_logits(model, drafter, seq)
        target = target_logits.argmax(axis=-1)
        hits = hits + (d_logits.argmax(axis=-1) == target).sum(axis=0)
        total += len(target)
    return (hits / total).tolist()


@dataclass
class TargetTrainReport:
    losses: list[float] = field(default_factory=list)


def train_target(corpus, model: TargetModel, config: TrainConfig) -> TargetTrainReport:
    """Plain next-token pretraining for the toy target model."""

    def loss_terms(batch):
        logits = T.narrow(model.forward_batch(batch).logits, 1, 0, batch.shape[1] - 1)
        return (T.cross_entropy(logits, batch[:, 1:]),)

    tokens_all = _as_token_matrix(corpus_sequences(corpus))
    epochs = _minibatch_epochs(tokens_all, model.parameters(), config, loss_terms)
    return TargetTrainReport([loss for (loss,) in epochs])
