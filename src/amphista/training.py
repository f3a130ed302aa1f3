"""Drafter training against a frozen target: dual cross-entropy objective,
decoupled-weight-decay adaptive optimizer, warmup + cosine schedule.

The adaptation layers train with full-sequence causal attention (teacher
forcing: the sampled-token input is the ground-truth next token), which is
step-for-step equivalent to the cached inference computation. The target is
frozen, so what it contributes is constant for a run: ``teacher_forced``
runs it once per row, off the tape, into a ``TeacherView`` that training
batches and evaluation read. Only the drafter (and, in ``train_target``, the
target being pretrained) runs on the tape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
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
    target_probs,
    gt,
    weights: LossWeights,
) -> tuple[Tensor, Tensor, Tensor]:
    """Return (total, alignment, lm) for per-head draft logits [..., K, V].

    alignment: mean soft cross-entropy of each head against the target
    model's softmax distribution ``target_probs`` for that future position.
    lm: mean hard cross-entropy against the ground-truth tokens.
    """
    tp = np.asarray(target_probs)
    if tp.shape != d_logits.shape:
        raise T.DimensionError(
            f"target probabilities shape {tp.shape} != draft logits shape {d_logits.shape}"
        )
    alignment = T.cross_entropy(d_logits, tp)
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
        # in place, each product and sum in the order of the textbook
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;  p -= lr*m_hat / (sqrt(v_hat) + eps)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            g2 = g * g
            g2 *= 1.0 - self.beta2
            v *= self.beta2
            v += g2
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            step = m / c1
            step *= lr
            step /= den
            p.data -= step

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


# Token rows per frozen-target forward while a view is built, and per drafter
# call while one is evaluated: the transient memory of either is one chunk's
# forward, whatever the corpus size. 8 to 128 rows build and evaluate the
# configs/toy.cfg views in the same time.
VIEW_CHUNK = 16


def _windows(a: np.ndarray, start: int, t_valid: int, k: int) -> np.ndarray:
    """[N, t_valid, k, ...]: window i at position t holds a[:, start + t + i]."""
    return np.stack([a[:, start + i : start + i + t_valid] for i in range(k)], axis=2)


@dataclass
class TeacherView:
    """The frozen target's teacher-forced view of N token rows of length T
    for K heads, at the T' = T-K-1 positions that have a full K-token future.
    At position t the heads draft from hidden row t with token t+1, and head
    k's window is position t+2+k: the target's distribution there (its
    logits row t+1+k), the target's greedy token and the ground-truth token."""

    hidden: np.ndarray  # [N, T', d]
    next_tokens: np.ndarray  # [N, T']
    probs: np.ndarray  # [N, T-2, V]: softmax of logits rows 1..T-2, once per position
    greedy: np.ndarray  # [N, T', K]: argmax of the target logits in each window
    gt: np.ndarray  # [N, T', K]: the ground-truth token in each window

    def rows(self, index) -> "TeacherView":
        """The view of the rows ``index`` selects: a copy for an index
        array, a view of this one's arrays for a slice."""
        return TeacherView(*(getattr(self, f.name)[index] for f in fields(self)))

    def target_probs(self) -> np.ndarray:
        """Each window's target distribution, [N, T', K, V]."""
        return _windows(self.probs, 0, *self.gt.shape[1:])


def teacher_forced(model: TargetModel, tokens: np.ndarray, k: int) -> TeacherView:
    """The frozen target's ``TeacherView`` of [N, T] ``tokens`` for K heads.

    The target runs once per row, tape-free, ``VIEW_CHUNK`` rows at a time;
    each chunk keeps the hidden rows the heads draft from and its
    probabilities and greedy tokens, and drops the rest of the forward."""
    n, t = tokens.shape
    t_valid = t - k - 1
    if t_valid < 1:
        raise TrainingError(f"sequences of length {t} are shorter than K+2={k + 2} tokens")
    dtype = model.token_emb.data.dtype
    hidden = np.empty((n, t_valid, model.config.hidden_dim), dtype=dtype)
    probs = np.empty((n, t - 2, model.config.vocab_size), dtype=dtype)
    greedy = np.empty((n, t - 2), dtype=np.int64)
    for lo in range(0, n, VIEW_CHUNK):
        chunk = slice(lo, lo + VIEW_CHUNK)
        out = model.forward_batch(tokens[chunk])
        logits = out.logits.data[:, 1:-1]
        hidden[chunk] = out.hidden.data[:, :t_valid]
        probs[chunk] = T.stable_softmax(logits)
        greedy[chunk] = logits.argmax(axis=-1)
    return TeacherView(
        hidden=hidden,
        next_tokens=tokens[:, 1 : 1 + t_valid],
        probs=probs,
        greedy=_windows(greedy, 0, t_valid, k),
        gt=_windows(tokens, 2, t_valid, k),
    )


def batch_draft_logits(drafter: Drafter, view: TeacherView):
    """Teacher-forced forward over a batch's view: returns (d_logits
    [B, T', K, V] on the tape, target probabilities, gt). ``adapt`` is
    causal, so the T' rows give the bits they have in a longer sequence."""
    d_logits = drafter.sequence_logits(Tensor(view.hidden), view.next_tokens)
    return d_logits, view.target_probs(), view.gt


def split_corpus(sequences: list[list[int]], held_out_frac: float = 0.1):
    n_held = max(1, int(round(len(sequences) * held_out_frac)))
    if n_held >= len(sequences):
        raise TrainingError("corpus too small to hold out an evaluation split")
    return sequences[:-n_held], sequences[-n_held:]


def corpus_sequences(corpus) -> list[list[int]]:
    """The token sequences of a ``Corpus``, or of any iterable of sequences."""
    return corpus.sequences if hasattr(corpus, "sequences") else list(corpus)


def _minibatch_epochs(n: int, params: list[Parameter], config: TrainConfig, loss_terms):
    """Train ``params`` with AdamW on shuffled minibatches of ``n`` rows,
    under a warmup + cosine schedule over every step of the run.
    ``loss_terms(rows)`` returns loss Tensors for the row indices ``rows``,
    and the first of them is the one minimized. Yields, after each epoch,
    every term's mean per sequence over that epoch."""
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
            rows = order[lo : lo + config.batch_size]
            step += 1
            terms = loss_terms(rows)
            opt.zero_grad()
            terms[0].backward()
            opt.step(lr_at(step, schedule))
            sums = sums + np.array([t.item() for t in terms]) * len(rows)
            seen += len(rows)
            del terms  # this step's tape, before the next step builds its own
        yield (sums / seen).tolist()
    opt.zero_grad()


def train(
    corpus,
    model: TargetModel,
    drafter: Drafter,
    config: TrainConfig,
) -> TrainReport:
    """Train the drafter with the dual objective; the target stays frozen.

    The target's ``TeacherView`` of the training rows and of the held-out
    rows is built once, at the start; every minibatch gathers its rows from
    the first, and every epoch's evaluation reads the second."""
    if any(p.requires_grad for p in model.parameters()):
        raise TrainingError("target model must be frozen before drafter training")
    train_seqs, held_seqs = split_corpus(corpus_sequences(corpus))
    weights = LossWeights(config.lambda1, config.lambda2)
    k = drafter.config.K
    train_view = teacher_forced(model, _as_token_matrix(train_seqs), k)
    held_view = teacher_forced(model, _as_token_matrix(held_seqs), k)

    def loss_terms(rows):
        return compute_losses(*batch_draft_logits(drafter, train_view.rows(rows)), weights)

    epochs = _minibatch_epochs(len(train_seqs), drafter.parameters(), config, loss_terms)
    report = TrainReport()
    for epoch, (total, alignment, lm) in enumerate(epochs, 1):
        top1, top5 = measure_head_accuracy(held_view, model, drafter, top_ns=(1, 5))
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


def _eval_chunks(sequences, model: TargetModel, drafter: Drafter):
    """The ``TeacherView`` of ``sequences`` (or ``sequences`` itself, when it
    is one), ``VIEW_CHUNK`` rows at a time: yields each chunk's view and its
    draft logits [n, T', K, V] from one tape-free drafter call."""
    view = sequences
    if not isinstance(view, TeacherView):
        tokens = _as_token_matrix(corpus_sequences(sequences))
        view = teacher_forced(model, tokens, drafter.config.K)
    for lo in range(0, len(view.gt), VIEW_CHUNK):
        part = view.rows(slice(lo, lo + VIEW_CHUNK))
        logits = drafter.sequence_logits(part.hidden, part.next_tokens)
        yield part, T.check_finite(logits, "draft logits")


def measure_head_accuracy(
    sequences,
    model: TargetModel,
    drafter: Drafter,
    top_ns: tuple[int, ...] = (1, 5),
) -> tuple[list[float], ...]:
    """Per-head top-n accuracy: head k is correct@n at position t iff the true
    token at t+1+k ranks in its top n. Returns one list per requested n.

    ``sequences`` may be their ``TeacherView``. A token's rank is its place
    in a stable sort by descending logit: the tokens of a greater logit, and
    those of an equal logit and a lower id, come before it."""
    hits, total = 0, 0
    for part, d_logits in _eval_chunks(sequences, model, drafter):
        truth = part.gt[..., None]
        d_true = np.take_along_axis(d_logits, truth, axis=-1)
        ids = np.arange(d_logits.shape[-1])
        rank = ((d_logits > d_true) | ((d_logits == d_true) & (ids < truth))).sum(axis=-1)
        hits = hits + np.stack([(rank < n).sum(axis=(0, 1)) for n in top_ns])
        total += rank.shape[0] * rank.shape[1]
    return tuple((row / total).tolist() for row in hits)


def measure_greedy_top1(
    sequences: list[list[int]], model: TargetModel, drafter: Drafter
) -> list[float]:
    """Per-head agreement with the target: head k is right at position t iff
    its top-1 is the target's teacher-forced argmax for position t+1+k, the
    token greedy verification accepts there."""
    hits, total = 0, 0
    for part, d_logits in _eval_chunks(sequences, model, drafter):
        hits = hits + (d_logits.argmax(axis=-1) == part.greedy).sum(axis=(0, 1))
        total += part.greedy.shape[0] * part.greedy.shape[1]
    return (hits / total).tolist()


@dataclass
class TargetTrainReport:
    losses: list[float] = field(default_factory=list)


def train_target(corpus, model: TargetModel, config: TrainConfig) -> TargetTrainReport:
    """Plain next-token pretraining for the toy target model."""
    tokens_all = _as_token_matrix(corpus_sequences(corpus))

    def loss_terms(rows):
        batch = tokens_all[rows]
        logits = T.narrow(model.forward_batch(batch).logits, 1, 0, batch.shape[1] - 1)
        return (T.cross_entropy(logits, batch[:, 1:]),)

    epochs = _minibatch_epochs(len(tokens_all), model.parameters(), config, loss_terms)
    return TargetTrainReport([loss for (loss,) in epochs])
