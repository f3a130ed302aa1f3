"""Objective, optimizer, schedule, and the drafter training loop."""

import math
from dataclasses import fields

import numpy as np
import pytest

from amphista import tensor as T
from amphista import training
from amphista.corpus import Corpus
from amphista.drafter import DrafterConfig
from amphista.model import ModelConfig, TargetModel
from amphista.tensor import Parameter, Tensor
from amphista.training import (
    AdamW,
    LossWeights,
    Schedule,
    TrainConfig,
    TrainingError,
    batch_draft_logits,
    compute_losses,
    lr_at,
    measure_head_accuracy,
    teacher_forced,
    train,
    train_target,
)

from conftest import make_tiny_drafter, make_tiny_model


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestComputeLosses:
    def test_self_alignment_equals_mean_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 8))
        total, alignment, lm = compute_losses(
            Tensor(logits), _softmax(logits), np.zeros(4, dtype=np.int64), LossWeights(1.0, 0.0)
        )
        p = _softmax(logits)
        entropy = (-(p * np.log(p)).sum(axis=-1)).mean()
        assert alignment.item() == pytest.approx(entropy, abs=1e-12)
        assert total.item() == pytest.approx(entropy, abs=1e-12)

    def test_uniform_lm_loss_is_log_vocab(self):
        k, v = 4, 256
        d_logits = Tensor(np.zeros((k, v)))
        total, _, lm = compute_losses(
            d_logits, _softmax(np.zeros((k, v))), np.arange(k), LossWeights(0.0, 1.0)
        )
        assert lm.item() == pytest.approx(math.log(256), abs=1e-12)
        assert total.item() == pytest.approx(math.log(256), abs=1e-12)

    def test_random_case_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        k, v = 2, 4
        dl = rng.standard_normal((k, v))
        tl = rng.standard_normal((k, v))
        gt = rng.integers(0, v, size=k)
        w = LossWeights(0.7, 1.3)
        total, alignment, lm = compute_losses(Tensor(dl), _softmax(tl), gt, w)

        # independent scalar-path recomputation
        align_o, lm_o = 0.0, 0.0
        for i in range(k):
            logp = dl[i] - math.log(sum(math.exp(x) for x in dl[i] - dl[i].max())) - dl[i].max()
            p_t = _softmax(tl[i])
            align_o += -sum(p_t[j] * logp[j] for j in range(v))
            lm_o += -logp[gt[i]]
        align_o /= k
        lm_o /= k
        assert alignment.item() == pytest.approx(align_o, abs=1e-6)
        assert lm.item() == pytest.approx(lm_o, abs=1e-6)
        assert total.item() == pytest.approx(0.7 * align_o + 1.3 * lm_o, abs=1e-6)

    def test_alignment_lower_bounded_by_target_entropy(self):
        rng = np.random.default_rng(2)
        tl = rng.standard_normal((3, 6))
        p = _softmax(tl)
        entropy = (-(p * np.log(p)).sum(axis=-1)).mean()
        for _ in range(10):
            dl = rng.standard_normal((3, 6))
            _, alignment, _ = compute_losses(
                Tensor(dl), p, np.zeros(3, dtype=np.int64), LossWeights()
            )
            assert alignment.item() >= entropy - 1e-9

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            LossWeights(-1.0, 2.0)


class TestAdamW:
    def test_first_step_matches_hand_formula(self):
        p = Parameter(np.array([1.0]), name="w")
        p.grad = np.array([1.0])
        opt = AdamW([p], weight_decay=0.0)
        opt.step(lr=0.1)
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.data[0] == pytest.approx(want, rel=1e-12)

    def test_zero_gradient_no_decay_is_noop(self):
        p = Parameter(np.array([2.5]), name="w")
        p.grad = np.zeros(1)
        AdamW([p]).step(lr=0.1)
        assert p.data[0] == 2.5

    def test_decoupled_decay_shrinks_exactly(self):
        p = Parameter(np.array([2.0]), name="w")
        p.grad = np.zeros(1)
        AdamW([p], weight_decay=0.01).step(lr=0.1)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, rel=1e-15)

    def test_missing_grad_is_an_error(self):
        p = Parameter(np.ones(2), name="w")
        opt = AdamW([p])
        with pytest.raises(TrainingError, match="missing gradient"):
            opt.step(lr=0.1)

    def test_grads_left_untouched(self):
        p = Parameter(np.ones(2), name="w")
        p.grad = np.full(2, 3.0)
        AdamW([p]).step(lr=0.1)
        assert np.array_equal(p.grad, np.full(2, 3.0))


class TestSchedule:
    def test_endpoints_and_warmup(self):
        sched = Schedule(base_lr=1e-3, warmup_steps=10, total_steps=100)
        assert lr_at(0, sched) == 0.0
        assert lr_at(10, sched) == pytest.approx(1e-3)
        assert lr_at(100, sched) == pytest.approx(0.0, abs=1e-20)
        assert 0 < lr_at(55, sched) < 1e-3

    def test_out_of_range(self):
        sched = Schedule(base_lr=1e-3, warmup_steps=10, total_steps=100)
        with pytest.raises(ValueError):
            lr_at(-1, sched)
        with pytest.raises(ValueError):
            lr_at(101, sched)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(base_lr=1e-3, warmup_steps=100, total_steps=100)


def tiny_corpus(seed=0, n=20, length=12, vocab=24):
    rng = np.random.default_rng(seed)
    return Corpus("toy", [list(rng.integers(0, vocab, size=length)) for _ in range(n)])


class TestTrainLoop:
    def test_target_frozen_bit_identical(self):
        model = make_tiny_model(seed=1)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        model.freeze()
        drafter = make_tiny_drafter(model, seed=2)
        train(tiny_corpus(), model, drafter, TrainConfig(epochs=1, batch_size=4))
        for n, p in model.named_parameters():
            assert p.data.tobytes() == before[n].tobytes(), n

    def test_unfrozen_target_rejected(self):
        model = make_tiny_model(seed=1)
        drafter = make_tiny_drafter(model, seed=2)
        with pytest.raises(TrainingError, match="frozen"):
            train(tiny_corpus(), model, drafter, TrainConfig(epochs=1))

    def test_corpus_too_short(self):
        model = make_tiny_model(seed=1)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=2)
        with pytest.raises(TrainingError, match="K"):
            train(tiny_corpus(length=5), model, drafter, TrainConfig(epochs=1, batch_size=4))

    def test_deterministic_rerun_same_loss_bits(self):
        def run():
            model = make_tiny_model(seed=3)
            model.freeze()
            drafter = make_tiny_drafter(model, seed=4)
            rep = train(tiny_corpus(), model, drafter, TrainConfig(epochs=2, batch_size=4, seed=7))
            return rep.total_losses

        assert run() == run()

    @pytest.mark.parametrize("seed", range(5))
    def test_first_step_decreases_loss_on_frozen_batch(self, seed):
        model = make_tiny_model(seed=seed)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=seed + 100)
        tokens = np.asarray(tiny_corpus(seed=seed, n=4).sequences)
        view = teacher_forced(model, tokens, drafter.config.K)

        def loss_value():
            d_logits, target_probs, gt = batch_draft_logits(drafter, view)
            return compute_losses(d_logits, target_probs, gt, LossWeights())

        opt = AdamW(drafter.parameters())
        total, _, _ = loss_value()
        before = total.item()
        opt.zero_grad()
        total.backward()
        opt.step(lr=1e-4)
        after = loss_value()[0].item()
        assert after < before

    def test_report_csv_round_trips(self, tmp_path):
        model = make_tiny_model(seed=5)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=6)
        rep = train(tiny_corpus(), model, drafter, TrainConfig(epochs=2, batch_size=4))
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epoch,alignment_loss,lm_loss,total,head_1_top1,head_1_top5")
        assert len(lines) == 3

    def test_losses_are_non_negative(self):
        model = make_tiny_model(seed=8)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=9)
        rep = train(tiny_corpus(), model, drafter, TrainConfig(epochs=1, batch_size=4))
        e = rep.epochs[0]
        assert e.alignment_loss >= 0 and e.lm_loss >= 0 and e.total_loss >= 0


class TestHeadAccuracy:
    def test_top5_contains_top1(self):
        model = make_tiny_model(seed=10)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=11)
        top1, top5 = measure_head_accuracy(tiny_corpus(n=6).sequences, model, drafter)
        for a, b in zip(top1, top5):
            assert b >= a

    def test_train_target_reduces_loss(self):
        model = make_tiny_model(seed=12)
        corpus = tiny_corpus(seed=12, n=24)
        rep = train_target(corpus, model, TrainConfig(epochs=3, batch_size=8, lr=3e-3))
        assert rep.losses[-1] < rep.losses[0]


class TestTeacherView:
    """``train`` reads the frozen target through one ``TeacherView`` per run."""

    @staticmethod
    def _count_target_rows(model, monkeypatch):
        calls = []
        forward_batch = model.forward_batch

        def counted(tokens):
            calls.append(len(tokens))
            return forward_batch(tokens)

        monkeypatch.setattr(model, "forward_batch", counted)
        return calls

    def test_target_runs_once_per_row_whatever_the_epochs(self, monkeypatch):
        model = make_tiny_model(seed=20)
        model.freeze()
        calls = self._count_target_rows(model, monkeypatch)
        per_run = []
        for epochs in (1, 3):
            drafter = make_tiny_drafter(model, seed=21)
            train(tiny_corpus(n=40), model, drafter, TrainConfig(epochs=epochs, batch_size=4))
            per_run.append(list(calls))
            calls.clear()
        # 36 training rows, then 4 held-out rows, in chunks of at most VIEW_CHUNK
        assert per_run[0] == per_run[1] == [16, 16, 4, 4]

    def test_evaluation_in_chunks_scores_every_row(self, monkeypatch):
        model = make_tiny_model(seed=20)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=21)
        seqs = tiny_corpus(n=7).sequences
        whole = measure_head_accuracy(seqs, model, drafter, top_ns=(1, 2, 5))
        monkeypatch.setattr(training, "VIEW_CHUNK", 3)
        assert measure_head_accuracy(seqs, model, drafter, top_ns=(1, 2, 5)) == whole

    def test_view_builds_in_chunks(self, monkeypatch):
        model = make_tiny_model(seed=22)
        model.freeze()
        tokens = np.asarray(tiny_corpus(n=7).sequences)
        whole = teacher_forced(model, tokens, 4)
        monkeypatch.setattr(training, "VIEW_CHUNK", 3)
        calls = self._count_target_rows(model, monkeypatch)
        chunked = teacher_forced(model, tokens, 4)
        assert calls == [3, 3, 1]
        for f in fields(whole):
            assert np.array_equal(getattr(whole, f.name), getattr(chunked, f.name)), f.name


def _reference_losses(model, drafter, tokens, weights):
    """The per-batch step the view replaces: a frozen-target forward over
    the batch, the drafter over all T-1 rows and a ``narrow`` to the T'
    scored ones, and the softmax taken over each of the K logit windows."""
    k = drafter.config.K
    t_valid = tokens.shape[1] - k - 1
    out = model.forward_batch(tokens)
    logits = out.logits.data
    d_logits = drafter.sequence_logits(Tensor(out.hidden.data[:, :-1]), tokens[:, 1:])
    d_logits = T.narrow(d_logits, 1, 0, t_valid)
    windows = np.stack([logits[:, 1 + i : 1 + i + t_valid] for i in range(k)], axis=2)
    gt = np.stack([tokens[:, 2 + i : 2 + i + t_valid] for i in range(k)], axis=2)
    return compute_losses(d_logits, T.stable_softmax(windows), gt, weights)


def _reference_adamw_step(params, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """AdamW without weight decay, each moment and update as a new array."""
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    for i, p in enumerate(params):
        g = p.grad
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        p.data -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)


class TestStepMatchesPerBatchReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_loss_and_parameter_bits_after_two_steps(self, dtype):
        with T.dtype_context(dtype):  # as ``bench.train_drafter`` trains, in f32
            self._check_two_steps(dtype)

    @staticmethod
    def _check_two_steps(dtype):
        model = make_tiny_model(seed=23)
        model.freeze()
        tokens = np.asarray(tiny_corpus(seed=23, n=8, length=16).sequences, dtype=np.int64)
        ours, ref = make_tiny_drafter(model, seed=24), make_tiny_drafter(model, seed=24)
        weights = LossWeights(0.7, 1.3)
        view = teacher_forced(model, tokens, ours.config.K)
        opt = AdamW(ours.parameters())
        ref_params = ref.parameters()
        m = [np.zeros_like(p.data) for p in ref_params]
        v = [np.zeros_like(p.data) for p in ref_params]
        for step, rows in enumerate(([5, 0, 3, 6], [1, 7, 2, 4]), 1):
            got = compute_losses(*batch_draft_logits(ours, view.rows(np.array(rows))), weights)
            want = _reference_losses(model, ref, tokens[rows], weights)
            for a, b in zip(got, want):
                assert a.data.dtype == dtype
                assert a.data.tobytes() == b.data.tobytes()
            opt.zero_grad()
            got[0].backward()
            opt.step(1e-2)
            for p in ref_params:
                p.zero_grad()
            want[0].backward()
            _reference_adamw_step(ref_params, m, v, step, 1e-2)
            for a, b in zip(ours.parameters(), ref_params):
                assert a.data.dtype == dtype
                assert a.data.tobytes() == b.data.tobytes(), a.name


class TestRankCounting:
    def test_top_n_matches_a_stable_argsort_under_exact_ties(self, monkeypatch):
        """Integer logits over a 24-token vocabulary tie often; a token must
        count as top-n exactly when a stable descending argsort of the logits
        puts it among its first n."""
        model = make_tiny_model(seed=25)
        model.freeze()
        drafter = make_tiny_drafter(model, seed=26)
        tokens = np.asarray(tiny_corpus(seed=25, n=6, length=14).sequences)
        view = teacher_forced(model, tokens, drafter.config.K)
        rng = np.random.default_rng(27)
        planted = rng.integers(-2, 3, size=view.gt.shape + (24,)).astype(np.float64)
        truth = view.gt[..., None]
        # the true token ties with a lower and a higher token at the top
        np.put_along_axis(planted, truth, 3.0, axis=-1)
        planted[..., 0], planted[..., 23] = 3.0, 3.0
        monkeypatch.setattr(drafter, "sequence_logits", lambda hidden, next_tokens: planted)
        top_ns = (1, 2, 3, 5, 24)
        got = measure_head_accuracy(view, model, drafter, top_ns=top_ns)
        order = np.argsort(-planted, axis=-1, kind="stable")
        for n, row in zip(top_ns, got):
            hit = (order[..., :n] == truth).any(axis=-1)
            assert row == (hit.sum(axis=(0, 1)) / (hit.shape[0] * hit.shape[1])).tolist()
        assert got[0] != got[-1]  # the ties decide some top-1 hits
