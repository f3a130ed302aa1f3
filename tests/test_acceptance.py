"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The trained-system fixture
(criterion 6's budget) is session-scoped and shared by the tests that need a
trained drafter.
"""

import numpy as np
import pytest

from amphista import tensor as T
from amphista.bench import (
    RunConfig,
    ablation_direction,
    build_drafter,
    build_model,
    recompute_tokens_per_step,
    run_ablation_suite,
    run_prompt_set,
    train_system,
    tree_attention_max_diff,
    write_event_log,
)
from amphista.checkpoint import dump_state
from amphista.corpus import Corpus, CorpusSpec, make_corpus, make_prompts
from amphista.drafter import Drafter, DrafterConfig
from amphista.engine import OracleDrafterSession, speculative_generate
from amphista.model import ModelConfig, TargetModel
from amphista.speculation import TreeTopology, chain_accept_step, preset_topology
from amphista.training import (
    LossWeights,
    TrainConfig,
    batch_draft_logits,
    compute_losses,
    teacher_forced,
    train,
)

from conftest import random_tree_paths
from gradcheck import grad_check

TOY_MODEL = ModelConfig()  # V=256, d=64, 4 layers, 4 heads, ffn 256, ctx 512
ABLATION_CORPUS = CorpusSpec(n_sequences=256, seq_len=40)


def _report(criterion: int, passed: bool, detail: str, warn: bool = False):
    status = "WARN" if warn else ("PASS" if passed else "FAIL")
    print(f"\n[criterion {criterion:2d}] {status} - {detail}")
    return passed


@pytest.fixture(scope="session")
def trained_system():
    """Criterion 6 budget: default synthetic corpus, 4 epochs, lr 1e-3."""
    corpus = make_corpus(CorpusSpec(), seed=0)
    model, drafter, report, target_report = train_system(
        TOY_MODEL, DrafterConfig(), TrainConfig(), corpus, seed=0, prompt_len=RunConfig.prompt_len
    )
    return model, drafter, report, target_report


def test_criterion_01_greedy_losslessness():
    """>= 20 prompts x 200 tokens, 3 seeds x 3 topologies, exact match to AR."""
    spec = CorpusSpec()
    checked = 0
    for seed in (0, 1, 2):
        model = build_model(TOY_MODEL, seed)
        model.freeze()
        drafter = build_drafter(DrafterConfig(), model, seed)
        prompts = make_prompts(spec, seed, 20, 12)
        run_ar = RunConfig(mode="ar", max_new_tokens=200, seed=seed)
        _, ar_results = run_prompt_set(model, None, run_ar, prompts)
        for topology in ("chain", "cart45", "searched"):
            run = RunConfig(mode="amphista", topology=topology, max_new_tokens=200, seed=seed)
            report, results = run_prompt_set(
                model, drafter, run, prompts, ar_refs=ar_results
            )
            assert report.lossless is True
            for ar, spec_res in zip(ar_results, results):
                assert ar.tokens == spec_res.tokens
            checked += len(prompts)
    assert _report(
        1, True, f"greedy speculative output identical to AR on {checked} runs "
        "(3 seeds x 3 topologies x 20 prompts x 200 tokens)"
    )


def test_criterion_02_tree_attention_correctness():
    """50 random (prefix, tree) instances, <= 20 nodes, max |diff| <= 1e-5."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(50):
        model = build_model(TOY_MODEL, seed=1000 + i % 5)
        prompt = list(rng.integers(0, 256, size=int(rng.integers(2, 10))))
        paths = random_tree_paths(rng, int(rng.integers(4, 20)), max_depth=6)
        topology = TreeTopology.from_paths(paths)
        worst = max(worst, tree_attention_max_diff(model, prompt, topology, rng))
    passed = worst <= 1e-5
    assert _report(
        2, passed, f"tree-masked logits vs sequential path re-decode: max abs diff "
        f"{worst:.2e} over 50 instances (tolerance 1e-5)"
    )


def test_criterion_03_gradient_integrity():
    """Every drafter parameter group vs central differences (f64, eps 1e-3)."""
    assert T.default_dtype() == np.float64
    model = build_model(TOY_MODEL, seed=3)
    model.freeze()
    drafter = build_drafter(DrafterConfig(), model, seed=4)
    rng = np.random.default_rng(0)
    tokens = rng.integers(64, 96, size=(2, 10))

    view = teacher_forced(model, tokens, drafter.config.K)

    def fn():
        d_logits, target_probs, gt = batch_draft_logits(drafter, view)
        total, _, _ = compute_losses(d_logits, target_probs, gt, LossWeights())
        return total

    report = grad_check(
        fn,
        drafter.parameters(),
        eps=1e-3,
        tol=1e-4,
        max_entries_per_param=6,
        rng=np.random.default_rng(1),
    )
    groups = len(report.max_rel_err)
    worst = max(report.max_rel_err.values())
    assert _report(
        3, report.passed, f"{groups} drafter parameter groups checked on a "
        f"2-sequence batch; worst relative error {worst:.2e} (tolerance 1e-4)"
    ), str(report)


def test_criterion_04_perfect_draft_bound():
    """Oracle drafter + chain topology: tokens/step == K+1 == 5.0 exactly."""
    model = build_model(TOY_MODEL, seed=5)
    rates = []
    for p, prompt in enumerate([[10, 20, 30], [64, 65, 66], [200, 100, 50]]):
        session = OracleDrafterSession(model, k=4)
        res = speculative_generate(
            model, session, prompt, preset_topology("chain"), max_new_tokens=200
        )
        rates.append(res.tokens_per_step)
    passed = all(r == 5.0 for r in rates)
    assert _report(
        4, passed, f"oracle drafter on a depth-4 chain: tokens/step {rates} (expected 5.0 exactly)"
    )


def test_criterion_05_chain_rejection_preserves_distribution():
    """V=3 analytic case, 1e5 trials, total variation <= 0.01."""
    p = np.array([0.6, 0.25, 0.15])
    q = np.array([0.3, 0.45, 0.25])
    rng = np.random.default_rng(505)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        x = int(np.searchsorted(np.cumsum(q), rng.random(), side="right"))
        ok, bonus = chain_accept_step(p, q, x, rng)
        counts[x if ok else bonus] += 1
    tv = 0.5 * np.abs(counts / n - p).sum()
    passed = tv <= 0.01
    assert _report(
        5, passed, f"emitted distribution vs target: total variation {tv:.4f} "
        f"over {n} trials (tolerance 0.01)"
    )


def test_criterion_06_training_effectiveness(trained_system):
    """Default corpus, 4 epochs, lr 1e-3: head-1 top-1 >= 5x chance; epoch
    losses monotone non-increasing."""
    _, _, report, _ = trained_system
    head1 = report.final.head_top1[0]
    chance = 1.0 / 32.0
    losses = report.total_losses
    monotone = all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))
    passed = head1 >= 5 * chance and monotone
    assert _report(
        6, passed, f"head-1 top-1 {head1:.3f} vs threshold {5 * chance:.4f} "
        f"(5x chance); epoch losses {[round(x, 3) for x in losses]} monotone={monotone}"
    )


def test_criterion_07_ablation_direction():
    """Full model vs w/o-auto-embedding and medusa on 50 prompts, 3 seeds;
    majority direction = pass, otherwise warn (never a hard failure)."""
    rows = run_ablation_suite(
        TOY_MODEL, DrafterConfig(), TrainConfig(), ABLATION_CORPUS,
        RunConfig(topology="cart45", n_prompts=50, max_new_tokens=24),
        seeds=(0, 1, 2),
    )
    assert len(rows) == 7
    ok, per_seed = ablation_direction(rows)
    by_name = {r.variant: r for r in rows}
    detail = (
        f"tokens/step mean: amphista {by_name['amphista'].mean_tokens_per_step:.3f}, "
        f"w/o auto-embedding {by_name['no-auto-embedding'].mean_tokens_per_step:.3f}, "
        f"medusa {by_name['medusa'].mean_tokens_per_step:.3f}; per-seed direction {per_seed}"
    )
    _report(7, ok, detail, warn=not ok)
    assert True  # direction inversion is reported as WARN, not failed


def test_criterion_08_low_rank_heads():
    """r in {16, 32}: parameter count r*(d+V) exactly; logits match the
    composed full-matrix oracle within 1e-5."""
    model = build_model(TOY_MODEL, seed=8)
    rng = np.random.default_rng(8)
    ok = True
    details = []
    for r in (16, 32):
        drafter = Drafter(DrafterConfig(lm_head_rank=r), model, np.random.default_rng(r))
        count = drafter.lm_heads[0].parameter_count()
        expected = r * (64 + 256)
        ok &= count == expected
        x = rng.standard_normal(64)
        worst = 0.0
        for head in drafter.lm_heads:
            w_full = head.down.weight.data @ head.up.weight.data
            worst = max(worst, np.abs(head(T.Tensor(x)).data - x @ w_full).max())
        ok &= worst <= 1e-5
        details.append(f"r={r}: {count} params (expected {expected}), oracle diff {worst:.1e}")
    assert _report(8, ok, "; ".join(details))


def test_criterion_09_frozen_target_guarantee():
    """Target checkpoint bytes identical before and after drafter training."""
    model = build_model(TOY_MODEL, seed=9)
    before = dump_state(model.state_dict(prefix="target."))
    model.freeze()
    drafter = build_drafter(DrafterConfig(), model, seed=9)
    corpus = Corpus("tiny", make_corpus(CorpusSpec(n_sequences=48, seq_len=24), 9).sequences)
    train(corpus, model, drafter, TrainConfig(epochs=1))
    after = dump_state(model.state_dict(prefix="target."))
    passed = before == after
    assert _report(
        9, passed, f"target checkpoint bytes identical across a training run "
        f"({len(before)} bytes)"
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Rerunning CLI subcommands with the same config and seed reproduces
    byte-identical CSVs, event logs, and checkpoints."""
    from amphista.cli import main

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "\n".join(
            [
                "vocab_size=256", "hidden_dim=32", "n_layers=2", "n_heads=2",
                "ffn_dim=64", "max_seq_len=256", "sal_heads=2",
                "corpus_vocab=16", "corpus_n_sequences=48", "corpus_seq_len=24",
                "epochs=1", "batch_size=8", "target_epochs=1",
                "n_prompts=3", "prompt_len=8", "max_new_tokens=24",
            ]
        )
        + "\n"
    )
    contract_files = {
        "train": ["checkpoint.bin", "train_report.csv", "config_used.cfg"],
        "bench": ["bench.csv", "events_ar.log", "events_amphista.log"],
        "head-acc": ["head_accuracy.csv"],
    }
    mismatches = []
    outputs = {}
    for tag in ("a", "b"):
        t_dir = tmp_path / f"train_{tag}"
        assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(t_dir)]) == 0
        ckpt = t_dir / "checkpoint.bin"
        b_dir = tmp_path / f"bench_{tag}"
        assert main(
            ["bench", "--config", str(cfg), "--seed", "3", "--out", str(b_dir),
             "--ckpt", str(ckpt), "--mode", "amphista"]
        ) == 0
        h_dir = tmp_path / f"headacc_{tag}"
        assert main(
            ["head-acc", "--config", str(cfg), "--seed", "3", "--out", str(h_dir),
             "--ckpt", str(ckpt)]
        ) == 0
        outputs[tag] = {"train": t_dir, "bench": b_dir, "head-acc": h_dir}
    for cmd, files in contract_files.items():
        for name in files:
            a = (outputs["a"][cmd] / name).read_bytes()
            b = (outputs["b"][cmd] / name).read_bytes()
            if a != b:
                mismatches.append(f"{cmd}/{name}")
    passed = not mismatches
    assert _report(
        10, passed, "byte-identical reruns for train/bench/head-acc outputs"
        + ("" if passed else f"; MISMATCHES: {mismatches}")
    )


def test_supplementary_wide_tree_on_trained_drafter(trained_system):
    """The 45-node cartesian tree accepts at least as much as the 5-node chain
    on a trained drafter (20 prompts, each decoded losslessly)."""
    model, drafter, _, _ = trained_system
    prompts = make_prompts(CorpusSpec(), 77, 20, 12)
    _, ar_results = run_prompt_set(model, None, RunConfig(mode="ar", max_new_tokens=24), prompts)
    tokens_per_step = {}
    for topology in ("chain", "cart45"):
        run = RunConfig(mode="amphista", topology=topology, max_new_tokens=24, seed=7)
        report, _ = run_prompt_set(model, drafter, run, prompts, ar_refs=ar_results)
        tokens_per_step[topology] = report.tokens_per_step
    assert tokens_per_step["cart45"] >= tokens_per_step["chain"]
    print(
        "\n[supplementary] tokens/step by tree:",
        {k: round(v, 3) for k, v in tokens_per_step.items()},
    )


def test_supplementary_event_log_recount(trained_system, tmp_path):
    """Harness tokens/step equals the recount from the raw event log."""
    model, drafter, _, _ = trained_system
    prompts = make_prompts(CorpusSpec(), 88, 5, 10)
    run = RunConfig(mode="amphista", topology="cart45", max_new_tokens=40, seed=11)
    report, results = run_prompt_set(model, drafter, run, prompts)
    log = tmp_path / "events.log"
    write_event_log(log, run, results)
    assert recompute_tokens_per_step(log) == report.tokens_per_step
