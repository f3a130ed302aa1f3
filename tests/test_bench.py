"""Harness: tokenizer, decoding-loop metrics, head accuracy, ablation, tree attention."""

import hashlib
import re

import numpy as np
import pytest

from amphista import bench, training
from amphista import tensor as T
from amphista.bench import (
    CALIBRATION_PROMPTS,
    CALIBRATION_STREAM,
    RunConfig,
    calibrate,
    recompute_tokens_per_step,
    run_ablation_suite,
    run_prompt,
    run_prompt_set,
    train_system,
    tree_attention_max_diff,
    write_ablation_csv,
    write_event_log,
)
from amphista.corpus import (
    Corpus,
    CorpusSpec,
    MarkovGenerator,
    TokenizerError,
    detokenize,
    make_corpus,
    make_prompts,
    tokenize,
)
from amphista.drafter import VARIANTS, DrafterConfig
from amphista.engine import (
    DrafterSession,
    EngineError,
    OracleDrafterSession,
    ar_generate,
    speculative_generate,
)
from amphista.model import ModelConfig, sample
from amphista.speculation import preset_topology
from amphista.training import (
    TrainConfig,
    TrainReport,
    measure_greedy_top1,
    measure_head_accuracy,
    split_corpus,
)
from conftest import (
    make_tiny_drafter,
    make_tiny_model,
    predicted_tokens_per_step,
    reference_markov_sequence,
)


class TestTokenizer:
    def test_ascii_round_trip(self):
        assert tokenize("ab") == [97, 98]
        assert detokenize([97, 98]) == b"ab"

    def test_empty_round_trip(self):
        assert tokenize("") == []
        assert detokenize([]) == b""

    def test_random_bytes_round_trip(self):
        data = np.random.default_rng(0).integers(0, 256, size=1024).astype(np.uint8).tobytes()
        assert detokenize(tokenize(data)) == data

    def test_detokenize_range_check(self):
        with pytest.raises(TokenizerError):
            detokenize([256])


MARKOV_CASES = [
    (order, vocab, length, seed)
    for order, vocab in ((1, 32), (2, 32), (3, 16))
    for length in sorted({0, 1, order, order + 1, 48, 384})
    for seed in (0, 7, 123)
]


def _int64_sha256(sequences) -> str:
    return hashlib.sha256(np.asarray(sequences, dtype=np.int64).tobytes()).hexdigest()


class TestCorpus:
    @pytest.mark.parametrize("order, vocab, length, seed", MARKOV_CASES)
    def test_sequence_matches_per_token_reference(self, order, vocab, length, seed):
        """Same tokens, as Python ints, and the same stream use as the
        per-token sampler: the next draw after 24 sequences is equal."""
        spec = CorpusSpec(order=order, vocab=vocab)
        gen = MarkovGenerator(spec, seed)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(24):
            got = gen.sequence(rng, length)
            assert got == reference_markov_sequence(spec, seed, ref_rng, length)
            assert all(type(t) is int for t in got)
        assert rng.random() == ref_rng.random()

    def test_toy_corpus_and_prompts_are_pinned(self):
        """The fixture checkpoint is trained on this corpus; any change to
        the tokens or the draw streams shows here."""
        corpus = make_corpus(CorpusSpec(), 0).sequences
        prompts = make_prompts(CorpusSpec(), 0, 8, 12)
        assert _int64_sha256(corpus) == (
            "aa19583d5e5979cabef97a60b83ed2bfd7ef0dd05ffbac96d7845f8706dba7a5"
        )
        assert _int64_sha256(prompts) == (
            "f98cfa2a8904a11d11ad4d4bde1c105ec189fb15dd7656b62c9c51e33907427e"
        )
        assert all(type(t) is int for seq in corpus + prompts for t in seq)

    def test_reproducible_from_spec_and_seed(self):
        spec = CorpusSpec(n_sequences=5, seq_len=16)
        a = make_corpus(spec, seed=3)
        b = make_corpus(spec, seed=3)
        assert a.sequences == b.sequences
        assert make_corpus(spec, seed=4).sequences != a.sequences

    def test_symbols_live_in_byte_window(self):
        spec = CorpusSpec(vocab=32, byte_offset=64, n_sequences=3, seq_len=32)
        corpus = make_corpus(spec, seed=0)
        flat = [t for s in corpus.sequences for t in s]
        assert min(flat) >= 64 and max(flat) < 96

    def test_text_corpus_chunks(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"abcdefgh" * 10)
        spec = CorpusSpec(kind="text", text_path=str(p), seq_len=16)
        corpus = make_corpus(spec, seed=0)
        assert all(len(s) == 16 for s in corpus.sequences)
        assert len(corpus.sequences) == 5

    def test_calibration_prompts_are_held_out(self, tmp_path):
        spec = CorpusSpec()
        evaluation = make_prompts(spec, 0, 100, 12)
        calibration = make_prompts(spec, 0, CALIBRATION_PROMPTS, 12, CALIBRATION_STREAM)
        assert not {tuple(p) for p in calibration} & {tuple(p) for p in evaluation}
        p = tmp_path / "c.txt"
        p.write_bytes(b"abcdefgh" * 10)
        text = CorpusSpec(kind="text", text_path=str(p), seq_len=16)
        assert len(make_prompts(text, 0, 2, 8)) == 2
        with pytest.raises(ValueError, match="stream"):
            make_prompts(text, 0, 2, 8, CALIBRATION_STREAM)


class TestDecodingLoops:
    def test_ar_tokens_per_step_is_exactly_one(self):
        model = make_tiny_model()
        res = ar_generate(model, [1, 2, 3], max_new_tokens=20)
        assert res.tokens_per_step == 1.0
        assert len(res.tokens) == 20

    def test_oracle_chain_reaches_upper_bound(self):
        """Heads wired to the target's own argmax: chain depth 4 accepts all
        drafts every round, so tokens/step is exactly K+1 = 5."""
        model = make_tiny_model(seed=2)
        session = OracleDrafterSession(model, k=4)
        res = speculative_generate(
            model, session, [1, 2, 3], preset_topology("chain"), max_new_tokens=26
        )
        assert res.tokens_per_step == 5.0
        ar = ar_generate(model, [1, 2, 3], max_new_tokens=26)
        assert res.tokens == ar.tokens

    def test_throughput_counts_delivered_tokens_only(self):
        """The oracle chain's last round accepts past the budget; tokens/s in
        the timing sidecars counts only the tokens the request delivered."""
        model = make_tiny_model(seed=2)
        session = OracleDrafterSession(model, k=4)
        res = speculative_generate(
            model, session, [1, 2, 3], preset_topology("chain"), max_new_tokens=24
        )
        assert 1 + sum(e.accepted_len + 1 for e in res.events) == 26  # prefill + 5 rounds
        assert len(res.tokens) == 24
        assert bench.pass_tokens_per_sec([res]) * res.wall_time == pytest.approx(24)

    def test_untrained_drafter_matches_reference_loop(self):
        """The tree-verified engine must replay exactly like an independent
        sequential reference implementation of the same decision process."""
        model = make_tiny_model(seed=3)
        drafter = make_tiny_drafter(model, seed=4)
        prompt = [5, 6, 7]
        topo = preset_topology("searched")
        max_new = 24

        res = speculative_generate(
            model, DrafterSession(drafter), prompt, topo, max_new_tokens=max_new
        )

        # reference: no tree forwards, no masks; sequential decoding only
        ref_session = DrafterSession(drafter)
        children = topo.children
        cache = model.new_cache()
        with T.no_grad():
            out = model.forward(prompt, cache)
            tok = sample(out.logits[-1], 0.0)
            h = out.hidden[-1]
            new = [tok]
            per_round = []
            while len(new) < max_new:
                draft = ref_session.draft(h, tok, cache)
                from amphista.speculation import expand_tree

                tree = expand_tree(draft, topo, tok)
                node = 0
                out = model.forward([tok], cache)
                accepted = 0
                while True:
                    best = int(np.argmax(out.logits[-1]))
                    nxt = next((c for c in children[node] if tree.tokens[c] == best), None)
                    if nxt is None:
                        bonus = best
                        break
                    out = model.forward([int(tree.tokens[nxt])], cache)
                    accepted += 1
                    node = nxt
                    new.append(int(tree.tokens[nxt]))
                new.append(bonus)
                per_round.append(accepted + 1)
                h = out.hidden[-1]
                tok = bonus
        assert res.tokens == new[:max_new]
        assert [e.accepted_len + 1 for e in res.events] == per_round
        assert res.tokens_per_step == sum(per_round) / len(per_round)

    def test_oracle_mode_takes_its_depth_from_the_topology(self, tmp_path):
        model = make_tiny_model(seed=2)
        path = tmp_path / "depth3.txt"
        path.write_text("0\n0,0\n0,1\n0,0,0\n")
        run = RunConfig(mode="oracle", topology=str(path), max_new_tokens=25)
        report, results = run_prompt_set(model, None, run, [[1, 2, 3], [4, 5]])
        assert report.lossless is True
        assert report.tokens_per_step == 4.0

    def test_tree_rounds_near_the_window_become_single_steps(self):
        """A prompt that ends within one tree of the window still decodes to
        exactly AR's tokens; the rounds that no longer fit step one token."""
        model = make_tiny_model(seed=3)
        drafter = make_tiny_drafter(model, seed=4)
        window = model.config.max_seq_len
        prompt = [int(t) for t in np.random.default_rng(5).integers(0, 24, size=window - 60)]
        max_new = window - len(prompt) + 1
        topo = preset_topology("cart45")
        res = speculative_generate(model, DrafterSession(drafter), prompt, topo, max_new)
        assert res.tokens == ar_generate(model, prompt, max_new).tokens
        assert {e.nodes for e in res.events} == {1, topo.node_count}
        run = RunConfig(mode="vanilla_chain", temperature=0.7, max_new_tokens=max_new)
        _, sampled = run_prompt_set(model, drafter, run, [prompt])
        assert len(sampled[0].tokens) == max_new

    def test_budget_past_the_window_rejected_before_prefill(self):
        model = make_tiny_model()
        window = model.config.max_seq_len
        prompt = [1] * (window - 9)
        ar_generate(model, prompt, 10)  # the last token is never fed back
        named = f"prompt_len {window - 9} + max_new_tokens 11 exceeds the context window of {window} tokens"
        with pytest.raises(EngineError, match=re.escape(named)):
            ar_generate(model, prompt, 11)
        with pytest.raises(EngineError, match="context window"):
            speculative_generate(
                model, DrafterSession(make_tiny_drafter(model)), prompt, preset_topology("chain"), 11
            )

    def test_calibration_predicts_its_own_topology_exactly(self):
        model = make_tiny_model(seed=6)
        drafter = make_tiny_drafter(model, seed=7)
        run = RunConfig(mode="amphista", topology="cart45", max_new_tokens=30)
        prompts = [[1, 2, 3], [4, 5, 6, 7], [8, 9]]
        cal = calibrate(model, drafter, run, prompts)
        report, _ = run_prompt_set(model, drafter, run, prompts)
        assert cal.tokens_per_step == report.tokens_per_step
        paths = preset_topology("cart45").paths
        assert predicted_tokens_per_step(paths, cal.rank_vectors) == pytest.approx(
            cal.tokens_per_step, abs=1e-12
        )

    @pytest.mark.parametrize("max_new", [0, -3])
    def test_no_new_tokens_rejected_before_prefill(self, monkeypatch, max_new):
        model = make_tiny_model()
        calls = []
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(EngineError, match=f"max_new_tokens must be >= 1, got {max_new}"):
            ar_generate(model, [1, 2, 3], max_new)
        assert calls == []

    def test_decoding_builds_no_tensor(self, monkeypatch):
        """Every decode mode runs on plain arrays end to end: with ``Tensor``
        construction made to raise, each still finishes its budget."""
        model = make_tiny_model(seed=5)
        amphista, medusa = (
            make_tiny_drafter(model, seed=6, **VARIANTS[name]) for name in ("amphista", "medusa")
        )

        def no_tensor(*args, **kwargs):
            raise AssertionError("decoding built a Tensor")

        monkeypatch.setattr(T.Tensor, "__init__", no_tensor)
        runs = [
            (None, RunConfig(mode="ar", max_new_tokens=16)),
            (amphista, RunConfig(mode="amphista", topology="searched", max_new_tokens=16)),
            (medusa, RunConfig(mode="medusa", topology="searched", max_new_tokens=16)),
            (amphista, RunConfig(mode="vanilla_chain", temperature=0.8, max_new_tokens=16)),
            (None, RunConfig(mode="oracle", topology="chain", max_new_tokens=16)),
        ]
        for drafter, run in runs:
            assert len(run_prompt(model, drafter, run, [1, 2, 3]).tokens) == 16, run.mode

    def test_empty_prompt_rejected(self):
        model = make_tiny_model()
        with pytest.raises(Exception, match="prompt"):
            ar_generate(model, [], 5)

    def test_vanilla_chain_at_zero_temperature_equals_chain_topology(self):
        model = make_tiny_model(seed=5)
        drafter = make_tiny_drafter(model, seed=6)
        prompts = [[1, 2, 3], [4, 5, 6]]
        run_a = RunConfig(mode="amphista", topology="chain", max_new_tokens=16, n_prompts=2)
        run_b = RunConfig(mode="vanilla_chain", max_new_tokens=16, n_prompts=2)
        rep_a, _ = run_prompt_set(model, drafter, run_a, prompts)
        rep_b, _ = run_prompt_set(model, drafter, run_b, prompts)
        assert rep_a.tokens_per_step == rep_b.tokens_per_step

    def test_vanilla_chain_follows_the_drafter_depth(self):
        model = make_tiny_model(seed=5)
        drafter = make_tiny_drafter(model, seed=6, K=3)
        run = RunConfig(mode="vanilla_chain", max_new_tokens=16)
        report, results = run_prompt_set(model, drafter, run, [[1, 2, 3], [4, 5, 6]])
        assert report.lossless is True
        assert {e.nodes for r in results for e in r.events} == {4}

    def test_topology_deeper_than_the_drafter_rejected_before_prefill(self, monkeypatch):
        model = make_tiny_model(seed=5)
        session = DrafterSession(make_tiny_drafter(model, seed=6, K=3))
        calls = []
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(EngineError, match="depth 4 != drafter depth 3"):
            speculative_generate(model, session, [1, 2, 3], preset_topology("cart45"), 10)
        assert calls == []

    def test_typical_rule_runs_and_terminates(self):
        model = make_tiny_model(seed=7)
        drafter = make_tiny_drafter(model, seed=8)
        run = RunConfig(
            mode="amphista", topology="cart45", temperature=0.7, max_new_tokens=20, n_prompts=2, seed=1
        )
        report, results = run_prompt_set(model, drafter, run, [[1, 2, 3], [2, 3, 4]])
        assert all(len(r.tokens) == 20 for r in results)
        assert report.lossless is None
        assert 1.0 <= report.tokens_per_step <= 5.0

    def test_chain_rejection_mode_runs(self):
        model = make_tiny_model(seed=9)
        drafter = make_tiny_drafter(model, seed=10)
        run = RunConfig(mode="vanilla_chain", temperature=0.7, max_new_tokens=16, n_prompts=1, seed=2)
        report, results = run_prompt_set(model, drafter, run, [[3, 2, 1]])
        assert len(results[0].tokens) == 16

    def test_rerun_is_deterministic_even_with_sampling(self):
        model = make_tiny_model(seed=11)
        drafter = make_tiny_drafter(model, seed=12)
        run = RunConfig(
            mode="amphista", topology="cart45", temperature=0.7, max_new_tokens=15, n_prompts=2, seed=3
        )
        _, a = run_prompt_set(model, drafter, run, [[1, 1, 2], [9, 9, 9]])
        _, b = run_prompt_set(model, drafter, run, [[1, 1, 2], [9, 9, 9]])
        assert [r.tokens for r in a] == [r.tokens for r in b]


class TestEventLog:
    def test_recompute_matches_report(self, tmp_path):
        model = make_tiny_model(seed=13)
        drafter = make_tiny_drafter(model, seed=14)
        run = RunConfig(mode="amphista", topology="cart45", max_new_tokens=20, n_prompts=3)
        report, results = run_prompt_set(
            model, drafter, run, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        )
        path = tmp_path / "events.log"
        write_event_log(path, run, results)
        assert recompute_tokens_per_step(path) == report.tokens_per_step


class TestHeadAccuracyHarness:
    def test_oracle_hook_scores_100_percent(self, monkeypatch):
        """On sequences the target itself generated greedily, a probe that reads
        the target's own logits is perfect at every head."""
        model = make_tiny_model(seed=15)
        seqs = []
        for start in ([1, 2], [3, 4], [5, 6]):
            res = ar_generate(model, start, max_new_tokens=18)
            seqs.append(start + res.tokens)

        with T.no_grad():
            logits = model.forward_batch(np.asarray(seqs)).logits.data

        def oracle_logits(hidden, _next_tokens):
            # head k (0-indexed) predicts position t+k+2, whose target logits
            # sit at position t+k+1 of the teacher-forced forward of ``seqs``;
            # ``hidden`` holds the scored positions t < T-5 of every sequence
            t = hidden.shape[-2]
            return np.stack([logits[:, k + 1 : k + 1 + t] for k in range(4)], axis=-2)

        drafter = make_tiny_drafter(model)
        monkeypatch.setattr(drafter, "sequence_logits", oracle_logits)
        top1, top5 = measure_head_accuracy(seqs, model, drafter)
        assert top1 == [1.0, 1.0, 1.0, 1.0]
        assert top5 == [1.0, 1.0, 1.0, 1.0]

    def test_uniform_random_drafter_sits_at_chance(self, monkeypatch):
        """Uniform guessing over a 32-symbol vocabulary: top-1 accuracy within
        a 3-sigma binomial band of 1/32 over >= 10^4 positions."""
        spec = CorpusSpec(vocab=32, n_sequences=200, seq_len=64)
        corpus = make_corpus(spec, seed=21)
        rng = np.random.default_rng(77)

        def random_logits(hidden, _next_tokens):
            rows = np.full(hidden.shape[:-1] + (4, 256), -1e9)
            rows[..., 64 : 64 + 32] = rng.standard_normal(hidden.shape[:-1] + (4, 32))
            return rows

        model = make_tiny_model(config=SMALL_MODEL)  # its vocabulary holds the corpus bytes
        drafter = make_tiny_drafter(model)
        monkeypatch.setattr(drafter, "sequence_logits", random_logits)
        (top1,) = measure_head_accuracy(corpus.sequences, model, drafter, top_ns=(1,))
        positions = 200 * (64 - 5)
        sigma = np.sqrt((1 / 32) * (31 / 32) / positions)
        for acc in top1:
            assert abs(acc - 1 / 32) <= 3 * sigma

    def test_top5_at_least_top1_on_real_drafter(self):
        model = make_tiny_model(seed=16)
        drafter = make_tiny_drafter(model, seed=17)
        corpus = Corpus("t", [list(np.random.default_rng(i).integers(0, 24, size=14)) for i in range(5)])
        top1, top5 = measure_head_accuracy(corpus.sequences, model, drafter)
        assert all(b >= a for a, b in zip(top1, top5))


    def test_greedy_top1_of_the_target_itself_is_one(self, monkeypatch):
        """Heads that carry the target's own teacher-forced logits agree with
        its greedy token at every head; against the corpus tokens they do not."""
        model = make_tiny_model(seed=15)  # its argmax varies along the sequence
        drafter = make_tiny_drafter(model)
        tokens = np.random.default_rng(19).integers(0, 24, size=16)
        with T.no_grad():
            logits = model.forward_batch(tokens[None, :]).logits.data[0]
        t = len(tokens)
        rows = np.stack(
            [np.stack([logits[min(t0 + k + 1, t - 1)] for k in range(4)]) for t0 in range(t - 1)]
        )
        monkeypatch.setattr(
            drafter, "sequence_logits", lambda hidden, next_tokens: rows[None, : hidden.shape[-2]]
        )
        assert measure_greedy_top1([tokens], model, drafter) == [1.0, 1.0, 1.0, 1.0]
        (top1,) = measure_head_accuracy([tokens], model, drafter, top_ns=(1,))
        assert min(top1) < 1.0


SMALL_MODEL = ModelConfig(vocab_size=256, hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=32, max_seq_len=128)


def small_ablation_setup():
    return (
        SMALL_MODEL,
        DrafterConfig(sal_heads=2),
        TrainConfig(epochs=1, batch_size=8, target_epochs=1),
        CorpusSpec(vocab=16, n_sequences=16, seq_len=20),
        RunConfig(topology="cart45", n_prompts=3, prompt_len=6, max_new_tokens=10),
    )


class TestAblationHarness:
    def test_seven_rows_and_deterministic_csv(self, tmp_path):
        model_cfg, drafter_cfg, train_cfg, corpus_spec, run = small_ablation_setup()
        rows = run_ablation_suite(model_cfg, drafter_cfg, train_cfg, corpus_spec, run, (0,))
        assert len(rows) == 7
        assert {r.variant for r in rows} == {
            "medusa",
            "no-auto-embedding",
            "no-position-encoding",
            "no-staged-adaptation",
            "one-adaptation-layer",
            "no-sampled-token",
            "amphista",
        }
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ablation_csv(a, rows)
        rows2 = run_ablation_suite(model_cfg, drafter_cfg, train_cfg, corpus_spec, run, (0,))
        write_ablation_csv(b, rows2)
        assert a.read_bytes() == b.read_bytes()

    def test_reference_column_present(self, tmp_path):
        model_cfg, drafter_cfg, train_cfg, corpus_spec, run = small_ablation_setup()
        rows = run_ablation_suite(model_cfg, drafter_cfg, train_cfg, corpus_spec, run, (0,))
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, rows)
        text = path.read_text()
        assert "fullscale_ref_accepted_len" in text
        assert "3.50" in text and "2.52" in text


    def test_distilled_corpus_is_built_once_per_seed(self, monkeypatch):
        model_cfg, drafter_cfg, train_cfg, corpus_spec, run = small_ablation_setup()
        builds, corpora = [], []
        real_distill, real_train_drafter = bench.distill_corpus, bench.train_drafter

        def counting_distill(*args, **kwargs):
            builds.append(real_distill(*args, **kwargs))
            return builds[-1]

        def recording_train_drafter(drafter_config, train_config, corpus, *args):
            corpora.append(corpus)
            return real_train_drafter(drafter_config, train_config, corpus, *args)

        monkeypatch.setattr(bench, "distill_corpus", counting_distill)
        monkeypatch.setattr(bench, "train_drafter", recording_train_drafter)
        run_ablation_suite(model_cfg, drafter_cfg, train_cfg, corpus_spec, run, (0, 1))
        assert len(builds) == 2
        assert len(corpora) == 14
        assert all(c is builds[0] for c in corpora[:7])
        assert all(c is builds[1] for c in corpora[7:])


class TestSelfDistillation:
    def test_train_system_trains_on_greedy_continuations(self, monkeypatch):
        """The drafter's training split is each corpus sequence's first
        prompt_len tokens plus the f64 target's greedy continuation; the
        held-out split is corpus text, unchanged."""
        model_cfg, drafter_cfg, train_cfg, corpus_spec, _ = small_ablation_setup()
        corpus = make_corpus(corpus_spec, seed=4)
        seen = []

        def fake_train(corpus, model, drafter, config):
            seen.append(corpus)
            return TrainReport()

        monkeypatch.setattr(bench, "train", fake_train)
        model, _, _, _ = train_system(
            model_cfg, drafter_cfg, train_cfg, corpus, seed=4, prompt_len=5
        )
        (handed,) = seen
        train_seqs, held_seqs = split_corpus(corpus.sequences)
        expected = [
            seq[:5] + ar_generate(model, seq[:5], len(seq) - 5).tokens for seq in train_seqs
        ]
        assert handed == expected + held_seqs
        assert split_corpus(handed)[1] == held_seqs
        assert handed[: len(train_seqs)] != train_seqs  # the target does not write the corpus

    def test_prompt_as_long_as_the_sequences_is_rejected(self):
        model = make_tiny_model()
        with pytest.raises(training.TrainingError, match="prompt_len"):
            bench.distill_corpus(model, [[1] * 8 for _ in range(10)], prompt_len=8)


class TestTreeAttentionProbe:
    def test_random_instances_tiny_diff(self):
        model = make_tiny_model(seed=19)
        rng = np.random.default_rng(20)
        for _ in range(5):
            prompt = list(rng.integers(0, 24, size=4))
            diff = tree_attention_max_diff(model, prompt, preset_topology("cart45"), rng)
            assert diff <= 1e-5
