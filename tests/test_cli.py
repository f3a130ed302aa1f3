"""CLI front end: exit codes, artifacts on disk, error paths."""

import argparse
import csv

import pytest

from amphista import bench, cli
from amphista.bench import AblationRow, LosslessnessError
from amphista.checkpoint import CheckpointError, dump_state, load_checkpoint, save_checkpoint
from amphista.cli import _build_configs, _build_system, main
from amphista.drafter import VARIANTS, variant_config
from amphista.engine import DrafterSession, ar_generate, speculative_generate
from amphista.speculation import load_topology

TINY = """
vocab_size=256
hidden_dim=32
n_layers=2
n_heads=2
ffn_dim=64
max_seq_len=256
sal_heads=2
corpus_vocab=16
corpus_n_sequences=48
corpus_seq_len=24
epochs=1
batch_size=8
target_epochs=1
n_prompts=2
prompt_len=8
max_new_tokens=20
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", tiny_cfg, "--seed", "1", "--out", str(out)]) == 0
    return out


class TestCommands:
    def test_train_outputs(self, tiny_cfg, trained_dir):
        for name in ("checkpoint.bin", "train_report.csv", "config_used.cfg"):
            assert (trained_dir / name).exists()
        # config_used.cfg coerces back to every config train used, so it reruns the run
        def configs(path, seed):
            args = argparse.Namespace(
                config=str(path), seed=seed, mode=None, temperature=None, topology=None
            )
            return _build_configs(args)[1:]

        assert configs(trained_dir / "config_used.cfg", None) == configs(tiny_cfg, 1)

    def test_generate_with_prompt(self, tiny_cfg, trained_dir, tmp_path):
        rc = main(
            ["generate", "--config", tiny_cfg, "--seed", "1", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin"), "--prompt", "HELLO"]
        )
        assert rc == 0
        assert (tmp_path / "events.log").exists()
        assert (tmp_path / "generate.csv").exists()

    def test_generate_one_token_reports_no_decode_step(
        self, tiny_cfg, trained_dir, tmp_path, capsys
    ):
        rc = main(
            ["generate", "--config", tiny_cfg, "--seed", "1", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin"), "--max-new-tokens", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "new tokens: 1" in out
        assert "tokens/step: n/a, the prefill emitted every token" in out

    def test_bench_vanilla_chain_sampling(self, tiny_cfg, trained_dir, tmp_path):
        rc = main(
            ["bench", "--config", tiny_cfg, "--seed", "2", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin"),
             "--mode", "vanilla_chain", "--temperature", "0.7"]
        )
        assert rc == 0
        text = (tmp_path / "bench.csv").read_text()
        assert "vanilla_chain" in text

    def test_bench_decodes_ar_once_per_prompt(self, tiny_cfg, trained_dir, tmp_path, monkeypatch):
        """The AR pass is both the losslessness reference and the timing anchor."""
        calls = []
        real = bench.ar_generate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "ar_generate", counting)
        rc = main(
            ["bench", "--config", tiny_cfg, "--seed", "1", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin")]
        )
        assert rc == 0
        assert len(calls) == 2  # n_prompts=2
        with open(tmp_path / "bench_timing.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["mode"] for r in rows] == ["ar", "amphista"]
        assert all(float(r["tokens_per_sec"]) > 0 for r in rows)

    def test_checkpoint_of_another_mode_rejected_before_decoding(
        self, tiny_cfg, trained_dir, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_prompt_set", lambda *a, **k: calls.append(a))
        rc = main(
            ["bench", "--config", tiny_cfg, "--seed", "1", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin"), "--mode", "medusa"]
        )
        assert rc == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "drafter.encoder" in err
        assert "Traceback" not in err

    def test_losslessness_violation_exits_nonzero(
        self, tiny_cfg, trained_dir, tmp_path, monkeypatch, capsys
    ):
        def diverge(*args, **kwargs):
            raise LosslessnessError("greedy amphista run diverged from AR decoding on prompt 0")

        monkeypatch.setattr(cli, "run_prompt_set", diverge)
        rc = main(
            ["generate", "--config", tiny_cfg, "--seed", "1", "--out", str(tmp_path),
             "--ckpt", str(trained_dir / "checkpoint.bin")]
        )
        assert rc == 1
        assert "LOSSLESSNESS VIOLATION: greedy amphista run diverged" in capsys.readouterr().err

    def test_tree_search_writes_a_lossless_topology(self, tiny_cfg, trained_dir, tmp_path):
        ckpt = str(trained_dir / "checkpoint.bin")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            argv = ["tree-search", "--config", tiny_cfg, "--seed", "1", "--out", str(out)]
            assert main([*argv, "--ckpt", ckpt]) == 0
        assert (outs[0] / "tree_search.csv").read_bytes() == (outs[1] / "tree_search.csv").read_bytes()
        assert (outs[0] / "tree_search_timing.csv").exists()
        topology = load_topology(outs[0] / "topology.txt")
        assert topology.depth_max == 4 and topology.node_count <= 64

        args = argparse.Namespace(
            config=tiny_cfg, seed=1, mode=None, temperature=None, topology=None, ckpt=ckpt
        )
        _, model_cfg, drafter_cfg, _, _, run_cfg = _build_configs(args)
        model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
        for prompt in ([70, 71, 72, 73], [80, 75, 70]):
            res = speculative_generate(model, DrafterSession(drafter), prompt, topology, 20)
            assert res.tokens == ar_generate(model, prompt, 20).tokens

    def test_selfcheck_passes(self):
        assert main(["selfcheck", "--seed", "0"]) == 0

    def test_ablate_decodes_with_the_run_config(self, tmp_path, monkeypatch):
        """ablate decodes with the run keys and flags that bench reads, and
        trains at the ablation_seeds (or at --seed and the seeds after it)."""
        seen = []

        def recording(model_cfg, drafter_cfg, train_cfg, corpus_spec, run, seeds):
            seen.append((run, seeds))
            ones = dict.fromkeys(seeds, 1.0)
            return [AblationRow(name, ones, ones) for name in VARIANTS]

        monkeypatch.setattr(cli, "run_ablation_suite", recording)
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(TINY + "ablation_seeds=3,4\n")
        argv = ["ablate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--topology", "chain", "--temperature", "0.8"]
        assert main(argv) == 0
        assert main([*argv, "--seed", "7"]) == 0
        (run, seeds), (_, reseeded) = seen
        assert (run.n_prompts, run.prompt_len, run.max_new_tokens) == (2, 8, 20)
        assert (run.topology, run.temperature) == ("chain", 0.8)
        assert (seeds, reseeded) == ((3, 4), (7, 8))
        assert (tmp_path / "out" / "ablation.csv").exists()

    def test_unknown_mode_rejected(self, tiny_cfg, tmp_path, capsys):
        argv = ["bench", "--config", tiny_cfg, "--out", str(tmp_path), "--mode", "warpdrive"]
        assert main(argv) == 1
        assert "unknown mode 'warpdrive'" in capsys.readouterr().err


# Each command's flags: a flag added to or dropped from a command shows up here.
PINNED_FLAGS = {
    "train": {"--config", "--seed", "--out", "--mode"},
    "generate": {"--config", "--seed", "--out", "--mode", "--temperature", "--topology",
                 "--ckpt", "--prompt", "--max-new-tokens"},
    "bench": {"--config", "--seed", "--out", "--mode", "--temperature", "--topology",
              "--ckpt", "--max-new-tokens"},
    "tree-search": {"--config", "--seed", "--out", "--mode", "--temperature", "--topology",
                    "--ckpt"},
    "ablate": {"--config", "--seed", "--out", "--temperature", "--topology"},
    "head-acc": {"--config", "--seed", "--out", "--mode", "--ckpt"},
    "selfcheck": {"--config", "--seed"},
}

# The (command, flag) pairs that were accepted and then ignored.
UNREAD_FLAGS = [
    ("train", "--temperature"),
    ("train", "--topology"),
    ("ablate", "--mode"),
    ("head-acc", "--temperature"),
    ("head-acc", "--topology"),
    ("selfcheck", "--out"),
    ("selfcheck", "--mode"),
    ("selfcheck", "--temperature"),
    ("selfcheck", "--topology"),
]


class TestFlags:
    def test_flag_sets_are_pinned(self):
        flags = {name: set(spec[2].split()) for name, spec in cli._COMMANDS.items()}
        assert flags == PINNED_FLAGS
        assert sum(len(f) for f in flags.values()) == 40

    @pytest.mark.parametrize(
        "command, flag", [pytest.param(c, f, id=f"{c}{f}") for c, f in UNREAD_FLAGS]
    )
    def test_unread_flag_is_a_usage_error(
        self, tiny_cfg, tmp_path, capsys, monkeypatch, command, flag
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work began before the flags were checked")

        for name in ("_build_system", "run_ablation_suite", "train_system", "selfcheck"):
            monkeypatch.setattr(cli, name, unreachable)
        out = tmp_path / "out"
        value = {"--out": str(out), "--mode": "medusa", "--temperature": "0.8",
                 "--topology": "chain"}[flag]
        argv = [command, "--config", tiny_cfg, flag, value]
        if "--out" in PINNED_FLAGS[command]:
            argv += ["--out", str(out)]
        assert flag not in PINNED_FLAGS[command]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


def _untrained_checkpoint(cfg, path, mode="medusa"):
    """An untrained system whose drafter is the ``mode`` variant, saved as
    ``amphista train --mode <mode>`` would save it; its weights come from a
    seed that no test decodes with, so only a load reproduces them."""
    args = argparse.Namespace(config=cfg, seed=99, mode=mode, temperature=None, topology=None)
    _, model_cfg, drafter_cfg, _, _, run_cfg = _build_configs(args)
    model = bench.build_model(model_cfg, run_cfg.seed)
    drafter = bench.build_drafter(variant_config(mode, drafter_cfg), model, run_cfg.seed)
    state = model.state_dict(prefix="target.")
    state.update(drafter.state_dict(prefix="drafter."))
    save_checkpoint(path, state)
    return model


class TestTargetOnlyModes:
    @pytest.mark.parametrize("mode", ["ar", "oracle"])
    def test_bench_loads_only_the_target_of_a_medusa_checkpoint(self, tiny_cfg, tmp_path, mode):
        ckpt = tmp_path / "medusa.bin"
        trained = _untrained_checkpoint(tiny_cfg, ckpt)
        args = argparse.Namespace(
            config=tiny_cfg, seed=1, mode=mode, temperature=None, topology=None, ckpt=str(ckpt)
        )
        _, model_cfg, drafter_cfg, _, _, run_cfg = _build_configs(args)
        model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
        assert drafter is None
        assert dump_state(model.state_dict()) == dump_state(trained.state_dict())
        out = tmp_path / "out"
        rc = main(
            ["bench", "--config", tiny_cfg, "--seed", "1", "--out", str(out),
             "--ckpt", str(ckpt), "--mode", mode]
        )
        assert rc == 0
        assert f"{mode}," in (out / "bench.csv").read_text()

    def test_stray_target_keys_still_rejected(self, tiny_cfg, tmp_path):
        ckpt = tmp_path / "stray.bin"
        _untrained_checkpoint(tiny_cfg, ckpt)
        state = load_checkpoint(ckpt)
        state["target.extra.weight"] = state["target.token_emb"]
        save_checkpoint(ckpt, state)
        args = argparse.Namespace(
            config=tiny_cfg, seed=1, mode="ar", temperature=None, topology=None, ckpt=str(ckpt)
        )
        _, model_cfg, drafter_cfg, _, _, run_cfg = _build_configs(args)
        with pytest.raises(CheckpointError, match=r"target\.extra\.weight"):
            _build_system(args, model_cfg, drafter_cfg, run_cfg)


def _case(n, command, flags, extra_cfg, named):
    """A rejected-config case with an explicit id that carries its own serial
    ``n``, so a case inserted anywhere renames no other. The id keeps the form
    pytest once derived from list positions, so existing cases kept theirs."""
    case_id = f"{command}-flags{n}-{extra_cfg}-{named}"
    return pytest.param(command, flags, extra_cfg, named, id=case_id)


class TestNamedErrors:
    """A named error raised before any work exits 1 with one stderr line."""

    def _one_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_promts=3\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "n_promts" in self._one_line(capsys)

    def test_checkpoint_error(self, tiny_cfg, tmp_path, capsys):
        ckpt = tmp_path / "medusa.bin"
        _untrained_checkpoint(tiny_cfg, ckpt)
        argv = ["bench", "--config", tiny_cfg, "--out", str(tmp_path), "--ckpt", str(ckpt)]
        assert main(argv) == 1  # an amphista system lacks the medusa drafter's keys
        assert "was the checkpoint trained for another mode" in self._one_line(capsys)

    @pytest.mark.parametrize(
        "saved, loaded, named",
        [
            pytest.param("hidden_dim=16\n", "",
                         "'target.token_emb': checkpoint shape (256, 16) != parameter shape (256, 32)",
                         id="hidden_dim"),
            pytest.param("sal_ffn_dim=32\n", "sal_ffn_dim=64\n",
                         "'drafter.sal1.ffn.w1.weight': checkpoint shape (32, 32) != "
                         "parameter shape (32, 64)",
                         id="sal_ffn_dim"),
        ],
    )
    def test_checkpoint_of_another_shape(self, tmp_path, capsys, saved, loaded, named):
        (tmp_path / "saved.cfg").write_text(TINY + saved)
        (tmp_path / "loaded.cfg").write_text(TINY + loaded)
        ckpt = tmp_path / "other.bin"
        _untrained_checkpoint(str(tmp_path / "saved.cfg"), ckpt, mode="amphista")
        argv = ["bench", "--config", str(tmp_path / "loaded.cfg"), "--ckpt", str(ckpt),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert named in self._one_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_choice_index_past_top_k(self, tiny_cfg, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("_build_system ran")

        monkeypatch.setattr(cli, "_build_system", unreachable)
        tree = tmp_path / "tree.txt"
        tree.write_text("0\n0,0\n0,0,0\n0,0,0,0\n10\n")
        argv = ["bench", "--config", tiny_cfg, "--topology", str(tree),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        named = f"topology {str(tree)!r}: choice index 10 at depth 1 exceeds head 1's top-k of 10"
        assert named in self._one_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint(self, tiny_cfg, tmp_path, capsys):
        ckpt = tmp_path / "absent.bin"
        argv = ["bench", "--config", tiny_cfg, "--out", str(tmp_path), "--ckpt", str(ckpt)]
        assert main(argv) == 1
        assert f"cannot read checkpoint {ckpt}" in self._one_line(capsys)

    def test_engine_error(self, tiny_cfg, tmp_path, capsys):
        argv = ["generate", "--config", tiny_cfg, "--out", str(tmp_path), "--prompt", "x" * 300]
        assert main(argv) == 1
        assert "exceeds the context window" in self._one_line(capsys)

    def test_topology_error(self, tiny_cfg, tmp_path, capsys):
        argv = ["generate", "--config", tiny_cfg, "--out", str(tmp_path), "--topology", "bushy"]
        assert main(argv) == 1
        assert "'bushy' is neither a preset nor an existing file" in self._one_line(capsys)

    def test_head_acc_needs_a_drafter(self, tiny_cfg, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("_build_system ran")

        monkeypatch.setattr(cli, "_build_system", unreachable)
        for mode in ("ar", "oracle"):
            argv = ["head-acc", "--config", tiny_cfg, "--out", str(tmp_path / "ha"), "--mode", mode]
            assert main(argv) == 1
            assert f"--mode {mode} has none" in self._one_line(capsys)
            assert not (tmp_path / "ha").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--mode", "ar"], "--mode ar"),
            (["--mode", "oracle"], "--mode oracle"),
            (["--temperature", "0.8"], "--temperature 0.8"),
        ],
    )
    def test_tree_search_needs_greedy_drafter_before_building(
        self, tiny_cfg, tmp_path, capsys, monkeypatch, flags, named
    ):
        def unreachable(*args):
            raise AssertionError("_build_system ran")

        monkeypatch.setattr(cli, "_build_system", unreachable)
        argv = ["tree-search", "--config", tiny_cfg, "--out", str(tmp_path / "ts"), *flags]
        assert main(argv) == 1
        assert named in self._one_line(capsys)
        assert not (tmp_path / "ts").exists()

    @pytest.mark.parametrize(
        "command, flags, extra_cfg, named",
        [
            _case(0, "bench", ["--mode", "foo"], "", "RunConfig: unknown mode 'foo'"),
            _case(1, "bench", [], "K=1\n", "DrafterConfig: need at least 2 drafting heads"),
            _case(2, "generate", ["--temperature", "-1"], "",
                  "RunConfig: temperature must be >= 0"),
            _case(3, "bench", [], "K=abc\n", "DrafterConfig: K='abc': invalid literal for int()"),
            _case(4, "bench", [], "n_prompts=0\n", "RunConfig: n_prompts must be >= 1, got 0"),
            _case(5, "bench", ["--max-new-tokens", "0"], "",
                  "RunConfig: max_new_tokens must be >= 1"),
            _case(6, "ablate", [], "n_prompts=0\n", "RunConfig: n_prompts must be >= 1, got 0"),
            _case(7, "train", [], "epochs=0\n", "TrainConfig: epochs must be >= 1, got 0"),
            _case(8, "train", [], "batch_size=0\n", "TrainConfig: batch_size must be >= 1, got 0"),
            _case(9, "train", [], "target_epochs=abc\n",
                  "TrainConfig: target_epochs='abc': invalid literal for int()"),
            _case(10, "train", [], "target_epochs=0\n",
                  "TrainConfig: target_epochs must be >= 1, got 0"),
            _case(11, "generate", ["--temperature", "nan"], "",
                  "RunConfig: temperature must be >= 0 and"),
            _case(12, "bench", [], "temperature=inf\n",
                  "RunConfig: temperature must be >= 0 and finite"),
            _case(13, "generate", [], "prompt_len=0\n",
                  "RunConfig: prompt_len must be >= 1, got 0"),
            _case(14, "train", [], "lr=-1\n", "TrainConfig: lr must be finite and > 0, got -1"),
            _case(15, "train", [], "lr=0\n", "TrainConfig: lr must be finite and > 0, got 0"),
            _case(16, "train", [], "lr=nan\n", "TrainConfig: lr must be finite and > 0, got nan"),
            _case(17, "train", [], "lambda1=nan\n", "TrainConfig: loss weights must be finite"),
            _case(18, "train", [], "lambda2=inf\n", "TrainConfig: loss weights must be finite"),
            _case(19, "train", [], "lambda1=0\nlambda2=0\n",
                  "TrainConfig: loss weights must be finite"),
            _case(20, "train", [], "prompt_len=24\n", "prompt_len 24 must be < corpus_seq_len 24"),
            _case(21, "train", [], "corpus_alpha=0\n",
                  "CorpusSpec: alpha must be finite and > 0, got 0"),
            _case(22, "bench", [], "corpus_alpha=nan\n",
                  "CorpusSpec: alpha must be finite and > 0, got nan"),
            _case(23, "train", [], "corpus_context_mix=2\n",
                  "CorpusSpec: context_mix must be in [0, 1], got 2"),
            _case(24, "bench", [], "corpus_order=0\n", "CorpusSpec: order must be >= 1, got 0"),
            _case(25, "ablate", [], "corpus_vocab=1\n", "CorpusSpec: vocab must be >= 2, got 1"),
            _case(26, "train", [], "corpus_seq_len=0\n", "CorpusSpec: seq_len must be >= 1, got 0"),
            _case(27, "train", [], "corpus_n_sequences=0\n",
                  "CorpusSpec: n_sequences must be >= 1, got 0"),
            _case(28, "bench", ["--seed", "-1"], "", "RunConfig: seed must be >= 0, got -1"),
            _case(29, "ablate", [], "ablation_seeds=0,-2\n",
                  "AblationConfig: seeds must be >= 0, got -2"),
            _case(30, "ablate", [], "prompt_len=24\n", "prompt_len 24 must be < corpus_seq_len 24"),
            _case(31, "ablate", ["--topology", "bushy"], "",
                  "'bushy' is neither a preset nor an existing file"),
            _case(32, "ablate", [], "K=3\n",
                  "topology 'searched' has depth 4; the drafter has K=3 heads"),
            _case(33, "selfcheck", ["--seed", "-1"], "", "RunConfig: seed must be >= 0, got -1"),
            _case(34, "train", [], "adaptation=one_layer\n", "unknown key(s) adaptation;"),
            _case(35, "ablate", [], "use_sampled_token=false\n",
                  "unknown key(s) use_sampled_token;"),
            _case(36, "bench", [], "use_auto_embedding=false\n",
                  "unknown key(s) use_auto_embedding;"),
            _case(37, "train", [], "use_positional_encoding=false\n",
                  "unknown key(s) use_positional_encoding;"),
            _case(38, "bench", ["--topology", "bushy"], "",
                  "'bushy' is neither a preset nor an existing file"),
            _case(39, "generate", [], "K=3\n",
                  "topology 'searched' has depth 4; the drafter has K=3 heads"),
            _case(40, "bench", ["--max-new-tokens", "300"], "",
                  "prompt_len 8 + max_new_tokens 300 exceeds the context window of 256 tokens"),
            _case(41, "ablate", [], "max_new_tokens=250\n",
                  "prompt_len 8 + max_new_tokens 250 exceeds the context window of 256 tokens"),
            _case(42, "tree-search", [], "max_new_tokens=246\n",
                  "prompt_len 8 + max_new_tokens 246 + K 4 exceeds the context window"),
            _case(43, "generate", ["--prompt", "x" * 250, "--max-new-tokens", "8"], "",
                  "prompt 250 + max_new_tokens 8 exceeds the context window of 256 tokens"),
            _case(44, "generate", ["--prompt", ""], "", "--prompt is empty"),
        ],
    )
    def test_rejected_config_value_before_building(
        self, tiny_cfg, tmp_path, capsys, monkeypatch, command, flags, extra_cfg, named
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work began before the config was checked")

        monkeypatch.setattr(cli, "_build_system", unreachable)
        monkeypatch.setattr(cli, "run_ablation_suite", unreachable)
        monkeypatch.setattr(cli, "train_system", unreachable)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + extra_cfg)
        argv = [command, "--config", str(cfg), *flags]
        if command != "selfcheck":  # the one command without --out
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert named in self._one_line(capsys)
        assert not (tmp_path / "out").exists()
