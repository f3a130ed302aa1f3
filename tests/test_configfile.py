"""Config file parsing and dataclass binding."""

import argparse
from pathlib import Path

import pytest

from amphista.bench import AblationConfig
from amphista.cli import _CONFIG_SECTIONS, _build_configs
from amphista.configfile import ConfigError, coerce_dataclass, dump_config, file_keys, parse_config
from amphista.corpus import CorpusSpec
from amphista.drafter import DrafterConfig
from amphista.model import ModelConfig
from amphista.training import TrainConfig


def _cli_args(config) -> argparse.Namespace:
    """The namespace ``amphista <cmd> --config CONFIG`` parses to."""
    return argparse.Namespace(config=str(config), seed=None, mode=None, temperature=None, topology=None)


FULL_TEXT = """
# comment line
vocab_size=128
hidden_dim=32
n_layers=2
n_heads=2
ffn_dim=64
max_seq_len=128

K=4
lm_head_rank=16
sal_heads=2

epochs=2
lr=0.002
lambda2=0.5

corpus_vocab=16
corpus_seq_len=32

ablation_seeds=3,4
"""


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        raw = parse_config(FULL_TEXT)
        assert raw["vocab_size"] == "128"
        assert "comment" not in raw

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("this is not a config\n")


class TestCoercion:
    def test_all_field_kinds(self):
        raw = parse_config(FULL_TEXT)
        model = coerce_dataclass(ModelConfig, raw)
        assert (model.vocab_size, model.max_seq_len) == (128, 128)

        drafter = coerce_dataclass(DrafterConfig, raw)
        assert (drafter.K, drafter.sal_heads) == (4, 2)
        assert drafter.lm_head_rank == 16  # int|str union, numeric branch

        train = coerce_dataclass(TrainConfig, raw)
        assert (train.epochs, train.lr, train.lambda2) == (2, 0.002, 0.5)
        assert train.lambda1 == 1.0  # default preserved

        corpus = coerce_dataclass(CorpusSpec, raw, prefix="corpus_")
        assert (corpus.vocab, corpus.seq_len) == (16, 32)

        ablation = coerce_dataclass(AblationConfig, raw, prefix="ablation_")
        assert ablation.seeds == (3, 4)  # tuple of ints

    def test_lm_head_rank_full_string(self):
        drafter = coerce_dataclass(DrafterConfig, {"lm_head_rank": "full"})
        assert drafter.lm_head_rank == "full"

    def test_overrides_win(self):
        train = coerce_dataclass(TrainConfig, {"seed": "1"}, seed=9)
        assert train.seed == 9
        train = coerce_dataclass(TrainConfig, {"seed": "1"}, seed=None)
        assert train.seed == 1


class TestRoundTrip:
    def test_dump_then_reload(self, tmp_path):
        path = tmp_path / "cfg"
        dump_config(
            [("", ModelConfig()), ("", DrafterConfig()), ("", TrainConfig()), ("corpus_", CorpusSpec())],
            path,
        )
        raw = parse_config(path.read_text())
        assert coerce_dataclass(ModelConfig, raw) == ModelConfig()
        assert coerce_dataclass(DrafterConfig, raw) == DrafterConfig()
        assert coerce_dataclass(TrainConfig, raw) == TrainConfig()
        assert coerce_dataclass(CorpusSpec, raw, prefix="corpus_") == CorpusSpec()

    def test_shipped_configs_parse(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
        assert {p.name for p in paths} >= {"toy.cfg", "ablation.cfg"}
        for path in paths:  # through the CLI's key check: a retired or misspelled key fails
            _build_configs(_cli_args(path))

    def test_stray_key_is_named_before_any_work(self, tmp_path):
        # a typo, every key that became a constant, and the ablation copies of run keys
        stray = ["n_promts", "epsilon", "delta", "top_k_per_head", "norm_eps", "beta1", "beta2",
                 "weight_decay", "warmup_frac", "ablation_n_eval_prompts", "ablation_prompt_len",
                 "ablation_max_new_tokens", "ablation_topology"]
        path = tmp_path / "typo.cfg"
        lines = ["hidden_dim=32", "target_epochs=1", "corpus_vocab=16"] + [f"{k}=1" for k in stray]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="n_promts") as err:
            _build_configs(_cli_args(path))
        assert f"unknown key(s) {', '.join(sorted(stray))};" in str(err.value)
        assert "hidden_dim" not in str(err.value) and "target_epochs" not in str(err.value)

    def test_settable_keys_are_pinned(self):
        """The 34 keys a config file may set: a new knob shows up here as a diff."""
        keys = {key for prefix, cls in _CONFIG_SECTIONS for key in file_keys(cls, prefix)}
        assert sorted(keys) == [
            "K", "ablation_seeds", "batch_size", "corpus_alpha",
            "corpus_byte_offset", "corpus_context_mix", "corpus_kind", "corpus_n_sequences",
            "corpus_order", "corpus_seq_len", "corpus_text_path", "corpus_vocab",
            "encoder_layers", "epochs", "ffn_dim", "hidden_dim", "lambda1", "lambda2",
            "lm_head_rank", "lr", "max_new_tokens", "max_seq_len", "mode", "n_heads",
            "n_layers", "n_prompts", "prompt_len", "sal_ffn_dim", "sal_heads", "seed",
            "target_epochs", "temperature", "topology", "vocab_size",
        ]
