"""The benchmark's program: the trained ``configs/toy.cfg`` checkpoint, seed 0.

Training takes about a minute, so the checkpoint is trained once per source
tree, by ``amphista train``, and cached under ``perfbench/.cache``. The cache
key is a SHA-256 over every ``src/amphista/*.py``, the config text, the seed,
this file and the numpy version: a change to the training code never reuses a
stale checkpoint. Configs are read and the checkpoint is loaded with the
CLI's own helpers, so the benchmark builds the system exactly as
``amphista bench --ckpt`` does.

    python3 perfbench/fixture.py PATH    # train into PATH (src/ on PYTHONPATH)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from amphista import cli
from amphista.bench import RunConfig
from amphista.corpus import CorpusSpec
from amphista.drafter import DrafterConfig
from amphista.model import ModelConfig
from amphista.training import TrainConfig

FIXTURE_SEED = 0
CONFIG_NAME = "configs/toy.cfg"


def config_path(root: Path) -> Path:
    return root / CONFIG_NAME


def _cli_args(config: Path, **extra) -> argparse.Namespace:
    """The namespace ``amphista <cmd> --config CONFIG --seed 0`` parses to."""
    return argparse.Namespace(
        config=str(config), seed=FIXTURE_SEED, mode=None, temperature=None, topology=None, **extra
    )


@dataclass
class Configs:
    model: ModelConfig
    drafter: DrafterConfig  # as the file gives it; ``trained_drafter`` resolves the mode
    train: TrainConfig
    corpus: CorpusSpec
    run: RunConfig  # the file's run settings, seed FIXTURE_SEED

    @property
    def trained_drafter(self) -> DrafterConfig:
        """The drafter variant ``amphista train`` trains for the file's mode."""
        return cli._variant_for_mode(self.run.mode, self.drafter)


def load_configs(config: Path) -> Configs:
    _, model, drafter, train, corpus, run = cli._build_configs(_cli_args(config))
    return Configs(model=model, drafter=drafter, train=train, corpus=corpus, run=run)


def cache_key(root: Path) -> str:
    """SHA-256 over everything that determines the trained weights."""
    h = hashlib.sha256()
    sources = sorted((root / "src" / "amphista").glob("*.py"))
    for path in [*sources, config_path(root), Path(__file__)]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(f"seed={FIXTURE_SEED} numpy={np.__version__}".encode())
    return h.hexdigest()


def checkpoint_path(root: Path) -> Path:
    return root / "perfbench" / ".cache" / f"toy-{cache_key(root)[:16]}.bin"


def train_checkpoint(root: Path, path: Path) -> None:
    """Run ``amphista train --config CONFIG --seed 0`` and keep its checkpoint
    at ``path``, replacing any checkpoint cached for an older source tree."""
    path.parent.mkdir(parents=True, exist_ok=True)
    out = path.parent / f"train-{os.getpid()}"
    try:
        argv = ["train", "--config", str(config_path(root)), "--seed", str(FIXTURE_SEED)]
        if cli.main([*argv, "--out", str(out)]) != 0:
            raise RuntimeError("amphista train failed")
        for stale in path.parent.glob("toy-*.bin"):
            stale.unlink()
        os.replace(out / "checkpoint.bin", path)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_system(cfg: Configs, ckpt: Path):
    """The f64 target and drafter with the fixture weights, built by the
    CLI's ``--ckpt`` path."""
    return cli._build_system(argparse.Namespace(ckpt=str(ckpt)), cfg.model, cfg.drafter, cfg.run)


if __name__ == "__main__":
    train_checkpoint(Path(__file__).resolve().parent.parent, Path(sys.argv[1]))
