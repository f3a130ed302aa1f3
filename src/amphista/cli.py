"""Command-line interface.

Subcommands: train, generate, bench, tree-search, ablate, head-acc, selfcheck.
All outputs except the ``*_timing.csv`` sidecars and the tree that
tree-search picks by measured cost are byte-determined by (config, seed); the
process exits nonzero when a hard invariant (greedy losslessness,
determinism) is violated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    CALIBRATION_PROMPTS,
    CALIBRATION_STREAM,
    AblationConfig,
    LosslessnessError,
    RunConfig,
    ablation_direction,
    build_drafter,
    build_model,
    pass_tokens_per_sec,
    run_ablation_suite,
    run_prompt_set,
    selfcheck,
    train_system,
    tree_search,
    write_ablation_csv,
    write_ablation_timing_csv,
    write_event_log,
    write_head_accuracy_csv,
    write_metrics_csv,
    write_timing_csv,
    write_tree_search_csv,
    write_tree_search_timing_csv,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .configfile import ConfigError, coerce_dataclass, dump_config, file_keys, load_config
from .corpus import CorpusSpec, detokenize, make_corpus, make_prompts, tokenize
from .drafter import TOP_K, VARIANTS, DrafterConfig, variant_config
from .model import ModelConfig
from .engine import EngineError, check_budget
from .speculation import TopologyError, check_choices, format_topology, resolve_topology
from .tensor import DimensionError
from .training import TrainConfig, split_corpus


# The config classes that read keys, by key prefix.
_CONFIG_SECTIONS = (
    ("", ModelConfig),
    ("", DrafterConfig),
    ("", TrainConfig),
    ("corpus_", CorpusSpec),
    ("", RunConfig),
    ("ablation_", AblationConfig),
)


def _load_raw(path: str | None) -> dict[str, str]:
    """The file's key=value pairs; a key that no config reads is an error."""
    raw = load_config(path) if path else {}
    known = {key for prefix, cls in _CONFIG_SECTIONS for key in file_keys(cls, prefix)}
    stray = sorted(set(raw) - known)
    if stray:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(stray)}; no config reads them")
    return raw


def _build_configs(args):
    raw = _load_raw(args.config)
    model_cfg = coerce_dataclass(ModelConfig, raw)
    drafter_cfg = coerce_dataclass(DrafterConfig, raw)
    train_cfg = coerce_dataclass(TrainConfig, raw, seed=args.seed)
    corpus_spec = coerce_dataclass(CorpusSpec, raw, prefix="corpus_")
    run_cfg = coerce_dataclass(
        RunConfig,
        raw,
        seed=args.seed,
        # a command without the flag keeps the config's value
        mode=getattr(args, "mode", None),
        temperature=getattr(args, "temperature", None),
        topology=getattr(args, "topology", None),
        max_new_tokens=getattr(args, "max_new_tokens", None),
    )
    return raw, model_cfg, drafter_cfg, train_cfg, corpus_spec, run_cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_prompt_len(run_cfg: RunConfig, corpus_spec: CorpusSpec) -> None:
    if run_cfg.prompt_len >= corpus_spec.seq_len:
        raise ConfigError(
            f"prompt_len {run_cfg.prompt_len} must be < corpus_seq_len {corpus_spec.seq_len}: "
            "the drafter trains on each corpus sequence continued after its prompt"
        )


# Modes that decode without a drafter.
_NO_DRAFTER = ("ar", "oracle")


def _check_topology(run_cfg, model_cfg, drafter_cfg) -> None:
    """Reject the run's tree before any work: it must resolve, a drafter
    variant's must be K deep, and each choice index must fall in its head's
    top-k list. ``ar`` and ``vanilla_chain`` do not decode on it."""
    if run_cfg.mode in ("ar", "vanilla_chain"):
        return
    topology = resolve_topology(run_cfg.topology)
    if run_cfg.mode in VARIANTS and topology.depth_max != drafter_cfg.K:
        raise TopologyError(
            f"topology {run_cfg.topology!r} has depth {topology.depth_max}; "
            f"the drafter has K={drafter_cfg.K} heads"
        )
    try:
        check_choices(topology, min(TOP_K, model_cfg.vocab_size))
    except TopologyError as err:
        raise TopologyError(f"topology {run_cfg.topology!r}: {err}") from None


def _variant_for_mode(mode: str, base: DrafterConfig) -> DrafterConfig:
    return variant_config("amphista" if mode in (*_NO_DRAFTER, "vanilla_chain") else mode, base)


def _build_system(args, model_cfg, drafter_cfg, run_cfg):
    """The f64 target and the drafter that ``--mode`` decodes with; ``ar`` and
    ``oracle`` decode without one, so they get None and load only the
    checkpoint's ``target.`` keys."""
    model = build_model(model_cfg, run_cfg.seed)
    model.freeze()
    drafter = None
    if run_cfg.mode not in _NO_DRAFTER:
        drafter = build_drafter(_variant_for_mode(run_cfg.mode, drafter_cfg), model, run_cfg.seed)
    if args.ckpt:
        state = load_checkpoint(args.ckpt)
        keys = set(state)
        known = {name for name, _ in model.named_parameters("target.")}
        if drafter is None:
            keys = {k for k in keys if not k.startswith("drafter.")}
        else:
            known |= {name for name, _ in drafter.named_parameters("drafter.")}
        stray, missing = sorted(keys - known), sorted(known - keys)
        if stray or missing:
            what = (
                f"a --mode {run_cfg.mode} system has no parameter(s) {', '.join(stray)}"
                if stray
                else f"it lacks the --mode {run_cfg.mode} parameter(s) {', '.join(missing)}"
            )
            raise CheckpointError(
                f"{args.ckpt}: {what}; was the checkpoint trained for another mode?"
            )
        try:
            model.load_state_dict(state, prefix="target.")
            if drafter is not None:
                drafter.load_state_dict(state, prefix="drafter.")
        except DimensionError as err:
            raise CheckpointError(
                f"{args.ckpt}: {err}; was the checkpoint trained with another config?"
            ) from err
    return model, drafter


def cmd_train(args) -> int:
    _, model_cfg, drafter_cfg, train_cfg, corpus_spec, run_cfg = _build_configs(args)
    _check_prompt_len(run_cfg, corpus_spec)
    out = _outdir(args)
    drafter_cfg = _variant_for_mode(run_cfg.mode, drafter_cfg)
    seed = train_cfg.seed

    corpus = make_corpus(corpus_spec, seed)
    model, drafter, report, target_report = train_system(
        model_cfg, drafter_cfg, train_cfg, corpus, seed, prompt_len=run_cfg.prompt_len
    )

    state = model.state_dict(prefix="target.")
    state.update(drafter.state_dict(prefix="drafter."))
    save_checkpoint(out / "checkpoint.bin", state)
    report.to_csv(out / "train_report.csv")
    # every key train reads (run_cfg for prompt_len and mode), so the file reruns it
    dump_config(
        [
            ("", model_cfg),
            ("", drafter_cfg),
            ("", train_cfg),
            ("corpus_", corpus_spec),
            ("", run_cfg),
        ],
        out / "config_used.cfg",
    )

    final = report.final
    print(f"target pretraining loss: {target_report.losses[-1]:.4f}")
    print(
        f"drafter epochs={train_cfg.epochs} final total loss {final.total_loss:.4f} "
        f"(alignment {final.alignment_loss:.4f}, lm {final.lm_loss:.4f})"
    )
    print("head top-1 accuracy:", " ".join(f"{a:.3f}" for a in final.head_top1))
    if not report.head_accuracy_monotone:
        print("note: head accuracy is not monotone in head index on this run")
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'train_report.csv'}")
    return 0


def cmd_generate(args) -> int:
    _, model_cfg, drafter_cfg, _, corpus_spec, run_cfg = _build_configs(args)
    _check_topology(run_cfg, model_cfg, drafter_cfg)
    if args.prompt is not None:
        prompt = tokenize(args.prompt)
        if not prompt:
            raise ConfigError("--prompt is empty")
    else:
        prompt = make_prompts(corpus_spec, run_cfg.seed, 1, run_cfg.prompt_len)[0]
    check_budget(model_cfg, ("prompt", len(prompt)), ("max_new_tokens", run_cfg.max_new_tokens))
    model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
    out = _outdir(args)

    report, results = run_prompt_set(model, drafter, run_cfg, [prompt])
    write_event_log(out / "events.log", run_cfg, results)
    write_metrics_csv(out / "generate.csv", [report])
    text = detokenize(results[0].tokens).decode("utf-8", errors="backslashreplace")
    print(f"prompt tokens: {len(prompt)}  new tokens: {len(results[0].tokens)}")
    if report.total_steps:
        print(f"tokens/step: {report.tokens_per_step:.3f}  (mode={run_cfg.mode})")
    else:
        print(f"tokens/step: n/a, the prefill emitted every token  (mode={run_cfg.mode})")
    print("output:", text)
    return 0


def cmd_bench(args) -> int:
    _, model_cfg, drafter_cfg, _, corpus_spec, run_cfg = _build_configs(args)
    _check_topology(run_cfg, model_cfg, drafter_cfg)
    check_budget(
        model_cfg, ("prompt_len", run_cfg.prompt_len), ("max_new_tokens", run_cfg.max_new_tokens)
    )
    model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
    out = _outdir(args)
    prompts = make_prompts(corpus_spec, run_cfg.seed, run_cfg.n_prompts, run_cfg.prompt_len)

    ar_run = replace(run_cfg, mode="ar")
    ar_report, ar_results = run_prompt_set(model, None, ar_run, prompts)
    report, results = run_prompt_set(model, drafter, run_cfg, prompts, ar_refs=ar_results)

    ar_rate, rate = pass_tokens_per_sec(ar_results), pass_tokens_per_sec(results)
    ar_report.tokens_per_sec = ar_report.ar_tokens_per_sec = ar_rate
    ar_report.speedup_vs_ar = 1.0
    report.tokens_per_sec, report.ar_tokens_per_sec = rate, ar_rate
    report.speedup_vs_ar = rate / ar_rate

    write_metrics_csv(out / "bench.csv", [ar_report, report])
    write_timing_csv(out / "bench_timing.csv", [ar_report, report])
    write_event_log(out / "events_ar.log", ar_run, ar_results)
    write_event_log(out / f"events_{run_cfg.mode}.log", run_cfg, results)
    print(
        f"ar: 1.000 tokens/step | {run_cfg.mode}: {report.tokens_per_step:.3f} tokens/step, "
        f"speed-up x{report.speedup_vs_ar:.2f} (lossless={report.lossless})"
    )
    print(f"wrote {out / 'bench.csv'} (+ timing sidecar, event logs)")
    return 0


def cmd_tree_search(args) -> int:
    _, model_cfg, drafter_cfg, _, corpus_spec, run_cfg = _build_configs(args)
    if run_cfg.mode not in VARIANTS:
        raise ConfigError(f"tree-search calibrates a drafter variant, not --mode {run_cfg.mode}")
    if run_cfg.temperature != 0:
        raise ConfigError(
            f"tree-search calibrates greedily, not at --temperature {run_cfg.temperature:g}"
        )
    _check_topology(run_cfg, model_cfg, drafter_cfg)
    # calibration decodes each prompt's AR reference to max_new_tokens + K
    check_budget(
        model_cfg,
        ("prompt_len", run_cfg.prompt_len),
        ("max_new_tokens", run_cfg.max_new_tokens),
        ("K", drafter_cfg.K),
    )
    model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
    out = _outdir(args)
    prompts = make_prompts(
        corpus_spec, run_cfg.seed, CALIBRATION_PROMPTS, run_cfg.prompt_len, CALIBRATION_STREAM
    )
    result = tree_search(model, drafter, run_cfg, prompts)
    (out / "topology.txt").write_text(format_topology(result.chosen.topology))
    write_tree_search_csv(out / "tree_search.csv", result.candidates)
    write_tree_search_timing_csv(out / "tree_search_timing.csv", result)
    cost, chosen = result.cost, result.chosen
    n = chosen.topology.node_count
    print(
        f"calibration: {len(result.calibration.rank_vectors)} rounds with {run_cfg.topology}, "
        f"{result.calibration.tokens_per_step:.3f} tokens/step"
    )
    timed = ", ".join(f"{size}: {1e3 * t:.3f}" for size, t in cost.tree_s.items())
    print(f"cost: draft {1e3 * cost.draft_s:.3f} ms; tree round ms by nodes {timed}")
    print(
        f"chosen: {n} nodes, {chosen.tokens_per_step:.3f} tokens/step predicted, "
        f"{chosen.tokens_per_step / cost.seconds(n):.0f} tokens/s predicted"
    )
    print(f"wrote {out / 'topology.txt'} and {out / 'tree_search.csv'} (+ timing sidecar)")
    return 0


def cmd_ablate(args) -> int:
    raw, model_cfg, drafter_cfg, train_cfg, corpus_spec, run_cfg = _build_configs(args)
    seeds = coerce_dataclass(AblationConfig, raw, prefix="ablation_").seeds
    _check_prompt_len(run_cfg, corpus_spec)
    # every variant decodes on the run's tree, whatever its mode
    _check_topology(replace(run_cfg, mode="amphista"), model_cfg, drafter_cfg)
    check_budget(
        model_cfg, ("prompt_len", run_cfg.prompt_len), ("max_new_tokens", run_cfg.max_new_tokens)
    )
    out = _outdir(args)
    if args.seed is not None:
        seeds = tuple(args.seed + i for i in range(len(seeds)))
    rows = run_ablation_suite(model_cfg, drafter_cfg, train_cfg, corpus_spec, run_cfg, seeds)
    write_ablation_csv(out / "ablation.csv", rows)
    write_ablation_timing_csv(out / "ablation_timing.csv", rows)
    ok, per_seed = ablation_direction(rows)
    print(f"ablation over seeds {seeds}: ranked by mean tokens/step")
    for rank, row in enumerate(rows, 1):
        print(f"  {rank}. {row.variant:22s} {row.mean_tokens_per_step:.3f}")
    verdict = "PASS" if ok else "WARN"
    print(f"direction check (full >= w/o auto-embedding, full >= medusa): {verdict} {per_seed}")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_head_acc(args) -> int:
    _, model_cfg, drafter_cfg, _, corpus_spec, run_cfg = _build_configs(args)
    if run_cfg.mode in _NO_DRAFTER:
        raise ConfigError(f"head-acc measures a drafter, and --mode {run_cfg.mode} has none")
    model, drafter = _build_system(args, model_cfg, drafter_cfg, run_cfg)
    out = _outdir(args)
    # the held-out split that drafter training evaluates on
    held_out = split_corpus(make_corpus(corpus_spec, run_cfg.seed).sequences)[1]
    tables = write_head_accuracy_csv(
        out / "head_accuracy.csv", model, drafter, held_out, run_cfg.prompt_len
    )
    for k in range(len(tables[0])):
        print(
            f"  head {k + 1}: top-1 {tables[0][k]:.3f}  top-5 {tables[1][k]:.3f}  "
            f"greedy top-1 {tables[2][k]:.3f}"
        )
    print(f"wrote {out / 'head_accuracy.csv'}")
    return 0


def cmd_selfcheck(args) -> int:
    checks = selfcheck(seed=_build_configs(args)[-1].seed)
    failed = False
    for name, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


# Every flag, defined once: its add_argument keywords.
_FLAGS = {
    "--config": dict(help="key=value config file"),
    "--seed": dict(type=int, help="master seed (overrides config)"),
    "--out": dict(default="runs/out", help="output directory"),
    "--mode": dict(help="ar | amphista | variant name | vanilla_chain | oracle"),
    "--temperature": dict(type=float),
    "--topology": dict(help="preset name or topology file"),
    "--ckpt": dict(help="checkpoint from `train`"),
    "--prompt": dict(help="prompt text (default: synthetic)"),
    "--max-new-tokens": dict(type=int),
}

# Each subcommand: its handler, its help line and the flags it reads.
_DECODE = "--config --seed --out --mode --temperature --topology --ckpt"
_COMMANDS = {
    "train": (cmd_train, "pretrain the target, then train the drafter",
              "--config --seed --out --mode"),
    "generate": (cmd_generate, "decode one prompt and report metrics",
                 f"{_DECODE} --prompt --max-new-tokens"),
    "bench": (cmd_bench, "AR vs speculative decoding on a prompt set",
              f"{_DECODE} --max-new-tokens"),
    "tree-search": (cmd_tree_search, "build the draft tree of most tokens per second", _DECODE),
    "ablate": (cmd_ablate, "train and compare the ablation variants",
               "--config --seed --out --temperature --topology"),
    "head-acc": (cmd_head_acc, "per-head top-1/top-5 and greedy top-1 accuracy table",
                 "--config --seed --out --mode --ckpt"),
    "selfcheck": (cmd_selfcheck, "run the hard-invariant checks", "--config --seed"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amphista", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LosslessnessError as err:
        print(f"LOSSLESSNESS VIOLATION: {err}", file=sys.stderr)
        return 1
    except (ConfigError, CheckpointError, EngineError, TopologyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
