"""End-to-end harness: builds systems, runs AR vs speculative decoding,
aggregates throughput metrics, and drives the ablation matrix and the
tree-size sweep.

Reports are split deliberately: the main CSVs and event logs contain only
seed-determined values (byte-identical across reruns); wall-clock numbers
(tokens/s, speed-up) go to ``*_timing.csv`` sidecars, which are excluded from
the determinism contract.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .corpus import CorpusSpec, make_corpus, make_prompts
from .drafter import VARIANT_NAMES, Drafter, DrafterConfig, variant_config
from .engine import (
    DrafterSession,
    GenerationResult,
    OracleDrafterSession,
    ar_generate,
    speculative_generate,
)
from .model import ModelConfig, TargetModel
from .speculation import (
    NODE_BUDGET_PRESETS,
    TreeTopology,
    preset_topology,
    resolve_topology,
)
from .training import TrainConfig, measure_head_accuracy, train, train_target

# Accepted-length figures reported for these variants at full scale
# (7B target, MT-Bench); carried in the ablation CSV for orientation only.
FULLSCALE_REF_ACCEPTED_LEN = {
    "medusa": 2.52,
    "no-auto-embedding": 3.16,
    "no-position-encoding": 3.47,
    "no-staged-adaptation": 2.91,
    "one-adaptation-layer": 3.36,
    "no-sampled-token": 3.11,
    "amphista": 3.50,
}

SPECULATIVE_MODES = ("oracle", "vanilla_chain", *VARIANT_NAMES)


class LosslessnessError(RuntimeError):
    """A greedy speculative run diverged from autoregressive decoding."""


@dataclass
class RunConfig:
    mode: str = "amphista"
    temperature: float = 0.0
    topology: str = "cart45"
    max_new_tokens: int = 64
    n_prompts: int = 8
    prompt_len: int = 12
    seed: int = 0
    timing_reps: int = 3
    epsilon: float = 0.09
    delta: float = 0.3

    def __post_init__(self):
        if self.mode != "ar" and self.mode not in SPECULATIVE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected 'ar' or one of {SPECULATIVE_MODES}"
            )


@dataclass
class MetricsReport:
    mode: str
    seed: int
    temperature: float
    topology: str
    n_prompts: int
    total_steps: int
    total_tokens: int
    tokens_per_step: float
    lossless: bool | None = None
    tokens_per_sec: float = 0.0
    ar_tokens_per_sec: float = 0.0
    speedup_vs_ar: float = 0.0
    head_top1: list[float] = field(default_factory=list)
    head_top5: list[float] = field(default_factory=list)


def build_model(config: ModelConfig, seed: int) -> TargetModel:
    return TargetModel(config, np.random.default_rng(np.random.SeedSequence([seed, 10])))


def build_drafter(config: DrafterConfig, model: TargetModel, seed: int) -> Drafter:
    return Drafter(config, model, np.random.default_rng(np.random.SeedSequence([seed, 11])))


def promoted_copy(model32: TargetModel, config: ModelConfig, seed: int) -> TargetModel:
    """f64 evaluation twin of an f32-trained target (exact weight embedding)."""
    model = build_model(config, seed)
    model.load_state_dict(model32.state_dict())
    model.freeze()
    return model


def train_system(
    model_config: ModelConfig,
    drafter_config: DrafterConfig,
    train_config: TrainConfig,
    corpus,
    seed: int,
    target_epochs: int = 8,
):
    """Pretrain the target and train the drafter in f32, then promote both to
    f64 for the decoding engine (training speed without giving up the exact
    greedy-losslessness contract at evaluation time)."""
    with T.dtype_context(np.float32):
        model32 = build_model(model_config, seed)
        target_report = train_target(
            corpus, model32, replace(train_config, epochs=target_epochs, seed=seed)
        )
        model32.freeze()
        drafter = build_drafter(drafter_config, model32, seed)
        report = train(corpus, model32, drafter, replace(train_config, seed=seed))
    model = promoted_copy(model32, model_config, seed)
    drafter.promote_to(np.float64)
    drafter.attach_token_embedding(model.token_emb)
    return model, drafter, report, target_report


def _prompt_rng(seed: int, prompt_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 3, prompt_index, salt]))


def run_prompt(
    model: TargetModel,
    drafter: Drafter | None,
    run: RunConfig,
    prompt: list[int],
    prompt_index: int = 0,
) -> GenerationResult:
    """Dispatch one prompt through the configured decoding mode."""
    if run.mode == "ar":
        return ar_generate(
            model,
            prompt,
            run.max_new_tokens,
            run.temperature,
            _prompt_rng(run.seed, prompt_index, 0),
        )
    rng = _prompt_rng(run.seed, prompt_index, 1)
    if run.mode == "oracle":
        session = OracleDrafterSession(model, k=4)
        topology = resolve_topology(run.topology)
        rule = "greedy" if run.temperature == 0 else "typical"
    elif run.mode == "vanilla_chain":
        if drafter is None:
            raise ValueError("vanilla_chain mode needs a drafter")
        session = DrafterSession(drafter)
        if run.temperature == 0:
            topology, rule = preset_topology("chain"), "greedy"
        else:
            topology, rule = None, "chain"
    else:
        if drafter is None:
            raise ValueError(f"mode {run.mode!r} needs a drafter")
        session = DrafterSession(drafter)
        topology = resolve_topology(run.topology)
        rule = "greedy" if run.temperature == 0 else "typical"
    return speculative_generate(
        model,
        session,
        prompt,
        topology,
        run.max_new_tokens,
        rule=rule,
        temperature=run.temperature,
        rng=rng,
        epsilon=run.epsilon,
        delta=run.delta,
    )


def run_prompt_set(
    model: TargetModel,
    drafter: Drafter | None,
    run: RunConfig,
    prompts: list[list[int]],
    check_lossless: bool = True,
    ar_refs: list[GenerationResult] | None = None,
) -> tuple[MetricsReport, list[GenerationResult]]:
    """Evaluate a prompt set; greedy speculative runs carry a losslessness flag
    computed against a matching AR run (hard failure when it trips). Pass
    precomputed ``ar_refs`` to share the AR baseline across many evaluations."""
    results = []
    lossless: bool | None = None
    for i, prompt in enumerate(prompts):
        res = run_prompt(model, drafter, run, prompt, prompt_index=i)
        if run.mode != "ar" and run.temperature == 0 and check_lossless:
            ref = (
                ar_refs[i]
                if ar_refs is not None
                else ar_generate(model, prompt, run.max_new_tokens, 0.0, None)
            )
            ok = ref.tokens == res.tokens
            res.lossless = ok
            lossless = ok if lossless is None else (lossless and ok)
            if not ok:
                raise LosslessnessError(
                    f"greedy {run.mode} run diverged from AR decoding on prompt {i}"
                )
        results.append(res)
    total_steps = sum(r.steps for r in results)
    total_tokens = sum(e.accepted_len + 1 for r in results for e in r.events)
    report = MetricsReport(
        mode=run.mode,
        seed=run.seed,
        temperature=run.temperature,
        topology="-" if run.mode == "ar" else ("chain" if run.mode == "vanilla_chain" else run.topology),
        n_prompts=len(prompts),
        total_steps=total_steps,
        total_tokens=total_tokens,
        tokens_per_step=total_tokens / total_steps if total_steps else 0.0,
        lossless=lossless,
    )
    return report, results


def timed_tokens_per_sec(
    model: TargetModel,
    drafter: Drafter | None,
    run: RunConfig,
    prompts: list[list[int]],
    reps: int = 3,
) -> float:
    """Median-of-reps throughput over the prompt set (wall clock, not contract)."""
    rates = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        emitted = 0
        for i, prompt in enumerate(prompts):
            res = run_prompt(model, drafter, run, prompt, prompt_index=i)
            emitted += res.emitted_raw
        rates.append(emitted / (time.perf_counter() - start))
    return statistics.median(rates)


def pass_tokens_per_sec(results: list[GenerationResult]) -> float:
    """Throughput observed during an already-run measurement pass."""
    wall = sum(r.wall_time for r in results)
    return sum(r.emitted_raw for r in results) / wall if wall > 0 else 0.0


# -- event log ------------------------------------------------------------------


def write_event_log(path: str | Path, run: RunConfig, results: list[GenerationResult]) -> None:
    lines = [
        "# one line per target forward pass (prefill excluded)",
        f"# mode={run.mode} seed={run.seed} temperature={run.temperature:g} "
        f"topology={run.topology} max_new_tokens={run.max_new_tokens}",
    ]
    for i, res in enumerate(results):
        lines.append(f"# prompt {i} len={res.prompt_len}")
        lines.extend(e.line() for e in res.events)
    Path(path).write_text("\n".join(lines) + "\n")


def recompute_tokens_per_step(path: str | Path) -> float:
    """Recompute the throughput metric from a raw event log."""
    steps = 0
    emitted = 0
    for line in Path(path).read_text().splitlines():
        if not line.startswith("step="):
            continue
        fields = dict(part.split("=", 1) for part in line.split())
        steps += 1
        emitted += int(fields["accepted_len"]) + 1
    return emitted / steps if steps else 0.0


# -- tree-attention verification -----------------------------------------------------


def tree_attention_max_diff(
    model: TargetModel,
    prompt: list[int],
    topology: TreeTopology,
    rng: np.random.Generator,
) -> float:
    """Max |tree-masked logits - sequential path re-decode| over all nodes."""
    tokens = rng.integers(0, model.config.vocab_size, size=topology.node_count)
    cache = model.new_cache()
    model.forward(prompt, cache)
    base = cache.length
    tout = model.forward(
        tokens, cache, mask=topology.mask, positions=base + np.asarray(topology.depth)
    )
    worst = 0.0
    for node in range(topology.node_count):
        path = []
        j = node
        while j >= 0:
            path.append(j)
            j = topology.parent[j]
        path.reverse()
        cache.truncate(base)
        out = model.forward([int(tokens[i]) for i in path], cache)
        diff = np.abs(out.logits.data[-1] - tout.logits.data[node]).max()
        worst = max(worst, float(diff))
    return worst


# -- ablation matrix -------------------------------------------------------------------


@dataclass
class AblationConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    n_eval_prompts: int = 50
    prompt_len: int = 12
    max_new_tokens: int = 24
    topology: str = "cart45"
    target_epochs: int = 8


@dataclass
class AblationRow:
    variant: str
    tokens_per_step: dict[int, float]  # per seed
    speedup: dict[int, float]

    @property
    def mean_tokens_per_step(self) -> float:
        return sum(self.tokens_per_step.values()) / len(self.tokens_per_step)


def run_ablation_suite(
    model_config: ModelConfig,
    drafter_config: DrafterConfig,
    train_config: TrainConfig,
    corpus_spec: CorpusSpec,
    ablation: AblationConfig,
) -> list[AblationRow]:
    """Train every variant under an identical budget per seed and compare
    accepted length. The target model is trained once per seed and shared by
    all variants; the AR baseline (losslessness reference and timing anchor)
    is likewise computed once per seed."""
    rows = {name: AblationRow(name, {}, {}) for name in VARIANT_NAMES}
    for seed in ablation.seeds:
        corpus = make_corpus(corpus_spec, seed)
        prompts = make_prompts(corpus_spec, seed, ablation.n_eval_prompts, ablation.prompt_len)
        with T.dtype_context(np.float32):
            model32 = build_model(model_config, seed)
            train_target(
                corpus, model32, replace(train_config, epochs=ablation.target_epochs, seed=seed)
            )
            model32.freeze()
        model = promoted_copy(model32, model_config, seed)

        run_ar = RunConfig(mode="ar", max_new_tokens=ablation.max_new_tokens, seed=seed)
        _, ar_results = run_prompt_set(model, None, run_ar, prompts)
        ar_rate = pass_tokens_per_sec(ar_results)

        for name in VARIANT_NAMES:
            with T.dtype_context(np.float32):
                drafter = build_drafter(variant_config(name, drafter_config), model32, seed)
                train(corpus, model32, drafter, replace(train_config, seed=seed))
            drafter.promote_to(np.float64)
            drafter.attach_token_embedding(model.token_emb)
            run = RunConfig(
                mode=name,
                topology=ablation.topology,
                max_new_tokens=ablation.max_new_tokens,
                seed=seed,
            )
            report, results = run_prompt_set(model, drafter, run, prompts, ar_refs=ar_results)
            rows[name].tokens_per_step[seed] = report.tokens_per_step
            rows[name].speedup[seed] = pass_tokens_per_sec(results) / ar_rate
    return sorted(rows.values(), key=lambda r: -r.mean_tokens_per_step)


def ablation_direction(rows: list[AblationRow]) -> tuple[bool, list[bool]]:
    """Per-seed check that full >= w/o-auto-embedding and full >= medusa;
    overall pass requires a seed majority."""
    by_name = {r.variant: r for r in rows}
    seeds = sorted(by_name["amphista"].tokens_per_step)
    per_seed = [
        by_name["amphista"].tokens_per_step[s] >= by_name["no-auto-embedding"].tokens_per_step[s]
        and by_name["amphista"].tokens_per_step[s] >= by_name["medusa"].tokens_per_step[s]
        for s in seeds
    ]
    return sum(per_seed) * 2 > len(per_seed), per_seed


def write_ablation_csv(path: str | Path, rows: list[AblationRow]) -> None:
    seeds = sorted(rows[0].tokens_per_step) if rows else []
    header = ["rank", "variant", "mean_tokens_per_step"]
    header += [f"tokens_per_step_seed{s}" for s in seeds]
    header += ["fullscale_ref_accepted_len"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for rank, row in enumerate(rows, 1):
            out = [rank, row.variant, f"{row.mean_tokens_per_step:.6f}"]
            out += [f"{row.tokens_per_step[s]:.6f}" for s in seeds]
            out += [f"{FULLSCALE_REF_ACCEPTED_LEN[row.variant]:.2f}"]
            w.writerow(out)


def write_ablation_timing_csv(path: str | Path, rows: list[AblationRow]) -> None:
    seeds = sorted(rows[0].speedup) if rows else []
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant"] + [f"speedup_seed{s}" for s in seeds])
        for row in rows:
            w.writerow([row.variant] + [f"{row.speedup[s]:.3f}" for s in seeds])


# -- node-count sweep ---------------------------------------------------------------------


@dataclass
class NodeSweepRow:
    budget: int
    nodes: int
    tokens_per_step: float
    speedup: float


def node_sweep(
    model: TargetModel,
    drafter: Drafter,
    budgets: list[int],
    prompts: list[list[int]],
    max_new_tokens: int = 24,
    seed: int = 0,
) -> list[NodeSweepRow]:
    run_ar = RunConfig(mode="ar", max_new_tokens=max_new_tokens, seed=seed)
    _, ar_results = run_prompt_set(model, None, run_ar, prompts)
    ar_rate = pass_tokens_per_sec(ar_results)
    rows = []
    for budget in budgets:
        if budget not in NODE_BUDGET_PRESETS:
            raise ValueError(
                f"no topology preset for budget {budget}; have {sorted(NODE_BUDGET_PRESETS)}"
            )
        preset = NODE_BUDGET_PRESETS[budget]
        topology = preset_topology(preset)
        run = RunConfig(
            mode="amphista", topology=preset, max_new_tokens=max_new_tokens, seed=seed
        )
        report, results = run_prompt_set(model, drafter, run, prompts, ar_refs=ar_results)
        rows.append(
            NodeSweepRow(
                budget=budget,
                nodes=topology.node_count,
                tokens_per_step=report.tokens_per_step,
                speedup=pass_tokens_per_sec(results) / ar_rate,
            )
        )
    return rows


def write_node_sweep_csv(path: str | Path, rows: list[NodeSweepRow]) -> None:
    tps = [r.tokens_per_step for r in rows]
    monotone = all(a <= b + 1e-12 for a, b in zip(tps, tps[1:]))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["budget", "nodes", "tokens_per_step", "monotone_nondecreasing"])
        for r in rows:
            w.writerow([r.budget, r.nodes, f"{r.tokens_per_step:.6f}", monotone])


def write_node_sweep_timing_csv(path: str | Path, rows: list[NodeSweepRow]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["budget", "speedup_vs_ar"])
        for r in rows:
            w.writerow([r.budget, f"{r.speedup:.3f}"])


# -- head accuracy -------------------------------------------------------------------------


def write_head_accuracy_csv(
    path: str | Path, model: TargetModel, drafter: Drafter, sequences, top_ns=(1, 5)
) -> tuple[list[float], ...]:
    tables = measure_head_accuracy(sequences, model, drafter, top_ns=top_ns)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["head"] + [f"top{n}" for n in top_ns])
        for k in range(len(tables[0])):
            w.writerow([k + 1] + [f"{tables[ni][k]:.6f}" for ni in range(len(top_ns))])
    return tables


def write_metrics_csv(path: str | Path, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            [
                "mode",
                "seed",
                "temperature",
                "topology",
                "prompts",
                "total_steps",
                "total_tokens",
                "tokens_per_step",
                "lossless",
            ]
        )
        for r in reports:
            w.writerow(
                [
                    r.mode,
                    r.seed,
                    f"{r.temperature:g}",
                    r.topology,
                    r.n_prompts,
                    r.total_steps,
                    r.total_tokens,
                    f"{r.tokens_per_step:.6f}",
                    "" if r.lossless is None else str(r.lossless).lower(),
                ]
            )


def write_timing_csv(path: str | Path, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "seed", "tokens_per_sec", "ar_tokens_per_sec", "speedup_vs_ar"])
        for r in reports:
            w.writerow(
                [
                    r.mode,
                    r.seed,
                    f"{r.tokens_per_sec:.1f}",
                    f"{r.ar_tokens_per_sec:.1f}",
                    f"{r.speedup_vs_ar:.3f}",
                ]
            )


# -- selfcheck -------------------------------------------------------------------------------


def selfcheck(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Fast hard-invariant sweep: tree attention, losslessness, determinism."""
    checks = []
    config = ModelConfig(vocab_size=64, hidden_dim=32, n_layers=2, n_heads=2, ffn_dim=64, max_seq_len=256)
    model = build_model(config, seed)
    model.freeze()
    drafter = build_drafter(DrafterConfig(), model, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))

    worst = 0.0
    for _ in range(5):
        prompt = list(rng.integers(0, config.vocab_size, size=6))
        topo = preset_topology("sparse22")
        worst = max(worst, tree_attention_max_diff(model, prompt, topo, rng))
    checks.append(("tree_attention", worst <= 1e-5, f"max_abs_diff={worst:.2e}"))

    run = RunConfig(mode="amphista", topology="cart45", max_new_tokens=40, n_prompts=3, seed=seed)
    prompts = [list(rng.integers(0, config.vocab_size, size=8)) for _ in range(3)]
    try:
        report, results = run_prompt_set(model, drafter, run, prompts)
        checks.append(("greedy_losslessness", True, f"tokens_per_step={report.tokens_per_step:.3f}"))
    except LosslessnessError as err:
        checks.append(("greedy_losslessness", False, str(err)))
        return checks

    rerun_report, rerun_results = run_prompt_set(model, drafter, run, prompts)
    same = all(a.tokens == b.tokens for a, b in zip(results, rerun_results)) and [
        e.line() for r in results for e in r.events
    ] == [e.line() for r in rerun_results for e in r.events]
    checks.append(("determinism", same, "rerun tokens and events identical" if same else "mismatch"))
    return checks
