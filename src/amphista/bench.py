"""End-to-end harness: builds systems, runs AR vs speculative decoding,
aggregates throughput metrics, and drives the ablation matrix and the
cost-aware tree search.

Reports are split deliberately: the main CSVs and event logs contain only
seed-determined values (byte-identical across reruns); wall-clock numbers
(tokens/s, speed-up) go to ``*_timing.csv`` sidecars, which are excluded from
the determinism contract.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .configfile import check_positive
from .corpus import CorpusSpec, make_corpus, make_prompts
from .drafter import VARIANTS, Drafter, DrafterConfig, variant_config
from .engine import (
    DrafterSession,
    GenerationResult,
    OracleDrafterSession,
    ar_generate,
    speculative_generate,
)
from .model import ModelConfig, TargetModel
from .speculation import (
    TreeCandidate,
    TreeTopology,
    chain_topology,
    commit,
    expand_tree,
    greedy_trees,
    preset_topology,
    resolve_topology,
    search_topology,
    verify,
)
from .training import (
    TrainConfig,
    TrainingError,
    corpus_sequences,
    measure_greedy_top1,
    measure_head_accuracy,
    split_corpus,
    train,
    train_target,
)

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

SPECULATIVE_MODES = ("oracle", "vanilla_chain", *VARIANTS)


class LosslessnessError(RuntimeError):
    """A greedy speculative run diverged from autoregressive decoding."""


@dataclass
class RunConfig:
    mode: str = "amphista"
    temperature: float = 0.0
    topology: str = "searched"
    max_new_tokens: int = 64
    n_prompts: int = 8
    prompt_len: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.mode != "ar" and self.mode not in SPECULATIVE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected 'ar' or one of {SPECULATIVE_MODES}"
            )
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be >= 0 and finite, got {self.temperature:g}")
        check_positive(self, "n_prompts", "max_new_tokens", "prompt_len")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def build_model(config: ModelConfig, seed: int) -> TargetModel:
    return TargetModel(config, np.random.default_rng(np.random.SeedSequence([seed, 10])))


def build_drafter(config: DrafterConfig, model: TargetModel, seed: int) -> Drafter:
    return Drafter(config, model, np.random.default_rng(np.random.SeedSequence([seed, 11])))


def pretrain_target(model_config: ModelConfig, train_config: TrainConfig, corpus, seed: int):
    """Pretrain the target in f32 for ``train_config.target_epochs`` and return
    (f32 target, frozen; its f64 twin; report). Training runs in f32 for speed
    and decoding in f64 for the exact greedy-losslessness contract; drafters
    train against the f32 target."""
    with T.dtype_context(np.float32):
        model32 = build_model(model_config, seed)
        config = replace(train_config, epochs=train_config.target_epochs, seed=seed)
        report = train_target(corpus, model32, config)
        model32.freeze()
    model = build_model(model_config, seed)  # f32 -> f64 is exact
    model.load_state_dict(model32.state_dict())
    model.freeze()
    return model32, model, report


def train_drafter(
    drafter_config: DrafterConfig,
    train_config: TrainConfig,
    corpus,
    model32: TargetModel,
    model: TargetModel,
    seed: int,
):
    """Train a drafter in f32 on ``model32``, then load its weights into an
    f64 drafter on ``model``, the f64 twin; return (f64 drafter, report)."""
    with T.dtype_context(np.float32):
        drafter32 = build_drafter(drafter_config, model32, seed)
        report = train(corpus, model32, drafter32, replace(train_config, seed=seed))
    drafter = build_drafter(drafter_config, model, seed)
    drafter.load_state_dict(drafter32.state_dict())
    return drafter, report


def greedy_continuations(
    model: TargetModel, sequences: list[list[int]], prompt_len: int
) -> list[list[int]]:
    """Each sequence's first ``prompt_len`` tokens, continued by ``model``'s
    greedy decoding to the sequence's length: text as decoding meets it."""
    out = []
    for seq in sequences:
        if not 0 < prompt_len < len(seq):
            raise TrainingError(
                f"prompt_len {prompt_len} leaves nothing to continue in a "
                f"sequence of {len(seq)} tokens"
            )
        prompt = list(seq[:prompt_len])
        out.append(prompt + ar_generate(model, prompt, len(seq) - prompt_len).tokens)
    return out


def distill_corpus(model: TargetModel, corpus, prompt_len: int) -> list[list[int]]:
    """The drafter's training data (Medusa-2 self-distillation): the training
    split becomes ``greedy_continuations``, the text the heads are scored
    against when decoding. The held-out split, on which ``train`` evaluates,
    stays corpus text."""
    train_seqs, held_seqs = split_corpus(corpus_sequences(corpus))
    return greedy_continuations(model, train_seqs, prompt_len) + held_seqs


def train_system(
    model_config: ModelConfig,
    drafter_config: DrafterConfig,
    train_config: TrainConfig,
    corpus,
    seed: int,
    prompt_len: int,
):
    """Pretrain the target, then train the drafter on the target's own greedy
    continuations (``distill_corpus``); both come back in f64."""
    model32, model, target_report = pretrain_target(model_config, train_config, corpus, seed)
    drafter_corpus = distill_corpus(model, corpus, prompt_len)
    drafter, report = train_drafter(
        drafter_config, train_config, drafter_corpus, model32, model, seed
    )
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
        topology = resolve_topology(run.topology)
        session = OracleDrafterSession(model, k=topology.depth_max)
        rule = "greedy" if run.temperature == 0 else "typical"
    elif run.mode == "vanilla_chain":
        if drafter is None:
            raise ValueError("vanilla_chain mode needs a drafter")
        session = DrafterSession(drafter)
        topology = chain_topology(drafter.config.K)
        rule = "greedy" if run.temperature == 0 else "chain"
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
    )


def run_prompt_set(
    model: TargetModel,
    drafter: Drafter | None,
    run: RunConfig,
    prompts: list[list[int]],
    ar_refs: list[GenerationResult] | None = None,
) -> tuple[MetricsReport, list[GenerationResult]]:
    """Evaluate a prompt set. A greedy speculative run checks every prompt
    against a matching AR run (``LosslessnessError`` when one diverges), and
    its report then reads lossless. Pass precomputed ``ar_refs`` to share the
    AR baseline across many evaluations."""
    results = []
    checked = run.mode != "ar" and run.temperature == 0
    for i, prompt in enumerate(prompts):
        res = run_prompt(model, drafter, run, prompt, prompt_index=i)
        if checked:
            ref = (
                ar_refs[i]
                if ar_refs is not None
                else ar_generate(model, prompt, run.max_new_tokens, 0.0, None)
            )
            if ref.tokens != res.tokens:
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
        lossless=True if checked else None,
    )
    return report, results


def pass_tokens_per_sec(results: list[GenerationResult]) -> float:
    """Tokens delivered per second of an already-run measurement pass."""
    wall = sum(r.wall_time for r in results)
    return sum(len(r.tokens) for r in results) / wall if wall > 0 else 0.0


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
        tokens, cache, mask=topology.mask, positions=base + topology.depth_array
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
        diff = np.abs(out.logits[-1] - tout.logits[node]).max()
        worst = max(worst, float(diff))
    return worst


# -- cost-aware tree search -----------------------------------------------------------

# ``make_prompts`` stream of the calibration prompts: the corpus draws stream
# 1 and evaluation prompts stream 2, so no calibration prompt is evaluated.
CALIBRATION_STREAM = 5
CALIBRATION_PROMPTS = 60
# Node counts timed for the cost curve (the nearest candidate tree to each;
# densest where the best trees of the toy checkpoint lie), the calibration
# contexts they are timed on, and the timed rounds per tree and context.
TIMED_SIZES = (5, 6, 8, 10, 12, 16, 24, 32, 48, 64)
TIMED_CONTEXTS = 4
TIMING_REPS = 20


class RecordingSession:
    """Passes a drafter session's drafts through and keeps each round's top-k order."""

    def __init__(self, session: DrafterSession):
        self.session = session
        self.orders: list[np.ndarray] = []

    @property
    def depth(self) -> int:
        return self.session.depth

    def draft(self, h_t: np.ndarray, last_token: int, model_cache):
        out = self.session.draft(h_t, last_token, model_cache)
        self.orders.append(out.order)
        return out


def rank_vector(order: np.ndarray, following: list[int]) -> tuple[int, ...]:
    """Per head, the rank of the greedy token in its top-k order (a
    ``DraftOutput.order``), up to the first head whose top-k misses it."""
    ranks = []
    for row, token in zip(order, following):
        hit = np.flatnonzero(row == token)
        if not hit.size:
            break
        ranks.append(int(hit[0]))
    return tuple(ranks)


@dataclass
class Calibration:
    rank_vectors: list[tuple[int, ...]]  # one per verification round
    tokens_per_step: float  # measured with the calibration topology
    contexts: list[list[int]]  # per prompt: prompt + half its greedy continuation


def calibrate(
    model: TargetModel, drafter: Drafter, run: RunConfig, prompts: list[list[int]]
) -> Calibration:
    """Decode ``prompts`` once, greedily with ``run``'s topology, and record
    every round's rank vector against the AR greedy continuation."""
    if run.mode not in VARIANTS or run.temperature != 0:
        raise ValueError(
            f"calibration decodes greedily with a drafter variant, not mode={run.mode!r} "
            f"at temperature {run.temperature:g}"
        )
    topology = resolve_topology(run.topology)
    k = drafter.config.K
    rank_vectors: list[tuple[int, ...]] = []
    contexts = []
    emitted_total = 0
    for i, prompt in enumerate(prompts):
        reference = ar_generate(model, prompt, run.max_new_tokens + k).tokens
        session = RecordingSession(DrafterSession(drafter))
        res = speculative_generate(model, session, prompt, topology, run.max_new_tokens)
        if res.tokens != reference[: run.max_new_tokens]:
            raise LosslessnessError(f"calibration decode diverged from AR on prompt {i}")
        if len(session.orders) != res.steps:
            raise ValueError(f"calibration prompt {i} ran into the context window")
        emitted = 1  # the prefill's token is the first round's root
        for order, event in zip(session.orders, res.events):
            rank_vectors.append(rank_vector(order, reference[emitted : emitted + k]))
            emitted += event.accepted_len + 1
        emitted_total += emitted - 1
        contexts.append(prompt + reference[: run.max_new_tokens // 2])
    return Calibration(rank_vectors, emitted_total / len(rank_vectors), contexts)


@dataclass
class StepCost:
    """One round's wall time: the draft plus the tree round at ``nodes``,
    interpolated linearly between the timed node counts."""

    draft_s: float  # median of the timed drafts
    tree_s: dict[int, float]  # node count -> median tree round (expand, forward, verify, commit)

    def seconds(self, nodes: int) -> float:
        return self.draft_s + float(np.interp(nodes, list(self.tree_s), list(self.tree_s.values())))


def measure_step_cost(
    model: TargetModel,
    drafter: Drafter,
    contexts: list[list[int]],
    topologies: list[TreeTopology],
) -> StepCost:
    """Time real drafts and tree rounds of each topology on caches holding
    ``contexts``; the sizes take turns, so a change of host speed meets every
    size alike."""
    draft_times: list[float] = []
    tree_times: dict[int, list[float]] = {t.node_count: [] for t in topologies}
    for context in contexts:
        cache = model.new_cache()
        h = model.forward(context[:-1], cache).hidden[-1]
        root = context[-1]
        session = DrafterSession(drafter)
        base, drafted = cache.length, session.state.length
        for _ in range(TIMING_REPS):
            for topology in topologies:
                t0 = time.perf_counter()
                draft = session.draft(h, root, cache)
                t1 = time.perf_counter()
                tree = expand_tree(draft, topology, root)
                tout = model.forward(
                    tree.tokens, cache, mask=tree.mask, positions=base + tree.positions
                )
                commit(verify(tree, tout.logits, "greedy", 0.0), tree, cache)
                t2 = time.perf_counter()
                cache.truncate(base)
                session.state.rollback(drafted)
                draft_times.append(t1 - t0)
                tree_times[topology.node_count].append(t2 - t1)
    tree_s = {n: statistics.median(ts) for n, ts in sorted(tree_times.items())}
    return StepCost(statistics.median(draft_times), tree_s)


@dataclass
class TreeSearchResult:
    calibration: Calibration
    cost: StepCost
    chosen: TreeCandidate
    candidates: list[TreeCandidate]  # the greedy tree at each node count


def tree_search(
    model: TargetModel,
    drafter: Drafter,
    run: RunConfig,
    prompts: list[list[int]],
) -> TreeSearchResult:
    """Calibrate on ``prompts``, time a few candidate sizes, and pick the tree
    of greatest expected tokens per second."""
    calibration = calibrate(model, drafter, run, prompts)
    candidates = greedy_trees(calibration.rank_vectors, drafter.config.K)
    sizes = [c.topology.node_count for c in candidates]
    timed = {min(sizes, key=lambda n: (abs(n - size), n)) for size in TIMED_SIZES}
    topologies = [c.topology for c in candidates if c.topology.node_count in timed]
    cost = measure_step_cost(model, drafter, calibration.contexts[:TIMED_CONTEXTS], topologies)
    chosen = search_topology(candidates, cost.seconds)
    return TreeSearchResult(calibration, cost, chosen, candidates)


def write_tree_search_csv(path: str | Path, candidates: list[TreeCandidate]) -> None:
    """Deterministic: the greedy tree and its predicted tokens/step per node count."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["nodes", "tokens_per_step", "paths"])
        for c in candidates:
            paths = " ".join(",".join(str(x) for x in p) for p in c.topology.paths)
            w.writerow([c.topology.node_count, f"{c.tokens_per_step:.6f}", paths])


def write_tree_search_timing_csv(path: str | Path, result: TreeSearchResult) -> None:
    cost = result.cost
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["nodes", "draft_ms", "tree_ms_measured", "step_ms", "tokens_per_s", "chosen"])
        for c in result.candidates:
            n = c.topology.node_count
            measured = f"{1e3 * cost.tree_s[n]:.4f}" if n in cost.tree_s else ""
            w.writerow(
                [
                    n,
                    f"{1e3 * cost.draft_s:.4f}",
                    measured,
                    f"{1e3 * cost.seconds(n):.4f}",
                    f"{c.tokens_per_step / cost.seconds(n):.1f}",
                    str(c is result.chosen).lower(),
                ]
            )


# -- ablation matrix -------------------------------------------------------------------


@dataclass
class AblationConfig:
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")


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
    run: RunConfig,
    seeds: tuple[int, ...],
) -> list[AblationRow]:
    """Train every variant under an identical budget per seed and compare
    accepted length, decoding with ``run`` at each seed (its ``mode`` is not
    read). The target model, and the distilled corpus its drafters train on,
    are built once per seed and shared by all variants; the AR baseline
    (losslessness reference and timing anchor) is likewise computed once per
    seed."""
    rows = {name: AblationRow(name, {}, {}) for name in VARIANTS}
    for seed in seeds:
        corpus = make_corpus(corpus_spec, seed)
        prompts = make_prompts(corpus_spec, seed, run.n_prompts, run.prompt_len)
        model32, model, _ = pretrain_target(model_config, train_config, corpus, seed)
        drafter_corpus = distill_corpus(model, corpus, run.prompt_len)

        _, ar_results = run_prompt_set(model, None, replace(run, mode="ar", seed=seed), prompts)
        ar_rate = pass_tokens_per_sec(ar_results)

        for name in VARIANTS:
            drafter, _ = train_drafter(
                variant_config(name, drafter_config),
                train_config,
                drafter_corpus,
                model32,
                model,
                seed,
            )
            variant_run = replace(run, mode=name, seed=seed)
            report, results = run_prompt_set(model, drafter, variant_run, prompts, ar_refs=ar_results)
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


# -- head accuracy -------------------------------------------------------------------------


def write_head_accuracy_csv(
    path: str | Path,
    model: TargetModel,
    drafter: Drafter,
    sequences: list[list[int]],
    prompt_len: int,
    top_ns=(1, 5),
) -> tuple[list[float], ...]:
    """Per head: top-n accuracy against the corpus tokens of ``sequences``,
    then ``greedy_top1``, agreement with the target's greedy token
    (``measure_greedy_top1``) on the target's ``greedy_continuations`` of
    their prompts, the text that decoding drafts on. Returns the per-n tables
    followed by the greedy one."""
    tables = measure_head_accuracy(sequences, model, drafter, top_ns=top_ns)
    decoded = greedy_continuations(model, sequences, prompt_len)
    tables += (measure_greedy_top1(decoded, model, drafter),)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["head"] + [f"top{n}" for n in top_ns] + ["greedy_top1"])
        for k in range(len(tables[0])):
            w.writerow([k + 1] + [f"{table[k]:.6f}" for table in tables])
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
        topo = preset_topology("cart45")
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
