"""Run one benchmark workload against the cached trained toy checkpoint.

    python3 perfbench/run.py --workload spec-short --seed 1 --seconds 22 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures half the time untraced and half traced and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread (never more than the cores we have): measured CPU time then
# equals wall time, and runs do not fight each other for cores. This must be
# set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "amphista" / "__init__.py").is_file() or not (ROOT / "configs" / "toy.cfg").is_file():
    sys.stderr.write(f"perfbench: no amphista source tree at {ROOT}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import amphista  # noqa: E402
import fixture  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DecodeWorkload, Phase, closed_loop  # noqa: E402

# setup_s is the median over this many cold starts, each a fresh process. They
# are spread over the timed loop, so that they meet the same host as the requests.
SETUP_REPEATS = 5
READY = "perfbench: ready"

# name -> unit; every run prints exactly these (BENCHMARK.json lists the same).
END_TO_END = {
    "tokens_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.steps_per_request": "count",
    "engine.step_ms": "ms",
    "model.prefill_ms": "ms",
    "model.decode_ms": "ms",
    "model.sample_ms": "ms",
    "model.tree_forward_ms": "ms",
    "model.attention_self_ms": "ms",
    "model.ffn_self_ms": "ms",
    "model.norm_self_ms": "ms",
    "model.kv_bytes_per_token": "B/token",
    "drafter.draft_ms": "ms",
    "drafter.adapt_ms": "ms",
    "drafter.auto_embed_ms": "ms",
    "drafter.heads_ms": "ms",
    "drafter.topk_ms": "ms",
    "drafter.attention_self_ms": "ms",
    "drafter.ffn_self_ms": "ms",
    "drafter.norm_self_ms": "ms",
    "speculation.expand_tree_ms": "ms",
    "speculation.verify_ms": "ms",
    "speculation.commit_ms": "ms",
    "speculation.tokens_per_step": "count",
    "speculation.accept_rate.d1": "ratio",
    "speculation.accept_rate.d2": "ratio",
    "speculation.accept_rate.d3": "ratio",
    "speculation.accept_rate.d4": "ratio",
    "speculation.node_yield": "ratio",
    "tensor.tensors_per_token": "count",
    "tensor.finite_scan_bytes_per_token": "B/token",
    "training.forward_ms": "ms",
    "training.loss_ms": "ms",
    "training.backward_ms": "ms",
    "training.optimizer_ms": "ms",
    "training.eval_ms": "ms",
    "checkpoint.load_ms": "ms",
    "trace.overhead": "ratio",
}


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return (
        f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
        f"blas_threads={BLAS_THREADS} cores={os.cpu_count()} "
        f"usable_cores={len(os.sched_getaffinity(0))} machine={platform.machine()}"
    )


def ensure_checkpoint() -> Path:
    """The cached fixture; trained in a child process (``fixture.py`` run as
    a script) so that training memory never counts toward this run's peak RSS."""
    path = fixture.checkpoint_path(ROOT)
    if not path.exists():
        print(f"training the fixture checkpoint into {path.relative_to(ROOT)}", file=sys.stderr)
        paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        subprocess.run(
            [sys.executable, fixture.__file__, str(path)], env=env, stdout=sys.stderr, check=True
        )
    return path


def cold_start_seconds(workload_name: str, seed: int, config: Path, ckpt: Path) -> float:
    """Seconds from starting a fresh ``run.py`` process until it is ready to
    send its first timed request: interpreter start, imports, checkpoint load,
    building the model and drafter, input generation and the warm-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name]
    argv += ["--seed", str(seed), "--setup-only", str(config), str(ckpt)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line != READY:
        raise RuntimeError(f"set-up in a child process failed (exit {child.returncode}): {line!r}")
    return seconds


def layer_metrics(workload, trace, phase: Phase, untraced: Phase, setup_trace) -> dict:
    totals = trace.totals()

    def ms(name: str, self_time: bool = False) -> float:
        calls, inclusive, own = totals.get(name, (0, 0.0, 0.0))
        return _per(1e3 * (own if self_time else inclusive), calls)

    tokens = phase.tokens
    out = {name: 0.0 for name in PER_LAYER}
    if isinstance(workload, DecodeWorkload):
        results = [r.result for r in phase.requests if r.ok]
        accepted = np.array([e.accepted_len for res in results for e in res.events])
        nodes = sum(e.nodes for res in results for e in res.events)
        steps = len(accepted)
        emitted = float(np.sum(accepted + 1))
        engine_s = totals.get("engine.generate", (0, 0.0))[1]
        prefill_s = totals.get("model.prefill", (0, 0.0))[1]
        out["engine.steps_per_request"] = _per(steps, len(results))
        out["engine.step_ms"] = _per(1e3 * (engine_s - prefill_s), steps)
        out["speculation.tokens_per_step"] = _per(emitted, steps)
        for d in range(1, 5):
            out[f"speculation.accept_rate.d{d}"] = _per(float(np.sum(accepted >= d)), steps)
        out["speculation.node_yield"] = _per(emitted, nodes)
    for layer in ("model", "drafter"):
        for part in ("attention", "ffn", "norm"):
            out[f"{layer}.{part}_self_ms"] = ms(f"{layer}.{part}", self_time=True)
    for metric, span in (
        ("model.prefill_ms", "model.prefill"),
        ("model.decode_ms", "model.decode"),
        ("model.sample_ms", "model.sample"),
        ("model.tree_forward_ms", "model.tree_forward"),
        ("drafter.draft_ms", "drafter.draft"),
        ("drafter.adapt_ms", "drafter.adapt"),
        ("drafter.auto_embed_ms", "drafter.auto_embed"),
        ("drafter.heads_ms", "drafter.heads"),
        ("drafter.topk_ms", "drafter.topk"),
        ("speculation.expand_tree_ms", "speculation.expand_tree"),
        ("speculation.verify_ms", "speculation.verify"),
        ("speculation.commit_ms", "speculation.commit"),
        ("training.forward_ms", "training.forward"),
        ("training.loss_ms", "training.loss"),
        ("training.backward_ms", "training.backward"),
        ("training.optimizer_ms", "training.optimizer"),
        ("training.eval_ms", "training.eval"),
    ):
        out[metric] = ms(span)
    out["model.kv_bytes_per_token"] = _per(trace.counts["model.kv_bytes"], tokens)
    out["tensor.tensors_per_token"] = _per(trace.counts["tensor.count"], tokens)
    out["tensor.finite_scan_bytes_per_token"] = _per(trace.counts["tensor.scan_bytes"], tokens)
    calls, load_s, _ = setup_trace.totals().get("checkpoint.load", (0, 0.0, 0.0))
    out["checkpoint.load_ms"] = _per(1e3 * load_s, calls)
    out["trace.overhead"] = _per(phase.tokens_per_s(), untraced.tokens_per_s())
    return out


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    ckpt = ensure_checkpoint()
    config = fixture.config_path(ROOT)
    cfg = fixture.load_configs(config)
    print(f"env: {environment()}")
    print(f"checkpoint: {ckpt.name} sha256={fixture.file_sha256(ckpt)}")

    setup_trace = tracing.Tracer()  # installed for the set-up of a traced run
    with setup_trace if traced else contextlib.nullcontext():
        system = workloads.make_system(workload_name, cfg, ckpt, seed)

    references: dict = {}
    if not traced:
        phase, cold_starts = Phase(), []
        for _ in range(SETUP_REPEATS):
            cold_starts.append(cold_start_seconds(workload_name, seed, config, ckpt))
            closed_loop(system.request, system.n_inputs, seconds / SETUP_REPEATS, phase)
        # Read before the check, whose cache-free reference forwards are not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("cold starts (s):", " ".join(f"{x:.3f}" for x in cold_starts))
        setup_s = statistics.median(cold_starts)
        system.check(phase, references)
        phases = [phase]
        metrics = {
            "tokens_per_s": phase.tokens_per_s(),
            "latency_ms_p50": phase.latency_ms(50),
            "latency_ms_p90": phase.latency_ms(90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        untraced = closed_loop(system.request, system.n_inputs, seconds / 2)
        with tracing.Tracer() as trace:

            def call(index):
                trace.request += 1
                return system.request(index)

            phase = closed_loop(call, system.n_inputs, seconds / 2)
        for p in (untraced, phase):
            system.check(p, references)
        phases = [untraced, phase]
        metrics = layer_metrics(workload, trace, phase, untraced, setup_trace)
        units = PER_LAYER

    attempted = sum(len(p.requests) for p in phases)
    failed = sum(p.failed for p in phases)
    print(
        f"workload={workload_name} seed={seed} seconds={seconds:g} trace={int(traced)} "
        f"requests={attempted} distinct_inputs={len({r.index for p in phases for r in p.requests})} "
        f"error_rate={_per(failed, attempted):.6g} ({failed}/{attempted} failed)"
    )
    first_failure = next((r for p in phases for r in p.requests if not r.ok), None)
    if first_failure:
        print(f"first failure, input {first_failure.index}: {first_failure.error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up as a timed run would, print READY and exit: one cold start of setup_s.
    parser.add_argument("--setup-only", nargs=2, metavar=("CONFIG", "CKPT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if Path(amphista.__file__).resolve().parent != SRC / "amphista":
        sys.stderr.write(f"perfbench: imported amphista from {amphista.__file__}, not {SRC}\n")
        return 2
    if args.setup_only:
        config, ckpt = map(Path, args.setup_only)
        workloads.make_system(args.workload, fixture.load_configs(config), ckpt, args.seed)
        print(READY, flush=True)
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be a positive number")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
