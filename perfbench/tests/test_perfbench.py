"""Tests of the benchmark itself, on a tiny fixture trained in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (bootstraps the amphista source path)
import fixture  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
SECONDS = 0.01  # one request per measured loop
# configs/toy.cfg shrunk so that `amphista train` takes seconds; later keys win.
TINY = """
hidden_dim=16
n_layers=1
n_heads=2
ffn_dim=32
sal_heads=2
sal_ffn_dim=32
epochs=1
target_epochs=1
corpus_n_sequences=24
"""


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    config, path = tmp / "tiny.cfg", tmp / "toy-tiny.bin"
    config.write_text(fixture.config_path(run.ROOT).read_text() + TINY)
    mp = pytest.MonkeyPatch()
    mp.setattr(fixture, "config_path", lambda root: config)
    mp.setattr(fixture, "checkpoint_path", lambda root: path)
    mp.setattr(run, "SETUP_REPEATS", 1)
    fixture.train_checkpoint(run.ROOT, path)
    yield path
    mp.undo()


def _tiny_system(name: str, checkpoint: Path):
    cfg = fixture.load_configs(fixture.config_path(run.ROOT))
    return workloads.make_system(name, cfg, checkpoint, 3)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_exactly_the_declared_metrics(tiny_checkpoint, workload, trace):
    result = run.run(workload, seed=3, seconds=SECONDS, traced=bool(trace))
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["checkpoint.load_ms"]["value"] > 0


def test_traced_run_restores_every_wrapped_callable(tiny_checkpoint):
    targets = [(owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS]
    targets += [(tracing.nn.LayerKV, m) for m in tracing.KV_METHODS]
    targets += [(tracing.tensor.Tensor, "__init__"), (tracing.drafter.DraftState, "__init__")]
    before = [vars(owner)[attr] for owner, attr in targets]
    run.run("spec-short", seed=3, seconds=SECONDS, traced=True)
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert not any(hasattr(fn, "__wrapped__") for fn in before)


def test_spans_nest_and_self_time_excludes_children(tiny_checkpoint):
    system = _tiny_system("spec-short", tiny_checkpoint)
    with tracing.Tracer() as trace:
        trace.request = 0
        system.request(0)
    spans = trace.spans
    top = [s for s in spans if s.parent == -1]
    assert [s.name for s in top] == ["engine.generate"]
    for s in spans:
        assert 0 <= s.self_time <= s.end - s.start + 1e-9 and s.request == 0
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    names = {s.name for s in spans}
    assert {"model.prefill", "model.tree_forward", "model.attention", "drafter.attention"} <= names


def test_kv_bytes_are_charged_to_the_cache_owner(tiny_checkpoint):
    """``commit`` compacts the target cache outside any model span; its
    ``select`` copies still count as the target's."""
    system = _tiny_system("spec-short", tiny_checkpoint)
    with tracing.Tracer() as trace:
        system.request(0)
    counts = trace.counts
    for owner in ("model", "drafter"):
        parts = [counts[f"{owner}.kv_bytes.{m}"] for m in tracing.KV_METHODS]
        assert counts[f"{owner}.kv_bytes"] == sum(parts)
    assert counts["model.kv_bytes.select"] > 0
    assert counts["model.kv_bytes"] > counts["model.kv_bytes.extend"]
    assert counts["drafter.kv_bytes.extend"] > 0
    assert "nn.kv_bytes" not in counts


def test_injected_greedy_mismatch_raises_error_rate(tiny_checkpoint, monkeypatch):
    real = workloads.run_prompt

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.tokens[-1] = (result.tokens[-1] + 1) % 256
        return result

    monkeypatch.setattr(workloads, "run_prompt", corrupted)
    system = _tiny_system("spec-short", tiny_checkpoint)
    phase = workloads.closed_loop(system.request, system.n_inputs, SECONDS)
    system.check(phase, {})
    assert phase.failed == len(phase.requests) >= 1
    assert phase.tokens == 0
    result = run.run("spec-short", seed=3, seconds=SECONDS, traced=False)
    assert not result["correct"] and result["failed"] == result["attempted"]
