"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library(ROOT)

import workloads  # noqa: E402
from seednorm import gradcheck, model, optim, training  # noqa: E402
from seednorm.backward import GradBundle  # noqa: E402

TINY = {
    "copy-c8": workloads.TrainSpec(
        task="copy", variants=workloads.VARIANTS, layers=1, hidden_dim=8, attn_heads=2,
        vocab=7, context=4, batch_size=8, norm_heads=2, round_steps=10,
    ),
    "bytes-wide": workloads.TrainSpec(
        task="bytes", variants=("mh_seednorm",), layers=1, hidden_dim=8, attn_heads=2,
        vocab=256, context=8, batch_size=8, norm_heads=2, round_steps=10,
        corpus_bytes=512,
    ),
    "gradcheck": workloads.GradcheckSpec(dims=(2, 4), grid_passes=10, check_dim=4,
                                         check_vocab=5, check_context=2),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_thread_vars(monkeypatch):
    for var in run.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


def run_tiny(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], specs=TINY)
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, json.loads(lines[-1]), captured


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_the_declared_metrics(capsys, workload, trace):
    code, result, captured = run_tiny(capsys, workload, trace)
    assert code == 0, captured.out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in BENCHMARK[kind]]
    emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "env {" in captured.out


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_end_to_end_metrics_are_never_zero(capsys):
    for workload in TINY:
        _, result, _ = run_tiny(capsys, workload, 0)
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


@pytest.mark.parametrize("workload", ["copy-c8", "bytes-wide"])
def test_layer_self_times_fit_inside_the_traced_step(tmp_path, workload):
    out = workloads.run_training(TINY[workload], 5, 0.01, True, str(tmp_path))
    layer_ms = [value for name, (value, unit) in out.metrics.items()
                if name.endswith(".ms") and name != "step_other.ms"]
    assert all(v >= 0 for v in layer_ms)
    assert sum(layer_ms) <= out.traced_op_ms * (1 + 1e-9)
    assert out.metrics["norm_fwd.calls"][0] == 5.0  # 4 slots in one layer + final
    assert out.metrics["attn_fwd.ms"][0] > 0 and out.metrics["adamw.ms"][0] > 0


def test_gradcheck_split_counts_oracle_evaluations(tmp_path):
    out = workloads.run_gradcheck(TINY["gradcheck"], 5, 0.01, True, str(tmp_path))
    evals = out.metrics["fd.evals"][0]
    # at least two evaluations per input coordinate of the smallest trial
    assert evals >= 2 * 2
    assert out.metrics["fd.eval_us"][0] > 0
    assert evals * out.metrics["fd.eval_us"][0] / 1e3 <= out.traced_op_ms


def _wrong(bundle: GradBundle) -> GradBundle:
    return GradBundle(d_gamma=bundle.d_gamma, d_alpha=bundle.d_alpha,
                      d_beta=bundle.d_beta, d_x=bundle.d_x * 1.01)


def test_wrong_backward_fails_the_gradcheck_run(capsys, monkeypatch):
    original = gradcheck.seednorm_backward
    monkeypatch.setattr(gradcheck, "seednorm_backward",
                        lambda *a, **k: _wrong(original(*a, **k)))
    code, result, captured = run_tiny(capsys, "gradcheck", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "check failed: trial seednorm" in captured.out


def test_slightly_wrong_backward_fails_at_every_recheck_step(capsys, monkeypatch):
    original = gradcheck.dyt_backward

    def off(*a, **k):
        b = original(*a, **k)
        return GradBundle(d_gamma=b.d_gamma * (1 + 1e-4), d_alpha=b.d_alpha,
                          d_beta=b.d_beta, d_x=b.d_x)

    monkeypatch.setattr(gradcheck, "dyt_backward", off)
    code, result, captured = run_tiny(capsys, "gradcheck", 0)
    assert code != 0
    assert "check failed: trial dyt" in captured.out
    assert "rechecked trial dyt" in captured.out


def test_oracle_error_at_one_step_only_is_rechecked_not_failed(capsys, monkeypatch):
    original = gradcheck.run_trial

    def noisy(variant, dim, rows, rng, step=1e-5, **kwargs):
        errors = original(variant, dim, rows, rng, step=step, **kwargs)
        if variant == "rmsnorm" and step == 1e-5:
            errors["d_x"] = 2 * workloads.TRIAL_BOUND
        return errors

    monkeypatch.setattr(gradcheck, "run_trial", noisy)
    code, result, captured = run_tiny(capsys, "gradcheck", 0)
    assert code == 0
    assert result["correct"] is True
    assert "rechecked trial rmsnorm" in captured.out


def test_wrong_backward_fails_the_training_run(capsys, monkeypatch):
    original = model.seednorm_backward
    monkeypatch.setattr(model, "seednorm_backward", lambda *a, **k: _wrong(original(*a, **k)))
    code, result, captured = run_tiny(capsys, "copy-c8", 0)
    assert code != 0
    assert result["correct"] is False
    assert "seednorm: loss gradient disagrees" in captured.out


def _weaken_adamw(monkeypatch, factor):
    """Install an adamw_step that takes ``factor`` times the step it is asked for."""
    original = optim.adamw_step

    def weakened(state, params, grads, hyper, lr=None):
        return original(state, params, grads, hyper,
                        lr=(hyper.lr if lr is None else lr) * factor)

    monkeypatch.setattr(optim, "adamw_step", weakened)
    monkeypatch.setattr(training, "adamw_step", weakened)


def test_half_step_optimizer_fails_the_update_check(capsys, monkeypatch):
    _weaken_adamw(monkeypatch, 0.5)
    code, result, captured = run_tiny(capsys, "copy-c8", 0)
    assert code != 0
    assert result["correct"] is False
    assert "clip + AdamW update disagrees" in captured.out


def test_slow_training_moves_final_loss_past_its_bound(tmp_path, monkeypatch):
    # One round of seednorm at the real copy-c8 shape, as trained by the
    # benchmark. At a quarter of the step size the loss of the last quarter
    # stays 20-45% higher over seeds 1-6; at half it is 4-23% higher, which
    # the update check catches exactly.
    spec = dataclasses.replace(workloads.WORKLOADS["copy-c8"], variants=("seednorm",),
                               loss_seeds=1)
    monkeypatch.setattr(workloads, "MIN_OPS", 1)
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "final_loss")
    healthy = workloads.run_training(spec, 2, 0.01, False, str(tmp_path))
    _weaken_adamw(monkeypatch, 0.25)
    slow = workloads.run_training(spec, 2, 0.01, False, str(tmp_path))
    loss, loss_slow = healthy.metrics["final_loss"][0], slow.metrics["final_loss"][0]
    assert loss_slow > loss * (1 + bound)


def test_missing_hook_drops_only_its_metrics(capsys, monkeypatch):
    hooks = tuple(t for t in workloads.TRAIN_HOOKS if t[1] != "adamw_step")
    monkeypatch.setattr(workloads, "TRAIN_HOOKS",
                        hooks + (("seednorm.optim", "adamw_step_v2", "adamw"),))
    code, result, captured = run_tiny(capsys, "copy-c8", 1)
    assert code == 0
    assert "adamw.ms" not in result["metrics"]
    assert "step_other.ms" not in result["metrics"]
    assert "clip.ms" in result["metrics"]
    assert "seednorm.optim.adamw_step_v2 not found" in captured.err


def test_hooks_are_removed_after_a_traced_run(tmp_path):
    before = (model._slot_forward, model.model_forward, gradcheck.seednorm_forward)
    workloads.run_training(TINY["copy-c8"], 1, 0.01, True, str(tmp_path))
    workloads.run_gradcheck(TINY["gradcheck"], 1, 0.01, True, str(tmp_path))
    assert (model._slot_forward, model.model_forward, gradcheck.seednorm_forward) == before


def test_corpus_follows_the_seed():
    a = workloads.markov_corpus(1, 1 << 16)
    assert a == workloads.markov_corpus(1, 1 << 16)
    assert a != workloads.markov_corpus(2, 1 << 16)
    # order-1 structure: a uniform source would show about 41k distinct pairs
    pairs = {a[i:i + 2] for i in range(len(a) - 1)}
    assert len(pairs) < 20000


def test_same_seed_gives_bitwise_equal_losses(capsys):
    digests = []
    for _ in range(2):
        _, _, captured = run_tiny(capsys, "copy-c8", 0, seed=9)
        digests.append([line for line in captured.out.splitlines()
                        if line.startswith("loss digest")])
    assert digests[0] == digests[1] and len(digests[0]) == 5


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gradcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
