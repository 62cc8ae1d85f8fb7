"""A training step that reuses one workspace computes the bits of one that
allocates fresh arrays, and after its first step allocates nothing large.

``train_model`` hands one ``Workspace`` to every step; the same step through
``loss_and_grads`` and ``clip_gradients`` given no workspace, then
``adamw_step``, is the reference. NumPy reports its data buffers to ``tracemalloc``, so the
traced peak of a step bounds what the step allocates.
"""

import tracemalloc

import numpy as np
import pytest

from seednorm import model as layer_fns
from seednorm.core import FRESH, Workspace, make_rng, spawn_seeds
from seednorm.model import ModelConfig, build_model, loss_and_grads
from seednorm.norms import NORMS
from seednorm.optim import (
    AdamWConfig,
    OptimizerState,
    adamw_step,
    clip_gradients,
    decay_flags,
)
from seednorm.params import NormParams
from seednorm.training import CopyTask, TrainConfig, train_model


def small_cfg(variant, **kw):
    base = dict(layers=2, hidden_dim=8, attn_heads=2, vocab=7, context=6,
                norm_variant=variant, norm_heads=2)
    base.update(kw)
    return ModelConfig(**base)


def workspace_free_run(cfg, tcfg, task, rng):
    """``train_model``'s loop written out, every call given no workspace."""
    init_seed, data_seed = spawn_seeds(rng, 2)
    model = build_model(cfg, make_rng(init_seed))
    data_rng = make_rng(data_seed)
    state = OptimizerState.init(model.params, decay_flags(cfg))
    hyper = AdamWConfig(lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    losses, norms = [], []
    for step in range(tcfg.steps):
        tokens, targets = task.batch(data_rng, tcfg.batch_size)
        loss, grads = loss_and_grads(model, tokens, targets)
        norms.append(clip_gradients(grads, tcfg.grad_clip))
        lr_t = tcfg.lr * min(1.0, (step + 1) / tcfg.warmup_steps)
        adamw_step(state, model.params, grads, hyper, lr=lr_t)
        losses.append(loss)
    return losses, norms, model, state


@pytest.mark.parametrize("variant", list(NORMS))
def test_train_model_matches_workspace_free_steps_bitwise(variant):
    cfg = small_cfg(variant)
    task = CopyTask(vocab=7, context=6)
    # a clip norm the gradients exceed, so every step scales them in place
    tcfg = TrainConfig(steps=5, batch_size=4, warmup_steps=2, grad_clip=1e-3)
    res = train_model(cfg, tcfg, task, make_rng(31))
    losses, norms, model, state = workspace_free_run(cfg, tcfg, task, make_rng(31))

    assert [r.loss for r in res.curve.records] == losses
    assert [r.grad_norm for r in res.curve.records] == norms
    assert all(n > tcfg.grad_clip for n in norms)
    for name, arr in model.params.items():
        assert res.model.params[name].tobytes() == arr.tobytes(), name
        assert res.opt_state.m[name].tobytes() == state.m[name].tobytes(), name
        assert res.opt_state.v[name].tobytes() == state.v[name].tobytes(), name


@pytest.mark.parametrize("variant", list(NORMS))
def test_repeated_workspace_calls_give_the_bits_of_a_fresh_call(variant):
    cfg = small_cfg(variant)
    m = build_model(cfg, make_rng(32))
    rng = make_rng(33)
    for name, arr in m.params.items():
        m.params[name] = arr + rng.normal(0.0, 0.1, size=arr.shape)
    tokens = rng.integers(0, 7, size=(3, 6))
    targets = rng.integers(0, 7, size=(3, 6))

    fresh_loss, fresh = loss_and_grads(m, tokens, targets)
    ws = Workspace()
    for _ in range(2):
        loss, grads = loss_and_grads(m, tokens, targets, ws)
        assert loss == fresh_loss
        assert grads.keys() == fresh.keys()
        for name, g in fresh.items():
            assert grads[name].tobytes() == g.tobytes(), name


def test_workspace_keys_by_name_and_shape():
    ws = Workspace()
    a = ws.empty("a", (2, 3))
    assert ws.empty("a", (2, 3)) is a
    assert ws.out("a", (2, 3)) is a
    assert ws.empty("a", (3, 2)) is not a
    slot = ws.scope("layer0").scope("q_norm")
    assert slot.out("a", (2, 3)) is not a
    assert slot.out("a", (2, 3)) is ws.empty("layer0.q_norm.a", (2, 3))
    assert slot.shared("a", (2, 3)) is a
    assert FRESH.empty("a", (2, 3)) is not FRESH.empty("a", (2, 3))
    assert FRESH.shared("a", (2, 3)) is not FRESH.shared("a", (2, 3))
    assert FRESH.out("a", (2, 3)) is None
    assert FRESH.scope("layer0") is FRESH


@pytest.mark.parametrize("variant", list(NORMS))
def test_backward_reads_an_upstream_that_is_its_forwards_output(variant):
    # In a workspace the input gradient is written into the forward's output
    # array; handed back as the upstream gradient, that array must be read
    # before it is overwritten, as the loss 0.5 * ||y||^2 does.
    norm = NORMS[variant]
    rng = make_rng(35)
    x = rng.standard_normal((5, 8))
    fields = {"gamma": rng.standard_normal(8), **norm.draw(rng, 8, variant == "dyt")}
    heads = 2 if variant == "mh_seednorm" else 1
    p = NormParams(fields["gamma"], fields.get("alpha"), fields.get("beta"), 1e-6, heads)
    forward = getattr(layer_fns, f"{variant}_forward")
    backward = getattr(layer_fns, f"{variant}_backward")

    y, cache = forward(x, p)
    want = backward(cache, y.copy())
    ws = Workspace().scope("slot")
    y_ws, cache_ws = forward(x, p, ws)
    assert y_ws is ws.out("out", x.shape)
    got = backward(cache_ws, y_ws, ws)
    for name in ("d_x", "d_gamma", "d_alpha", "d_beta"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class _TracedTask:
    """A task that reads the traced memory at every batch draw, which
    ``train_model`` makes once at the start of each step."""

    def __init__(self, task):
        self.task = task
        self.marks = []

    def batch(self, rng, batch_size):
        self.marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return self.task.batch(rng, batch_size)


@pytest.mark.parametrize("variant", list(NORMS))
def test_steady_state_step_allocates_under_one_mib(variant):
    # the criterion-8 shape: a step without the workspace peaks near 20 MiB
    cfg = ModelConfig(layers=2, hidden_dim=64, attn_heads=4, vocab=17, context=16,
                      norm_variant=variant, norm_heads=4)
    task = _TracedTask(CopyTask(vocab=17, context=16))
    tcfg = TrainConfig(steps=5, batch_size=32, warmup_steps=0)
    tracemalloc.start()
    try:
        train_model(cfg, tcfg, task, make_rng(34))
    finally:
        tracemalloc.stop()
    # step k runs from mark k to mark k + 1; steps 0 and 1 warm up
    peaks = [task.marks[k + 1][1] - task.marks[k][0] for k in range(2, len(task.marks) - 1)]
    assert len(peaks) == 2
    assert max(peaks) <= 2**20, peaks
