"""A training step that reuses one workspace computes the bits of one that
allocates fresh arrays, and after its first step allocates nothing large.

``train_model`` hands one ``Workspace`` to every step; the same step through
``loss_and_grads`` and ``clip_gradients`` given no workspace, then
``adamw_step``, is the reference. NumPy reports its data buffers to ``tracemalloc``, so the
traced peak of a step bounds what the step allocates.
"""

import mmap
import tracemalloc
import weakref

import numpy as np
import pytest

from seednorm import model as layer_fns
from seednorm import training
from seednorm.core import FRESH, MAP_MIN, Workspace, make_rng, spawn_seeds
from seednorm.model import (
    ModelConfig,
    build_model,
    count_parameters,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
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


@pytest.mark.parametrize("variant", list(NORMS))
def test_every_gradient_is_one_workspace_array_across_calls(variant):
    # a scalar alpha's gradient too: a 0-d array of the workspace, not a
    # float or an array made for the call
    m = build_model(small_cfg(variant), make_rng(36))
    rng = make_rng(37)
    tokens = rng.integers(0, 7, size=(3, 6))
    targets = rng.integers(0, 7, size=(3, 6))
    ws = Workspace()
    _, first = loss_and_grads(m, tokens, targets, ws)
    _, second = loss_and_grads(m, tokens, targets, ws)
    assert first.keys() == second.keys() == m.params.keys()
    for name, g in first.items():
        assert second[name] is g, name
        assert isinstance(g, np.ndarray) and g.dtype == np.float64, name
        assert g.shape == m.params[name].shape, name


@pytest.mark.parametrize("variant", ["seednorm", "mh_seednorm"])
def test_dynamic_slot_keeps_r_and_its_output_alone(variant):
    # the per-channel coefficient is written into the output and rebuilt by
    # the backward, so a dynamic slot keeps the two (rows, dim) arrays that
    # an RMSNorm slot keeps
    cfg = small_cfg(variant)
    m = build_model(cfg, make_rng(39))
    rng = make_rng(40)
    b, t, d = 3, cfg.context, cfg.hidden_dim
    tokens = rng.integers(0, 7, size=(b, t))
    targets = rng.integers(0, 7, size=(b, t))
    ws = Workspace()
    loss_and_grads(m, tokens, targets, ws)
    keys = list(ws._arrays)
    assert not [name for name, _ in keys if name.endswith(".s")]
    slots = {"final_norm": (b * t, d)}
    for i in range(cfg.layers):
        slots.update({f"layer{i}.attn_norm": (b * t, d), f"layer{i}.ffn_norm": (b * t, d),
                      f"layer{i}.q_norm": (b * cfg.attn_heads * t, cfg.head_dim),
                      f"layer{i}.k_norm": (b * cfg.attn_heads * t, cfg.head_dim)})
    for slot, shape in slots.items():
        kept = {key for key in keys if key[0].startswith(f"{slot}.") and len(key[1]) == 2}
        assert kept == {(f"{slot}.r", shape), (f"{slot}.out", shape)}, slot


def _owner(arr):
    """The object at the end of an array's chain of bases and buffers: the
    memory map, or the array that owns its data."""
    while True:
        up = arr.base if isinstance(arr, np.ndarray) else getattr(arr, "obj", None)
        if up is None:
            return arr
        arr = up


@pytest.mark.parametrize("source", ["workspace", "fresh"])
def test_arrays_from_map_min_bytes_sit_in_maps_of_their_own(source):
    # one rule places every array: from MAP_MIN bytes in an anonymous memory
    # map of its own, below that from NumPy; a map is unmapped once its
    # source and its array are gone
    ws = Workspace() if source == "workspace" else FRESH
    small = ws.out("small", (3, 5))
    under = ws.shared("under", (MAP_MIN // 8 - 1,))
    at_min = ws.out("at_min", (2, MAP_MIN // 16))
    big = ws.scope("slot").shared("big", (2**17,))  # 1 MiB
    assert ws.shared("none", (0, 4)).shape == (0, 4)
    for arr in (small, under, at_min, big):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable
    assert not any(isinstance(_owner(arr), mmap.mmap) for arr in (small, under))
    maps = [_owner(arr) for arr in (at_min, big)]
    assert all(isinstance(m, mmap.mmap) for m in maps) and maps[0] is not maps[1]
    assert at_min.shape == (2, MAP_MIN // 16) and len(maps[0]) == MAP_MIN
    refs = [weakref.ref(m) for m in maps]
    del ws, small, under, at_min, big, arr, maps
    assert all(r() is None for r in refs)


def _tiles_one_buffer(arrays, names, mapped):
    """The one buffer that ``arrays``, keyed by ``names``, tile in order."""
    assert list(arrays) == list(names)
    [owner] = {id(_owner(a)): _owner(a) for a in arrays.values()}.values()
    assert isinstance(owner, mmap.mmap) == mapped
    base = next(iter(arrays.values()))
    at = base.ctypes.data
    for name, a in arrays.items():
        assert a.ctypes.data == at and a.flags.c_contiguous, name
        at += a.nbytes
    return owner


@pytest.mark.parametrize("variant", ["rmsnorm", "mh_seednorm"])
@pytest.mark.parametrize("dim", [8, 64])
def test_parameters_and_moments_each_fill_one_buffer(dim, variant, tmp_path):
    # a model's parameters and each optimizer moment, built or loaded, are
    # views that tile one buffer: a memory map of its own from MAP_MIN bytes
    # (the criterion-8 shape, D=64), else NumPy's
    m = build_model(small_cfg(variant, hidden_dim=dim, attn_heads=4), make_rng(41))
    mapped = 8 * count_parameters(m.cfg) >= MAP_MIN
    assert mapped == (dim == 64)
    state = OptimizerState.init(m.params, decay_flags(m.cfg))
    for name, p in m.params.items():
        for moment in (state.m[name], state.v[name]):
            assert moment.shape == p.shape and moment.dtype == np.float64, name
            assert not moment.any(), name
        state.m[name][...] = 1.0 + p  # nonzero moments, so loading must copy them
        state.v[name][...] = np.abs(p)
    state.step = 3
    path = tmp_path / "state.json"
    save_checkpoint(m, str(path), opt_state=state)
    loaded, loaded_state = load_checkpoint(str(path))
    owners = [_tiles_one_buffer(arrays, m.params, mapped)
              for arrays in (m.params, state.m, state.v,
                             loaded.params, loaded_state.m, loaded_state.v)]
    assert len({id(o) for o in owners}) == 6
    for mine, theirs in ((m.params, loaded.params), (state.m, loaded_state.m),
                         (state.v, loaded_state.v)):
        for name, a in mine.items():
            assert theirs[name].tobytes() == a.tobytes(), name
    assert loaded_state.step == 3


@pytest.mark.parametrize("variant", list(NORMS))
def test_frozen_gradients_are_zeroed_in_their_workspace_arrays(variant, monkeypatch):
    handed = []

    def spy(grads, max_norm, ws):
        handed.append(dict(grads))
        return clip_gradients(grads, max_norm, ws)

    monkeypatch.setattr(training, "clip_gradients", spy)
    tcfg = TrainConfig(steps=3, batch_size=4, warmup_steps=2, freeze=(".gamma", ".wq"))
    train_model(small_cfg(variant), tcfg, CopyTask(vocab=7, context=6), make_rng(38))
    assert len(handed) == 3
    frozen = [n for n in handed[0] if n.endswith((".gamma", ".wq"))]
    assert frozen
    for grads in handed[1:]:
        assert grads.keys() == handed[0].keys()
        for name, g in grads.items():
            assert g is handed[0][name], name
    for name in frozen:
        assert np.all(handed[-1][name] == 0.0), name


def test_workspace_keys_by_name_and_shape():
    # two requests: ``out`` is scoped, ``shared`` is not; both answer every
    # request with an array, a workspace's kept and FRESH's new
    ws = Workspace()
    a = ws.out("a", (2, 3))
    assert ws.out("a", (2, 3)) is a
    assert ws.shared("a", (2, 3)) is a
    assert ws.out("a", (3, 2)) is not a
    slot = ws.scope("layer0").scope("q_norm")
    assert slot.out("a", (2, 3)) is not a
    assert slot.out("a", (2, 3)) is ws.out("layer0.q_norm.a", (2, 3))
    assert slot.shared("a", (2, 3)) is a
    for request in (FRESH.out, FRESH.shared):
        arr = request("a", (2, 3))
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert arr.shape == (2, 3) and arr.flags.c_contiguous and arr.flags.writeable
        assert request("a", (2, 3)) is not arr
    assert FRESH.scope("layer0") is FRESH
    for source in (ws, FRESH):
        assert not hasattr(source, "empty")


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
