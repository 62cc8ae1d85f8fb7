"""The kernels compute in place, but only in arrays they allocate themselves.

These tests pin the other side of that: a forward or backward leaves its
input, its upstream gradient, the parameters and the cache as it found
them, so one cache can be differentiated twice with equal results; and no
returned gradient shares memory with a parameter or with another gradient,
because ``clip_gradients`` scales every gradient in place. A workspace
keeps that last promise too, and gives every forward cache arrays of its
own.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest

from seednorm import model
from seednorm.core import Workspace, make_rng
from seednorm.model import (
    ModelConfig,
    _attn_backward,
    _attn_forward,
    _ffn_backward,
    _ffn_forward,
    build_model,
    loss_and_grads,
    model_forward,
    softmax_cross_entropy,
)
from seednorm.norms import NORMS
from seednorm.params import NormParams


def arrays_in(obj, path="arg"):
    """Every ndarray reachable through dicts, sequences and dataclasses,
    as (path, array) pairs."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from arrays_in(val, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from arrays_in(val, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name), f"{path}.{f.name}")


def snapshot(obj) -> dict:
    return {path: (arr.shape, arr.dtype, arr.tobytes()) for path, arr in arrays_in(obj)}


def assert_unchanged(before: dict, obj) -> None:
    after = snapshot(obj)
    assert after.keys() == before.keys()
    changed = [path for path in before if after[path] != before[path]]
    assert not changed, f"mutated: {changed}"


def assert_equal_results(a, b) -> None:
    """Two results of one call, repeated: same structure, same bits."""
    left, right = list(arrays_in(a)), list(arrays_in(b))
    assert [p for p, _ in left] == [p for p, _ in right]
    for (path, x), (_, y) in zip(left, right):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), path


def assert_no_aliasing(outputs: dict, inputs: dict) -> None:
    """No output array shares memory with another output or with an input."""
    outs = list(arrays_in(outputs, "out"))
    ins = list(arrays_in(inputs, "in"))
    for i, (name, arr) in enumerate(outs):
        for other, arr2 in outs[i + 1:] + ins:
            assert not np.shares_memory(arr, arr2), f"{name} shares memory with {other}"


NORM_CASES = [(v, False) for v in NORMS] + [("seednorm", True), ("mh_seednorm", True)]


@pytest.mark.parametrize("variant,scalar_alpha", NORM_CASES)
def test_norm_layers_leave_inputs_and_cache_unchanged(variant, scalar_alpha):
    norm = NORMS[variant]
    rng = make_rng(71)
    rows, dim = 5, 8
    x = rng.standard_normal((rows, dim))
    u = rng.standard_normal((rows, dim))
    gamma = rng.standard_normal(dim)
    drawn = norm.draw(rng, dim, scalar_alpha)
    alpha, beta = drawn.get("alpha"), drawn.get("beta")
    inputs = {"x": x, "u": u, "gamma": gamma, "alpha": alpha, "beta": beta}
    before = snapshot(inputs)

    p = NormParams(gamma, alpha, beta, 1e-6, 2 if norm.multi_head else 1)
    out, cache = getattr(model, f"{variant}_forward")(x, p)
    assert_unchanged(before, inputs)
    cached = snapshot(cache)
    backward = getattr(model, f"{variant}_backward")
    first = backward(cache, u)
    second = backward(cache, u)

    assert_unchanged(before, inputs)
    assert_unchanged(cached, cache)
    for f in dataclasses.fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        assert type(a) is type(b), f.name
        assert np.array_equal(a, b), f.name
    assert_no_aliasing({"out": out, "grads": first}, {**inputs, "cache": cache})
    assert_no_aliasing({"grads": second}, {"first": first})


def perturbed_params(cfg, seed):
    rng = make_rng(seed)
    m = build_model(cfg, rng)
    for name, arr in m.params.items():
        m.params[name] = arr + rng.normal(0.0, 0.1, size=arr.shape)
    return m, rng


def block_cfg(variant):
    return ModelConfig(layers=1, hidden_dim=12, attn_heads=2, vocab=5, context=5,
                       norm_variant=variant, norm_heads=2)


@pytest.mark.parametrize("variant", list(NORMS))
def test_attention_leaves_inputs_and_cache_unchanged(variant):
    cfg = block_cfg(variant)
    m, rng = perturbed_params(cfg, 72)
    xn = rng.normal(size=(15, 12))  # 3 sequences of 5 positions
    dout = rng.normal(size=(15, 12))
    inputs = {"params": m.params, "xn": xn, "dout": dout}
    before = snapshot(inputs)

    out, cache = _attn_forward(m.params, cfg, "layer0", xn, 5)
    cached = snapshot(cache)
    g1, g2 = {}, {}
    first = (_attn_backward(m.params, cfg, "layer0", cache, dout, g1), g1)
    second = (_attn_backward(m.params, cfg, "layer0", cache, dout, g2), g2)

    assert_unchanged(before, inputs)
    assert_unchanged(cached, cache)
    assert_equal_results(first, second)
    assert_no_aliasing({"out": out, "dx": first[0], "grads": first[1]},
                       {**inputs, "cache": cache})


def test_ffn_leaves_inputs_and_cache_unchanged():
    cfg = block_cfg("rmsnorm")
    m, rng = perturbed_params(cfg, 73)
    rows = rng.normal(size=(6, 12)) * 20.0
    dout = rng.normal(size=(6, 12))
    inputs = {"params": m.params, "rows": rows, "dout": dout}
    before = snapshot(inputs)

    out, cache = _ffn_forward(m.params, "layer0", rows)
    cached = snapshot(cache)
    g1, g2 = {}, {}
    first = (_ffn_backward(m.params, "layer0", cache, dout, g1), g1)
    second = (_ffn_backward(m.params, "layer0", cache, dout, g2), g2)

    assert_unchanged(before, inputs)
    assert_unchanged(cached, cache)
    assert_equal_results(first, second)
    assert_no_aliasing({"out": out, "d_rows": first[0], "grads": first[1]},
                       {**inputs, "cache": cache})


def test_softmax_cross_entropy_leaves_logits_unchanged():
    rng = make_rng(74)
    logits = rng.normal(size=(7, 5)) * 3.0
    targets = rng.integers(0, 5, size=7)
    inputs = {"logits": logits, "targets": targets}
    before = snapshot(inputs)
    loss, dlogits = softmax_cross_entropy(logits, targets)
    assert_unchanged(before, inputs)
    assert softmax_cross_entropy(logits, targets)[0] == loss
    assert_no_aliasing({"dlogits": dlogits}, inputs)


@pytest.mark.parametrize("variant", list(NORMS))
def test_loss_and_grads_leaves_params_and_tokens_unchanged(variant):
    cfg = ModelConfig(layers=2, hidden_dim=8, attn_heads=2, vocab=6, context=4,
                      norm_variant=variant, norm_heads=2)
    m, rng = perturbed_params(cfg, 75)
    tokens = rng.integers(0, 6, size=(3, 4))
    targets = rng.integers(0, 6, size=(3, 4))
    inputs = {"params": m.params, "tokens": tokens, "targets": targets}
    before = snapshot(inputs)

    loss, grads = loss_and_grads(m, tokens, targets)
    loss2, grads2 = loss_and_grads(m, tokens, targets)

    assert_unchanged(before, inputs)
    assert loss == loss2
    assert_equal_results(grads, grads2)
    assert_no_aliasing({"grads": grads}, inputs)


def model_case(variant, seed):
    cfg = ModelConfig(layers=2, hidden_dim=8, attn_heads=2, vocab=6, context=4,
                      norm_variant=variant, norm_heads=2)
    m, rng = perturbed_params(cfg, seed)
    return cfg, m, rng.integers(0, 6, size=(3, 4)), rng.integers(0, 6, size=(3, 4))


@pytest.mark.parametrize("variant", list(NORMS))
def test_workspace_gradients_alias_nothing(variant):
    cfg, m, tokens, targets = model_case(variant, 76)
    inputs = {"params": m.params, "tokens": tokens, "targets": targets}
    before = snapshot(inputs)
    ws = Workspace()
    for _ in range(2):
        _, grads = loss_and_grads(m, tokens, targets, ws)
        assert_unchanged(before, inputs)
        assert_no_aliasing({"grads": grads}, {"params": m.params})


def forward_caches(caches, logits) -> dict:
    """The model forward's caches, one entry per layer, slot and output."""
    units = {"final_norm": caches["final_norm"],
             "final_norm_out": caches["final_norm_out"], "logits": logits}
    for i, block in enumerate(caches["blocks"]):
        attn = dict(block["attn"])
        units[f"layer{i}.q_norm"] = attn.pop("q_cache")
        units[f"layer{i}.k_norm"] = attn.pop("k_cache")
        units[f"layer{i}.attn"] = attn
        for part in ("attn_norm", "ffn_norm", "ffn"):
            units[f"layer{i}.{part}"] = block[part]
    return units


@pytest.mark.parametrize("variant", list(NORMS))
def test_workspace_forward_caches_share_no_memory(variant):
    cfg, m, tokens, _ = model_case(variant, 77)
    logits, caches = model_forward(m.params, cfg, tokens, ws=Workspace())
    units = forward_caches(caches, logits)
    assert "layer1.k_norm" in units
    for a, b in combinations(units, 2):
        for path_a, arr_a in arrays_in(units[a], a):
            for path_b, arr_b in arrays_in(units[b], b):
                assert not np.shares_memory(arr_a, arr_b), f"{path_a} and {path_b}"
