"""AdamW step math, decay policy, and gradient clipping."""

import numpy as np
import pytest

from seednorm.core import make_rng
from seednorm.model import ModelConfig, build_model, loss_and_grads, parameter_specs
from seednorm.optim import (
    AdamWConfig,
    OptimizerState,
    adamw_step,
    clip_gradients,
    decay_flags,
)


def single_param_state(value, decay=False):
    params = {"w": np.array([float(value)])}
    state = OptimizerState.init(params, {"w": decay})
    return params, state


class TestAdamWStep:
    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g^2 the first update is -lr * sign(g)
        params, state = single_param_state(1.0)
        grads = {"w": np.array([1.0])}
        adamw_step(state, params, grads, AdamWConfig(lr=0.1, eps=0.0))
        assert abs(params["w"][0] - 0.9) <= 1e-9
        assert state.step == 1

    def test_first_step_sign_only(self):
        # gradient magnitude cancels out of the bias-corrected ratio
        for g in (1e-6, 3.0, 250.0):
            params, state = single_param_state(1.0)
            adamw_step(state, params, {"w": np.array([g])},
                       AdamWConfig(lr=0.1, eps=0.0))
            assert params["w"][0] == pytest.approx(0.9, abs=1e-12)

    def test_decay_only_exact_shrink(self):
        params, state = single_param_state(2.0, decay=True)
        hyper = AdamWConfig(lr=0.01, weight_decay=0.1)
        adamw_step(state, params, {"w": np.array([0.0])}, hyper)
        assert params["w"][0] == pytest.approx(2.0 * (1 - 0.01 * 0.1), rel=1e-15)

    def test_no_decay_param_untouched_by_zero_grad(self):
        params, state = single_param_state(2.0, decay=False)
        adamw_step(state, params, {"w": np.array([0.0])},
                   AdamWConfig(lr=0.01, weight_decay=0.1))
        assert params["w"][0] == 2.0

    def test_lr_override_argument(self):
        params, state = single_param_state(1.0)
        adamw_step(state, params, {"w": np.array([1.0])},
                   AdamWConfig(lr=0.1, eps=0.0), lr=0.02)
        assert params["w"][0] == pytest.approx(0.98, abs=1e-12)

    def test_moments_updated(self):
        params, state = single_param_state(0.0)
        adamw_step(state, params, {"w": np.array([2.0])}, AdamWConfig())
        assert state.m["w"][0] == pytest.approx(0.1 * 2.0)
        assert state.v["w"][0] == pytest.approx(0.05 * 4.0)

    def test_nonfinite_grad_rejected_before_mutation(self):
        params, state = single_param_state(1.0)
        before = params["w"].copy()
        with pytest.raises(FloatingPointError, match="w"):
            adamw_step(state, params, {"w": np.array([np.nan])}, AdamWConfig())
        assert params["w"][0] == before[0]
        assert state.step == 0
        assert state.m["w"][0] == 0.0

    # lr and weight_decay lie in [0, inf), the betas in [0, 1) (beta = 1
    # divides the bias correction by 0), eps in [0, inf); NaN in none
    @pytest.mark.parametrize("field,bad", [
        ("lr", np.nan), ("lr", np.inf), ("lr", -1e-3),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", np.nan),
        ("beta2", 1.0), ("beta2", -0.1), ("beta2", np.nan),
        ("eps", np.nan), ("eps", np.inf), ("eps", -1e-8),
        ("weight_decay", np.nan), ("weight_decay", np.inf), ("weight_decay", -0.1),
    ])
    def test_config_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be in "):
            AdamWConfig(**{field: bad})

    def test_config_edges_legal(self):
        AdamWConfig(lr=0.0, beta1=0.0, beta2=0.0, eps=0.0, weight_decay=0.0)
        AdamWConfig(lr=1e-3, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01], ids=["nan", "inf", "negative"])
    def test_lr_override_rejected_before_mutation(self, bad):
        params, state = single_param_state(1.0)
        with pytest.raises(ValueError, match="^lr must be in "):
            adamw_step(state, params, {"w": np.array([1.0])}, AdamWConfig(), lr=bad)
        assert params["w"][0] == 1.0
        assert state.step == 0
        assert state.m["w"][0] == 0.0 and state.v["w"][0] == 0.0

    def test_two_steps_track_reference(self):
        # independent recurrence written out longhand
        params, state = single_param_state(1.0)
        hyper = AdamWConfig(lr=0.1, beta1=0.9, beta2=0.95, eps=1e-8)
        w, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, 0.5), (2, -1.5)):
            adamw_step(state, params, {"w": np.array([g])}, hyper)
            m = 0.9 * m + 0.1 * g
            v = 0.95 * v + 0.05 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.95**t)
            w = w - 0.1 * mh / (np.sqrt(vh) + 1e-8)
            assert params["w"][0] == pytest.approx(w, rel=1e-14)


def expression_adamw(state, params, grads, hyper, lr):
    """The AdamW update written as whole-array expressions: the reference
    the in-place update must match bit for bit."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * (g * g)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + hyper.eps)
        if hyper.weight_decay != 0.0 and state.decay.get(name, False):
            update = update + lr * hyper.weight_decay * p
        p -= update


class TestWrittenOutUpdate:
    # "alpha" is 0-d like DyT's scalar alpha; it is tried decayed and not
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1], ids=["no_decay", "decay"])
    @pytest.mark.parametrize("alpha_decays", [False, True])
    def test_matches_expression_form_bitwise(self, weight_decay, alpha_decays):
        rng = make_rng(5)
        params = {"w": rng.standard_normal((3, 4)), "gamma": rng.standard_normal(4),
                  "alpha": np.array(rng.standard_normal())}
        decay = {"w": True, "gamma": False, "alpha": alpha_decays}
        ref_params = {k: p.copy() for k, p in params.items()}
        state = OptimizerState.init(params, decay)
        ref_state = OptimizerState.init(ref_params, decay)
        hyper = AdamWConfig(lr=0.01, weight_decay=weight_decay)
        for lr in (None, 0.003, None):
            grads = {k: np.asarray(rng.standard_normal(p.shape)) for k, p in params.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            adamw_step(state, params, grads, hyper, lr=lr)
            expression_adamw(ref_state, ref_params, grads, hyper,
                             hyper.lr if lr is None else lr)
            for k in params:
                assert np.array_equal(grads[k], kept[k]), k  # gradients are read only
                assert params[k].shape == ref_params[k].shape, k
                assert np.array_equal(params[k], ref_params[k]), k
                assert np.array_equal(state.m[k], ref_state.m[k]), k
                assert np.array_equal(state.v[k], ref_state.v[k]), k


DECAYED_NORM_PARAMS = {
    "rmsnorm": (),
    "layernorm": (),
    "dyt": (),
    "seednorm": ("alpha", "beta"),
    "mh_seednorm": ("alpha", "beta"),
}


class TestDecayFlags:
    def test_seednorm_policy(self):
        cfg = ModelConfig(layers=1, hidden_dim=4, attn_heads=2, vocab=5,
                          context=2, norm_variant="seednorm")
        flags = decay_flags(cfg)
        assert flags["embed.weight"] is True
        assert flags["pos_embed.weight"] is True
        assert flags["layer0.attn.wq"] is True
        assert flags["layer0.attn_norm.alpha"] is True
        assert flags["layer0.attn_norm.beta"] is True
        assert flags["layer0.attn_norm.gamma"] is False
        assert flags["final_norm.gamma"] is False

    def test_rmsnorm_policy(self):
        cfg = ModelConfig(layers=1, hidden_dim=4, attn_heads=2, vocab=5,
                          context=2, norm_variant="rmsnorm")
        flags = decay_flags(cfg)
        assert all(flags[n] == (len(s) == 2) for n, s in parameter_specs(cfg))

    def test_dyt_scalar_alpha_not_decayed(self):
        cfg = ModelConfig(layers=1, hidden_dim=4, attn_heads=2, vocab=5,
                          context=2, norm_variant="dyt")
        flags = decay_flags(cfg)
        assert flags["layer0.attn_norm.alpha"] is False
        assert flags["layer0.attn_norm.shift"] is False

    @pytest.mark.parametrize("variant", list(DECAYED_NORM_PARAMS))
    def test_covers_every_spec_entry(self, variant):
        # matrices always decay; of the norm parameters only the dynamic
        # coefficient's alpha and beta do (LayerNorm's gamma and shift do not)
        cfg = ModelConfig(layers=2, hidden_dim=8, attn_heads=2, vocab=5,
                          context=2, norm_variant=variant, norm_heads=2)
        flags = decay_flags(cfg)
        specs = parameter_specs(cfg)
        assert set(flags) == {n for n, _ in specs}
        for name, shape in specs:
            suffix = name.rsplit(".", 1)[1]
            want = len(shape) == 2 or suffix in DECAYED_NORM_PARAMS[variant]
            assert flags[name] is want, name

    def test_state_init_carries_flags(self):
        cfg = ModelConfig(layers=1, hidden_dim=4, attn_heads=2, vocab=5,
                          context=2, norm_variant="seednorm")
        m = build_model(cfg, make_rng(0))
        state = OptimizerState.init(m.params, decay_flags(cfg))
        assert state.decay == decay_flags(cfg)
        assert state.m.keys() == m.params.keys()


class TestClipGradients:
    def test_above_threshold_scaled_exactly(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0, rel=1e-15)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0, rel=1e-12)
        # direction preserved
        assert grads["a"][0] == pytest.approx(0.6, rel=1e-12)
        assert grads["b"][0] == pytest.approx(0.8, rel=1e-12)

    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        before = grads["a"].copy()
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5, rel=1e-15)
        assert np.array_equal(grads["a"], before)

    def test_nonpositive_max_norm_disables(self):
        grads = {"a": np.array([30.0, 40.0])}
        norm = clip_gradients(grads, 0.0)
        assert norm == pytest.approx(50.0)
        assert grads["a"][0] == 30.0

    def test_returns_preclip_norm(self):
        grads = {"a": np.array([6.0, 8.0])}
        assert clip_gradients(grads, 2.0) == pytest.approx(10.0)

    # each case names its layers from the top down and a slot's suffixes
    @pytest.mark.parametrize("variant,top_down,suffixes", [
        ("seednorm", ("layer0",), ("gamma", "alpha", "beta")),
        ("seednorm", ("layer1", "layer0"), ("gamma", "alpha", "beta")),
        ("rmsnorm", ("layer0",), ("gamma",)),
        ("dyt", ("layer0",), ("gamma", "shift", "alpha")),
    ], ids=["seednorm", "seednorm-2-layers", "rmsnorm", "dyt"])
    def test_model_gradient_order_pinned(self, variant, top_down, suffixes):
        # clip_gradients sums one float per array in the dict's order, so the
        # norm's last bits (and every golden digest) depend on model_backward
        # producing this order: output side first, each layer from the top
        # down, embeddings last; parameter_specs runs the other way
        cfg = ModelConfig(norm_variant=variant, layers=len(top_down), hidden_dim=8,
                          attn_heads=2, vocab=7, context=4)
        model = build_model(cfg, make_rng(0))
        tokens = np.zeros((2, 4), dtype=np.int64)
        _, grads = loss_and_grads(model, tokens, tokens)

        def slot(name):
            return [f"{name}.{suffix}" for suffix in suffixes]

        def layer(p):
            return [
                f"{p}.ffn.w2", f"{p}.ffn.w1", *slot(f"{p}.ffn_norm"),
                f"{p}.attn.wo", *slot(f"{p}.q_norm"), *slot(f"{p}.k_norm"),
                f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv", *slot(f"{p}.attn_norm"),
            ]

        assert list(grads) == [
            "unembed.weight", *slot("final_norm"),
            *(name for p in top_down for name in layer(p)),
            "embed.weight", "pos_embed.weight",
        ]
