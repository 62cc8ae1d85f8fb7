"""The desk-scale transformer: wiring, determinism, whole-model gradients."""

import json
import math
import re
import time
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import erf

from seednorm import model
from seednorm.backward import central_difference, relative_error
from seednorm.core import make_rng
from seednorm.norms import NORMS
from seednorm.model import (
    CHECKPOINT_FORMAT,
    _attn_backward,
    _attn_forward,
    _ffn_backward,
    _ffn_forward,
    _slot_backward,
    _slot_forward,
    Model,
    ModelConfig,
    build_model,
    count_parameters,
    first_nonfinite_site,
    load_checkpoint,
    loss_and_grads,
    model_forward,
    model_loss,
    parameter_specs,
    save_checkpoint,
    softmax_cross_entropy,
)
from seednorm.probes import estimate_cost

VARIANT_LIST = list(NORMS)


def tiny_cfg(variant="seednorm", **kw):
    base = dict(layers=1, hidden_dim=4, attn_heads=2, vocab=5, context=2,
                norm_variant=variant)
    base.update(kw)
    return ModelConfig(**base)


def assert_tiles_one_buffer(params, cfg):
    """The parameters are C-contiguous views that tile one buffer end to end
    in canonical order."""
    buffer = params["embed.weight"].base
    assert all(w.base is buffer and w.flags.c_contiguous for w in params.values())
    starts = [w.__array_interface__["data"][0] for w in params.values()]
    sizes = [w.nbytes for w in params.values()]
    assert starts[0] == buffer.__array_interface__["data"][0]
    assert all(s + n == nxt for s, n, nxt in zip(starts, sizes, starts[1:]))
    assert sum(sizes) == buffer.nbytes == 8 * count_parameters(cfg)


class TestParameterSpecs:
    def test_canonical_order_starts_and_ends(self):
        names = [n for n, _ in parameter_specs(tiny_cfg())]
        assert names[0] == "embed.weight"
        assert names[1] == "pos_embed.weight"
        assert names[-1] == "unembed.weight"
        assert names[-4:] == ["final_norm.gamma", "final_norm.alpha",
                              "final_norm.beta", "unembed.weight"]

    def test_variant_controls_norm_entries(self):
        rms = {n for n, _ in parameter_specs(tiny_cfg("rmsnorm"))}
        assert "layer0.attn_norm.gamma" in rms
        assert "layer0.attn_norm.alpha" not in rms
        dyt = {n for n, _ in parameter_specs(tiny_cfg("dyt"))}
        assert "layer0.attn_norm.shift" in dyt
        assert "layer0.attn_norm.alpha" in dyt

    def test_dyt_alpha_is_scalar_shaped(self):
        shapes = dict(parameter_specs(tiny_cfg("dyt")))
        assert shapes["layer0.attn_norm.alpha"] == ()

    def test_qk_width_per_head(self):
        shapes = dict(parameter_specs(tiny_cfg()))
        assert shapes["layer0.q_norm.gamma"] == (2,)  # hidden 4 / heads 2

    def test_count_matches_manual_sum(self):
        cfg = tiny_cfg("rmsnorm")
        total = sum(int(np.prod(s)) for _, s in parameter_specs(cfg))
        assert count_parameters(cfg) == total

    @pytest.mark.parametrize("variant", ["rmsnorm", "dyt", "mh_seednorm"])
    def test_count_matches_the_list_at_any_depth(self, variant):
        for layers in (1, 2, 5):
            cfg = tiny_cfg(variant, layers=layers)
            assert count_parameters(cfg) == sum(math.prod(s) for _, s in parameter_specs(cfg))

    def test_count_is_closed_form(self):
        # a depth no list could hold is counted at once
        cfg = tiny_cfg(layers=2**63)
        per_layer = count_parameters(tiny_cfg(layers=2)) - count_parameters(tiny_cfg())
        assert count_parameters(cfg) == count_parameters(tiny_cfg()) + (2**63 - 1) * per_layer


class TestConfigValidation:
    @pytest.mark.parametrize("alpha_init", [float("nan"), float("inf")])
    def test_non_finite_alpha_init_rejected(self, alpha_init):
        # build_model would fill every alpha with it and the first forward
        # would fail inside a norm slot
        with pytest.raises(ValueError, match="alpha_init"):
            tiny_cfg(alpha_init=alpha_init)

    @pytest.mark.parametrize("variant", ["SEEDNORM", "batchnorm", 3, ["seednorm"]])
    def test_unknown_variant_rejected_with_choices(self, variant):
        with pytest.raises(ValueError, match="norm_variant must be one of rmsnorm, layernorm, "
                                             "dyt, seednorm, mh_seednorm"):
            tiny_cfg(variant)


class TestRetiredSettings:
    def test_eight_fields_and_a_fixed_ffn_width(self):
        assert len(fields(ModelConfig)) == 8
        assert ModelConfig.ffn_mult == 4
        assert dict(parameter_specs(tiny_cfg()))["layer0.ffn.w1"] == (4, 16)

    @pytest.mark.parametrize("key,value", [("norm_eps", 1e-6), ("ffn_mult", 4)])
    def test_retired_field_is_not_an_argument(self, key, value):
        with pytest.raises(TypeError, match=key):
            tiny_cfg(**{key: value})


class TestCostCrossCheck:
    @pytest.mark.parametrize("layers,dim,heads", [(1, 8, 2), (2, 64, 4), (16, 2048, 16)])
    def test_params_delta_equals_closed_form(self, layers, dim, heads):
        # shapes-only walk: the largest case would not fit in memory if built
        common = dict(layers=layers, hidden_dim=dim, attn_heads=heads,
                      vocab=7, context=4)
        dyn = ModelConfig(norm_variant="seednorm", **common)
        base = ModelConfig(norm_variant="rmsnorm", **common)
        delta = count_parameters(dyn) - count_parameters(base)
        assert delta == estimate_cost(layers, dim, heads).extra_params


class TestBuildModel:
    def test_same_seed_bitwise(self):
        cfg = tiny_cfg()
        a = build_model(cfg, make_rng(5))
        b = build_model(cfg, make_rng(5))
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_parameters_tile_one_buffer_in_canonical_order(self):
        cfg = tiny_cfg("dyt", layers=2)
        assert_tiles_one_buffer(build_model(cfg, make_rng(5)).params, cfg)

    def test_variants_share_weight_draws(self):
        # norm params consume no randomness, so the matrices match bitwise
        # across variants built from the same seed
        a = build_model(tiny_cfg("seednorm"), make_rng(3))
        b = build_model(tiny_cfg("rmsnorm"), make_rng(3))
        for k in ("embed.weight", "pos_embed.weight", "layer0.attn.wq",
                  "layer0.ffn.w1", "unembed.weight"):
            assert np.array_equal(a.params[k], b.params[k])

    def test_alpha_init_recorded_everywhere(self):
        m = build_model(tiny_cfg(alpha_init=0.25), make_rng(0))
        for name, arr in m.params.items():
            if name.endswith(".alpha"):
                assert np.all(arr == 0.25), name

    def test_norm_init_values(self):
        m = build_model(tiny_cfg("layernorm"), make_rng(0))
        assert np.all(m.params["layer0.attn_norm.gamma"] == 1.0)
        assert np.all(m.params["layer0.attn_norm.shift"] == 0.0)

    def test_residual_projections_scaled_down(self):
        cfg = ModelConfig(layers=8, hidden_dim=32, attn_heads=4, vocab=5, context=4)
        m = build_model(cfg, make_rng(1))
        wo = m.params["layer0.attn.wo"]
        wq = m.params["layer0.attn.wq"]
        assert wo.std() < wq.std()


class TestForwardPass:
    def test_logit_shape(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        tokens = np.array([[1, 2], [0, 4]])
        logits, _ = model_forward(m.params, cfg, tokens)
        assert logits.shape == (4, cfg.vocab)

    def test_causal_mask(self):
        # changing the last token must not move the first position's logits
        cfg = ModelConfig(layers=2, hidden_dim=8, attn_heads=2, vocab=6, context=4)
        m = build_model(cfg, make_rng(2))
        t1 = np.array([[1, 2, 3, 4]])
        t2 = np.array([[1, 2, 3, 5]])
        l1, _ = model_forward(m.params, cfg, t1)
        l2, _ = model_forward(m.params, cfg, t2)
        np.testing.assert_array_equal(l1[0], l2[0])
        np.testing.assert_array_equal(l1[2], l2[2])
        assert not np.allclose(l1[3], l2[3])

    def test_token_range_validated(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        with pytest.raises(ValueError, match="range"):
            model_forward(m.params, cfg, np.array([[0, 99]]))

    def test_context_overflow_validated(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        with pytest.raises(ValueError, match="context"):
            model_forward(m.params, cfg, np.zeros((1, 9), dtype=np.int64))

    def test_position_signal_reaches_logits(self):
        # same token at two positions must produce different predictions
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(4))
        logits, _ = model_forward(m.params, cfg, np.array([[3, 3]]))
        assert not np.allclose(logits[0], logits[1])


class TestLossAndGrads:
    def test_softmax_cross_entropy_manual(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        targets = np.array([1, 2])
        loss, dlogits = softmax_cross_entropy(logits, targets)
        p0 = np.exp(logits[0]) / np.exp(logits[0]).sum()
        want = (-np.log(p0[1]) - np.log(1.0 / 3.0)) / 2.0
        assert loss == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_softmax_cross_entropy_matches_expression_form_bitwise(self, scale):
        # the loss computes exp, the normalization and the gradient in place
        rng = make_rng(33)
        logits = rng.normal(size=(7, 5)) * scale
        targets = rng.integers(0, 5, size=7)
        loss, dlogits = softmax_cross_entropy(logits, targets)
        m = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - m)
        z = ex.sum(axis=1, keepdims=True)
        log_z = np.log(z) + m
        idx = np.arange(7)
        want = ex / z
        want[idx, targets] -= 1.0
        want /= 7
        assert loss == float(np.mean(log_z.ravel() - logits[idx, targets]))
        assert np.array_equal(dlogits, want)

    def test_grads_cover_every_parameter(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        tokens = np.array([[1, 2]])
        _, grads = loss_and_grads(m, tokens, np.array([[2, 3]]))
        assert set(grads) == set(m.params)
        for k, g in grads.items():
            assert g.shape == m.params[k].shape, k

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("variant", VARIANT_LIST)
    def test_slot_reaches_swapped_layer(self, variant, direction, monkeypatch):
        # a tracer or a mutation test swaps a layer function in the model
        # module; every norm slot must call the swapped one
        name = f"{variant}_{direction}"
        original = getattr(model, name)
        kinds = []

        def spy(*args):
            result = original(*args)
            kinds.append((result[1] if direction == "forward" else args[0]).kind)
            return result

        monkeypatch.setattr(model, name, spy)
        m = build_model(tiny_cfg(variant), make_rng(0))
        loss_and_grads(m, np.array([[1, 2]]), np.array([[2, 3]]))
        assert kinds == [variant] * 5  # the attn, q, k, ffn and final norm slots

    # Floor 1e-5 for whole-model checks: central differences on an O(1) loss
    # carry ~1e-11 absolute noise, so gradient entries smaller than the floor
    # are compared at absolute scale floor*tol instead of relatively.
    # The second batch has batch != time < context, so a swapped batch and
    # time axis fails it, and it leaves the last position row unused.
    @pytest.mark.parametrize("context,tokens,targets", [
        (2, [[1, 2], [4, 0]], [[2, 3], [1, 1]]),
        (3, [[1, 2], [4, 0], [3, 3]], [[2, 3], [1, 1], [0, 4]]),
    ], ids=["2x2-context2", "3x2-context3"])
    @pytest.mark.parametrize("variant", VARIANT_LIST)
    def test_whole_model_fd(self, variant, context, tokens, targets):
        cfg = tiny_cfg(variant, context=context,
                       norm_heads=2 if variant == "mh_seednorm" else 1)
        m = build_model(cfg, make_rng(10))
        tokens, targets = np.array(tokens), np.array(targets)
        _, grads = loss_and_grads(m, tokens, targets)
        assert np.all(grads["pos_embed.weight"][tokens.shape[1]:] == 0.0)
        names = [n for n, _ in parameter_specs(cfg)]
        arrays = [m.params[n] for n in names]
        fd = central_difference(
            lambda: model_loss(m.params, cfg, tokens, targets), arrays, step=1e-5
        )
        for name, num in zip(names, fd):
            err = relative_error(grads[name], num, floor=1e-5)
            assert err <= 1e-4, f"{variant}:{name} rel err {err:.3e}"


class TestDiagnostics:
    def test_first_nonfinite_site_reports_poisoned_embedding(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        m.params["embed.weight"][0, 0] = np.nan
        site = first_nonfinite_site(m.params, cfg, np.array([[0, 1]]))
        assert site == "embed"

    def test_clean_model_has_no_bad_site(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        assert first_nonfinite_site(m.params, cfg, np.array([[0, 1]])) is None

    def test_poisoned_late_weight_blames_late_site(self):
        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(0))
        m.params["unembed.weight"][0, 0] = np.inf
        site = first_nonfinite_site(m.params, cfg, np.array([[0, 1]]))
        assert site == "logits"


class TestCheckpoint:
    @pytest.mark.parametrize("variant", VARIANT_LIST)
    def test_roundtrip(self, tmp_path, variant):
        # norm parameters moved off their init, so shifts and alphas carry
        # values; shapes pinned, so DyT's alpha comes back 0-d
        cfg = tiny_cfg(variant, norm_heads=2)
        m, _ = perturbed_model(cfg, 7)
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path))
        loaded, opt = load_checkpoint(str(path))
        assert opt is None
        assert loaded.cfg == cfg
        assert loaded.params.keys() == m.params.keys()
        for k in m.params:
            assert loaded.params[k].shape == m.params[k].shape, k
            assert np.array_equal(loaded.params[k], m.params[k])

    def test_roundtrip_with_optimizer(self, tmp_path):
        from seednorm.optim import OptimizerState, decay_flags

        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(7))
        state = OptimizerState.init(m.params, decay_flags(cfg))
        state.step = 42
        state.m["embed.weight"] += 0.5
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path), opt_state=state)
        _, opt = load_checkpoint(str(path))
        assert opt is not None
        assert opt.step == 42
        assert np.allclose(opt.m["embed.weight"], 0.5)

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(str(path))

    def test_non_object_blob_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["x"]')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(str(path))

    def test_format_constant_stable(self):
        assert CHECKPOINT_FORMAT == "seednorm-checkpoint-v1"

    @staticmethod
    def _saved_blob(tmp_path):
        cfg = tiny_cfg("mh_seednorm", norm_heads=2)
        m, _ = perturbed_model(cfg, 9)
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path))
        return m, path, json.loads(path.read_text())

    @pytest.mark.parametrize("retired", [{"qk_norm_per_head": True},
                                         {"norm_eps": 1e-6, "ffn_mult": 4}],
                             ids=["qk_norm_per_head", "norm_eps-ffn_mult"])
    def test_v1_retired_keys_load(self, tmp_path, retired):
        # v1 files carry settings that are now fixed (qk_norm_per_head from
        # when the query/key norm width was a switch; norm_eps and ffn_mult
        # in every file written while they were fields), at the one value
        m, path, blob = self._saved_blob(tmp_path)
        blob["config"].update(retired)
        path.write_text(json.dumps(blob))
        loaded, _ = load_checkpoint(str(path))
        assert loaded.cfg == m.cfg
        assert loaded.params.keys() == m.params.keys()
        for k in m.params:
            assert np.array_equal(loaded.params[k], m.params[k]), k

    def test_saved_config_carries_no_retired_key(self, tmp_path):
        _, _, blob = self._saved_blob(tmp_path)
        assert sorted(blob["config"]) == sorted(f.name for f in fields(ModelConfig))
        assert not {"qk_norm_per_head", "norm_eps", "ffn_mult"} & set(blob["config"])

    def test_loaded_parameters_tile_one_buffer(self, tmp_path):
        m, path, _ = self._saved_blob(tmp_path)
        assert_tiles_one_buffer(load_checkpoint(str(path))[0].params, m.cfg)

    def test_deep_config_fails_before_listing_its_layers(self, tmp_path):
        # the buffer comes before any (name, shape) entry: a file asking for
        # 10**7 layers of width 1024 (about a petabyte) fails at once
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": CHECKPOINT_FORMAT,
            "config": {"layers": 10**7, "hidden_dim": 1024, "attn_heads": 4},
            "params": {},
        }))
        start = time.perf_counter()
        with pytest.raises(MemoryError, match=r"^Unable to allocate \d+ parameters .* "
                                              r"for 10000000 layers of width 1024$"):
            load_checkpoint(str(path))
        assert time.perf_counter() - start < 1.0

    def test_missing_params_section_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "config": {}}))
        with pytest.raises(ValueError, match="'params'"):
            load_checkpoint(str(path))

    def test_missing_parameter_named(self, tmp_path):
        _, path, blob = self._saved_blob(tmp_path)
        del blob["params"]["layer0.q_norm.beta"]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=r"params has no 'layer0\.q_norm\.beta'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("drop", [("step",), ("m",), ("decay",), ("v", "embed.weight")],
                             ids=["step", "m", "decay", "v-entry"])
    def test_missing_optimizer_field_named(self, tmp_path, drop):
        path, blob = self._saved_optimizer_blob(tmp_path)
        section = blob["optimizer"]
        for key in drop[:-1]:
            section = section[key]
        del section[drop[-1]]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"has no '{drop[-1]}'"):
            load_checkpoint(str(path))

    def test_non_finite_parameter_named(self, tmp_path):
        # json reads NaN and Infinity; a file is outside input, so they are refused
        _, path, blob = self._saved_blob(tmp_path)
        blob["params"]["layer0.attn.wq"][3] = float("nan")
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=r"^checkpoint param layer0\.attn\.wq contains "
                                             r"non-finite entries$"):
            load_checkpoint(str(path))

    def test_non_finite_moment_named(self, tmp_path):
        path, blob = self._saved_optimizer_blob(tmp_path)
        blob["optimizer"]["v"]["embed.weight"][0] = float("inf")
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=r"^checkpoint optimizer\.v embed\.weight contains "
                                             r"non-finite entries$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("step,shown", [(-3, "-3"), (2.7, "2.7"), (True, "True"),
                                            (1e30, "1e+30"), ("3", "'3'")],
                             ids=["negative", "fraction", "true", "float-1e30", "string"])
    def test_bad_optimizer_step_named(self, tmp_path, step, shown):
        # json.load gives 2.7 and 1e30 as floats and true as a bool; none is a step
        path, blob = self._saved_optimizer_blob(tmp_path)
        blob["optimizer"]["step"] = step
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=rf"^checkpoint optimizer\.step must be an "
                                             rf"integer >= 0, got {re.escape(shown)}$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("flag,shown", [("false", "'false'"), (0, "0"), (None, "None")],
                             ids=["string", "int", "null"])
    def test_bad_decay_flag_named(self, tmp_path, flag, shown):
        # bool("false") is True: only a JSON boolean is a flag
        path, blob = self._saved_optimizer_blob(tmp_path)
        blob["optimizer"]["decay"]["layer0.attn_norm.beta"] = flag
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=rf"^checkpoint optimizer\.decay "
                                             rf"layer0\.attn_norm\.beta must be a boolean, "
                                             rf"got {shown}$"):
            load_checkpoint(str(path))

    def test_zero_step_and_boolean_flags_load(self, tmp_path):
        path, blob = self._saved_optimizer_blob(tmp_path)
        assert blob["optimizer"]["step"] == 0
        _, opt = load_checkpoint(str(path))
        assert opt.step == 0 and type(opt.step) is int
        assert opt.decay == blob["optimizer"]["decay"]
        assert all(type(f) is bool for f in opt.decay.values())

    @staticmethod
    def _saved_optimizer_blob(tmp_path):
        from seednorm.optim import OptimizerState, decay_flags

        cfg = tiny_cfg()
        m = build_model(cfg, make_rng(7))
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path), opt_state=OptimizerState.init(m.params, decay_flags(cfg)))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("key,value", [
        ("qk_norm_per_head", False), ("qk_norm_width", 4), ("qk_norm_per_head", 1),
        ("norm_eps", 1e-5), ("norm_eps", 0), ("ffn_mult", 2), ("ffn_mult", 4.0),
    ], ids=["full-width-qk", "unknown-key", "qk-not-a-bool", "other-eps", "eps-int",
            "other-ffn-mult", "ffn-mult-float"])
    def test_config_key_rejected(self, tmp_path, key, value):
        _, path, blob = self._saved_blob(tmp_path)
        blob["config"][key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [
        ("layers", "2"), ("layers", 2.0), ("layers", True), ("norm_heads", None),
        ("norm_variant", 3), ("alpha_init", "1.0"), ("alpha_init", False),
    ], ids=["layers-str", "layers-float", "layers-bool", "heads-null", "variant-int",
            "alpha-str", "alpha-bool"])
    def test_config_field_of_another_json_type_rejected(self, tmp_path, key, value):
        _, path, blob = self._saved_blob(tmp_path)
        blob["config"][key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"checkpoint config {key} must be a JSON"):
            load_checkpoint(str(path))

    def test_integer_alpha_init_loads(self, tmp_path):
        _, path, blob = self._saved_blob(tmp_path)
        blob["config"]["alpha_init"] = 1
        path.write_text(json.dumps(blob))
        loaded, _ = load_checkpoint(str(path))
        assert loaded.cfg.alpha_init == 1

    @pytest.mark.parametrize("config", [5, [], "seednorm", None],
                             ids=["int", "list", "str", "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, config):
        _, path, blob = self._saved_blob(tmp_path)
        blob["config"] = config
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="checkpoint config must be a JSON object"):
            load_checkpoint(str(path))


INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_ref(z):
    """Exact GELU z * Phi(z), written out from erf."""
    return z * (0.5 * (1.0 + erf(z * INV_SQRT2)))


def gelu_prime_ref(z):
    """d GELU / dz = Phi(z) + z * phi(z), in the FFN's order of operations."""
    return 0.5 * (1.0 + erf(z * INV_SQRT2)) + z * np.exp(-0.5 * z * z) * INV_SQRT_2PI


def ffn_gelu(z):
    """GELU and its derivative at each z, read off the FFN at width 1 with
    unit weights: the products by 1.0 are exact."""
    params = {"g.ffn.w1": np.ones((1, 1)), "g.ffn.w2": np.ones((1, 1))}
    rows = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    out, cache = _ffn_forward(params, "g", rows)
    d_rows = _ffn_backward(params, "g", cache, np.ones_like(rows), {})
    return out.ravel(), d_rows.ravel()


class TestGelu:
    def test_prime_matches_fd(self):
        z = np.linspace(-3, 3, 41)
        h = 1e-6
        fd = (ffn_gelu(z + h)[0] - ffn_gelu(z - h)[0]) / (2 * h)
        np.testing.assert_allclose(ffn_gelu(z)[1], fd, rtol=0, atol=1e-9)

    def test_known_values(self):
        assert ffn_gelu([0.0])[0][0] == 0.0
        assert ffn_gelu([10.0])[0][0] == pytest.approx(10.0)


def reference_attention(params, cfg, pfx, xn, dout):
    """Einsum form of the attention block's forward and backward.

    Returns (out, dx, grads) for input ``xn`` (batch, time, dim) and upstream
    gradient ``dout``, with out and dx as (batch*time, dim) rows. The norm
    slots go through the library, which the layer tests check on their own.
    """
    b, t, d = xn.shape
    h, hd = cfg.attn_heads, cfg.head_dim
    inv_scale = 1.0 / np.sqrt(hd)

    def split(m):  # (b*t, d) -> (b, h, t, hd)
        return m.reshape(b, t, h, hd).transpose(0, 2, 1, 3)

    def merge(m):  # (b, h, t, hd) -> (b*t, d)
        return m.transpose(0, 2, 1, 3).reshape(b * t, d)

    def to_rows(m):  # (b, h, t, hd) -> one query/key norm row per head
        return m.reshape(b * h * t, hd)

    def from_rows(r):
        return r.reshape(b, h, t, hd)

    x2 = xn.reshape(b * t, d)
    wq, wk, wv, wo = (params[f"{pfx}.attn.{w}"] for w in ("wq", "wk", "wv", "wo"))
    qn_rows, q_cache = _slot_forward(params, cfg, f"{pfx}.q_norm", to_rows(split(x2 @ wq)), 1)
    kn_rows, k_cache = _slot_forward(params, cfg, f"{pfx}.k_norm", to_rows(split(x2 @ wk)), 1)
    qn, kn, vh = from_rows(qn_rows), from_rows(kn_rows), split(x2 @ wv)
    scores = np.einsum("bhid,bhjd->bhij", qn, kn) * inv_scale
    scores = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf, scores)
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = ex / ex.sum(axis=-1, keepdims=True)
    oc = merge(np.einsum("bhij,bhjd->bhid", att, vh))
    out = oc @ wo

    dout2 = dout.reshape(b * t, d)
    do = split(dout2 @ wo.T)
    datt = np.einsum("bhid,bhjd->bhij", do, vh)
    dvh = np.einsum("bhij,bhid->bhjd", att, do)
    dscores = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dqn = np.einsum("bhij,bhjd->bhid", dscores, kn) * inv_scale
    dkn = np.einsum("bhij,bhid->bhjd", dscores, qn) * inv_scale
    grads = {}
    dq_rows = _slot_backward(params, cfg, f"{pfx}.q_norm", q_cache, to_rows(dqn), grads)
    dk_rows = _slot_backward(params, cfg, f"{pfx}.k_norm", k_cache, to_rows(dkn), grads)
    dq, dk, dv = merge(from_rows(dq_rows)), merge(from_rows(dk_rows)), merge(dvh)
    grads[f"{pfx}.attn.wo"] = oc.T @ dout2
    grads[f"{pfx}.attn.wq"] = x2.T @ dq
    grads[f"{pfx}.attn.wk"] = x2.T @ dk
    grads[f"{pfx}.attn.wv"] = x2.T @ dv
    dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
    return out, dx, grads


def expression_attention(params, cfg, pfx, xn, dout):
    """The attention block written as whole-array expressions, with the
    contractions of ``_attn_forward``/``_attn_backward``, so the in-place
    softmax, softmax backward, scalings and input-gradient sum must match it
    bit for bit. Returns (att, out, dx, grads)."""
    b, t, d = xn.shape
    heads, hd = cfg.attn_heads, cfg.head_dim
    x2 = xn.reshape(b * t, d)
    wq, wk, wv, wo = (params[f"{pfx}.attn.{w}"] for w in ("wq", "wk", "wv", "wo"))
    q_rows = (x2 @ wq).reshape(b, t, heads, hd).transpose(0, 2, 1, 3).reshape(b * heads * t, hd)
    k_rows = (x2 @ wk).reshape(b, t, heads, hd).transpose(0, 2, 1, 3).reshape(b * heads * t, hd)
    qn_rows, q_cache = _slot_forward(params, cfg, f"{pfx}.q_norm", q_rows, 1)
    kn_rows, k_cache = _slot_forward(params, cfg, f"{pfx}.k_norm", k_rows, 1)
    qn = qn_rows.reshape(b, heads, t, hd)
    kn = kn_rows.reshape(b, heads, t, hd)
    vh = (x2 @ wv).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
    inv_scale = 1.0 / np.sqrt(hd)
    scores = (qn @ kn.swapaxes(-1, -2)) * inv_scale
    scores = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf, scores)
    m = scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores - m)
    att = ex / ex.sum(axis=-1, keepdims=True)
    oc = (att @ vh).transpose(0, 2, 1, 3).reshape(b * t, d)
    out = oc @ wo

    dout2 = dout.reshape(b * t, d)
    grads = {f"{pfx}.attn.wo": oc.T @ dout2}
    do = (dout2 @ wo.T).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
    datt = do @ vh.swapaxes(-1, -2)
    dvh = att.swapaxes(-1, -2) @ do
    dscores = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dqn = (dscores @ kn) * inv_scale
    dkn = (dscores.swapaxes(-1, -2) @ qn) * inv_scale
    dq_rows = _slot_backward(params, cfg, f"{pfx}.q_norm", q_cache,
                             dqn.reshape(b * heads * t, hd), grads)
    dk_rows = _slot_backward(params, cfg, f"{pfx}.k_norm", k_cache,
                             dkn.reshape(b * heads * t, hd), grads)
    dq = dq_rows.reshape(b, heads, t, hd).transpose(0, 2, 1, 3).reshape(b * t, d)
    dk = dk_rows.reshape(b, heads, t, hd).transpose(0, 2, 1, 3).reshape(b * t, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b * t, d)
    grads[f"{pfx}.attn.wq"] = x2.T @ dq
    grads[f"{pfx}.attn.wk"] = x2.T @ dk
    grads[f"{pfx}.attn.wv"] = x2.T @ dv
    dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
    return att, out, dx, grads


def perturbed_model(cfg, seed):
    """A model whose norm parameters are moved off their identity init."""
    rng = make_rng(seed)
    m = build_model(cfg, rng)
    for name, arr in m.params.items():
        m.params[name] = arr + rng.normal(0.0, 0.1, size=arr.shape)
    return m, rng


def assert_rel_close(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.max(np.abs(want)))


class TestBlockContractions:
    # t=5 differs from head_dim=6, so a swapped axis cannot pass by symmetry
    def test_attention_matches_einsum_reference(self):
        cfg = ModelConfig(layers=1, hidden_dim=12, attn_heads=2, vocab=5, context=5,
                          norm_variant="mh_seednorm", norm_heads=2)
        m, rng = perturbed_model(cfg, 31)
        xn = rng.normal(size=(3, 5, 12))
        dout = rng.normal(size=(3, 5, 12))
        out, cache = _attn_forward(m.params, cfg, "layer0", xn.reshape(15, 12), 5)
        grads = {}
        dx = _attn_backward(m.params, cfg, "layer0", cache, dout.reshape(15, 12), grads)
        ref_out, ref_dx, ref_grads = reference_attention(m.params, cfg, "layer0", xn, dout)
        assert_rel_close(out, ref_out)
        assert_rel_close(dx, ref_dx)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert_rel_close(g, ref_grads[name])

    @pytest.mark.parametrize("variant", VARIANT_LIST)
    def test_attention_matches_expression_form_bitwise(self, variant):
        cfg = ModelConfig(layers=1, hidden_dim=12, attn_heads=2, vocab=5, context=5,
                          norm_variant=variant, norm_heads=2)
        m, rng = perturbed_model(cfg, 34)
        xn = rng.normal(size=(3, 5, 12)) * 3.0  # wide scores: some softmax rows saturate
        dout = rng.normal(size=(3, 5, 12))
        out, cache = _attn_forward(m.params, cfg, "layer0", xn.reshape(15, 12), 5)
        grads = {}
        dx = _attn_backward(m.params, cfg, "layer0", cache, dout.reshape(15, 12), grads)
        ref_att, ref_out, ref_dx, ref_grads = expression_attention(
            m.params, cfg, "layer0", xn, dout)
        assert np.array_equal(cache["att"], ref_att)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name

    def test_ffn_matches_gelu_bitwise(self):
        cfg = ModelConfig(layers=1, hidden_dim=8, attn_heads=2, vocab=5, context=4)
        m, rng = perturbed_model(cfg, 32)
        w1, w2 = m.params["layer0.ffn.w1"], m.params["layer0.ffn.w2"]
        rows = rng.normal(size=(6, 8)) * 20.0  # spreads h1 across GELU's range
        dout = rng.normal(size=(6, 8))
        out, cache = _ffn_forward(m.params, "layer0", rows)
        grads = {}
        d_rows = _ffn_backward(m.params, "layer0", cache, dout, grads)
        h1 = rows @ w1
        act = gelu_ref(h1)
        assert np.array_equal(act, 0.5 * h1 * (1.0 + erf(h1 * (1.0 / np.sqrt(2.0)))))
        assert np.array_equal(out, act @ w2)
        dh1 = (dout @ w2.T) * gelu_prime_ref(h1)
        assert np.array_equal(d_rows, dh1 @ w1.T)
        assert np.array_equal(grads["layer0.ffn.w1"], rows.T @ dh1)
        assert np.array_equal(grads["layer0.ffn.w2"], act.T @ dout)
