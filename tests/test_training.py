"""Training loop behavior: tasks, curves, determinism, divergence handling."""

import io
import pickle
import re

import numpy as np
import pytest

from seednorm.core import make_rng
from seednorm.model import ModelConfig, build_model
from seednorm.training import (
    ByteFileTask,
    CopyTask,
    LossCurve,
    PairedCurves,
    TrainConfig,
    TrainingDiverged,
    compare_runs,
    train_model,
)


def small_cfg(variant="seednorm", **kw):
    base = dict(layers=1, hidden_dim=8, attn_heads=2, vocab=7, context=6,
                norm_variant=variant)
    base.update(kw)
    return ModelConfig(**base)


def small_train(**kw):
    base = dict(steps=3, batch_size=4, warmup_steps=2)
    base.update(kw)
    return TrainConfig(**base)


class TestCopyTask:
    def test_batch_layout(self):
        task = CopyTask(vocab=7, context=6)
        tokens, targets = task.batch(make_rng(0), 5)
        assert tokens.shape == (5, 6)
        assert targets.shape == (5, 6)
        full = np.concatenate([tokens, targets[:, -1:]], axis=1)
        half = 3
        # separator sits between the payload and its copy
        assert np.all(full[:, half] == task.sep_token)
        np.testing.assert_array_equal(full[:, :half], full[:, half + 1:])
        # payload never collides with the separator token
        assert full[:, :half].max() < task.sep_token

    def test_targets_shift_tokens_by_one(self):
        task = CopyTask(vocab=5, context=4)
        tokens, targets = task.batch(make_rng(1), 3)
        np.testing.assert_array_equal(tokens[:, 1:], targets[:, :-1])

    def test_deterministic_given_rng(self):
        task = CopyTask(vocab=7, context=6)
        a = task.batch(make_rng(9), 4)
        b = task.batch(make_rng(9), 4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_validation(self):
        with pytest.raises(ValueError, match="vocab"):
            CopyTask(vocab=2, context=4)
        with pytest.raises(ValueError, match="context"):
            CopyTask(vocab=5, context=3)
        with pytest.raises(ValueError, match="context"):
            CopyTask(vocab=5, context=0)


class TestByteFileTask:
    def test_windows_come_from_file(self, tmp_path):
        path = tmp_path / "data.bin"
        payload = bytes(range(200)) * 3
        path.write_bytes(payload)
        task = ByteFileTask(str(path), context=8)
        assert task.vocab == 256
        tokens, targets = task.batch(make_rng(0), 4)
        assert tokens.shape == (4, 8)
        data = np.frombuffer(payload, dtype=np.uint8)
        for row_t, row_y in zip(tokens, targets):
            window = np.concatenate([row_t, row_y[-1:]])
            # every window must appear verbatim in the file
            starts = np.where(data[: len(data) - 8] == window[0])[0]
            assert any(np.array_equal(data[s:s + 9], window) for s in starts)
        np.testing.assert_array_equal(tokens[:, 1:], targets[:, :-1])

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"ab")
        with pytest.raises(ValueError, match="short"):
            ByteFileTask(str(path), context=8)

    def test_smallest_file_is_one_it_can_sample(self, tmp_path):
        # context + 1 bytes hold one window, but batch draws its start below
        # size - context - 1, which would be 0
        path = tmp_path / "edge.bin"
        path.write_bytes(bytes(range(9)))
        with pytest.raises(ValueError, match="short"):
            ByteFileTask(str(path), context=8)
        path.write_bytes(bytes(range(10)))
        tokens, targets = ByteFileTask(str(path), context=8).batch(make_rng(0), 3)
        np.testing.assert_array_equal(tokens, np.tile(np.arange(8), (3, 1)))
        np.testing.assert_array_equal(targets, tokens + 1)


class TestLossCurve:
    def test_append_requires_increasing_steps(self):
        curve = LossCurve()
        curve.append(0, 1.0, 0.5, 0.1)
        curve.append(1, 0.9, 0.4, 0.2)
        with pytest.raises(ValueError, match="increasing"):
            curve.append(1, 0.8, 0.3, 0.3)

    def test_ema_recurrence(self):
        curve = LossCurve(ema_coef=0.9)
        losses = [2.0, 1.0, 4.0]
        for i, v in enumerate(losses):
            curve.append(i, v, 1.0, 0.0)
        ema = curve.ema()
        assert ema[0] == 2.0
        assert ema[1] == pytest.approx(0.9 * 2.0 + 0.1 * 1.0)
        assert ema[2] == pytest.approx(0.9 * ema[1] + 0.1 * 4.0)
        assert curve.final_ema() == pytest.approx(ema[2])

    def test_final_ema_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            LossCurve().final_ema()

    def test_csv_bytes(self):
        curve = LossCurve(ema_coef=0.5)
        curve.append(0, 1.5, 2.0, 0.25)
        fh = io.StringIO()
        curve.to_csv(fh)
        assert fh.getvalue() == "step,loss,grad_norm,ema\r\n0,1.5,2.0,1.5\r\n"

    def test_csv_wall_time_opt_in(self):
        curve = LossCurve()
        curve.append(0, 1.0, 1.0, 0.125)
        fh = io.StringIO()
        curve.to_csv(fh, include_wall_time=True)
        lines = fh.getvalue().split("\r\n")
        assert lines[0] == "step,loss,grad_norm,ema,wall_time"
        assert lines[1].endswith(",0.125")

    def test_empty_curve_csv_header_only(self):
        fh = io.StringIO()
        LossCurve().to_csv(fh)
        assert fh.getvalue() == "step,loss,grad_norm,ema\r\n"

    def test_json_dict(self):
        curve = LossCurve()
        curve.append(0, 1.0, 2.0, 0.5)
        d = curve.to_json_dict(include_wall_time=False)
        assert d["records"] == [{"step": 0, "loss": 1.0, "grad_norm": 2.0}]
        assert d["ema_coef"] == 0.99
        with_time = curve.to_json_dict(include_wall_time=True)
        assert with_time["records"][0]["wall_time"] == 0.5


class TestTrainModel:
    def test_zero_steps_empty_curve(self):
        res = train_model(small_cfg(), small_train(steps=0),
                          CopyTask(vocab=7, context=6), make_rng(0))
        assert len(res.curve.records) == 0

    def test_lr_zero_keeps_params(self):
        cfg = small_cfg()
        res = train_model(cfg, small_train(lr=0.0, weight_decay=0.0),
                          CopyTask(vocab=7, context=6), make_rng(3))
        # params should equal a fresh build from the same init stream
        ref = train_model(cfg, small_train(steps=0),
                          CopyTask(vocab=7, context=6), make_rng(3))
        for k, arr in res.model.params.items():
            assert np.array_equal(arr, ref.model.params[k]), k

    def test_same_seed_bitwise_curves(self):
        cfg = small_cfg()
        task = CopyTask(vocab=7, context=6)
        a = train_model(cfg, small_train(steps=5), task, make_rng(11)).curve
        b = train_model(cfg, small_train(steps=5), task, make_rng(11)).curve
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert [r.grad_norm for r in a.records] == [r.grad_norm for r in b.records]

    def test_losses_finite_and_recorded_in_order(self):
        curve = train_model(small_cfg(), small_train(steps=4),
                            CopyTask(vocab=7, context=6), make_rng(2)).curve
        steps = [r.step for r in curve.records]
        assert steps == [0, 1, 2, 3]
        assert all(np.isfinite(r.loss) for r in curve.records)
        assert all(r.wall_time >= 0 for r in curve.records)

    def test_beta_frozen_matches_rmsnorm_bitwise(self):
        # beta stays 0 so tanh(0)*alpha contributes exact zeros everywhere
        task = CopyTask(vocab=7, context=6)
        tcfg = small_train(steps=4, weight_decay=0.0, freeze=(".beta",))
        seed_curve = train_model(small_cfg("seednorm"), tcfg, task, make_rng(21)).curve
        rms_curve = train_model(small_cfg("rmsnorm"), small_train(steps=4, weight_decay=0.0),
                                task, make_rng(21)).curve
        assert [r.loss for r in seed_curve.records] == [r.loss for r in rms_curve.records]
        assert [r.grad_norm for r in seed_curve.records] == [r.grad_norm for r in rms_curve.records]

    def test_beta_frozen_shared_params_bitwise(self):
        task = CopyTask(vocab=7, context=6)
        tcfg = small_train(steps=4, weight_decay=0.0, freeze=(".beta",))
        res_a = train_model(small_cfg("seednorm"), tcfg, task, make_rng(21))
        res_b = train_model(small_cfg("rmsnorm"),
                            small_train(steps=4, weight_decay=0.0), task, make_rng(21))
        for k, arr in res_b.model.params.items():
            assert np.array_equal(res_a.model.params[k], arr), k
        assert np.all(res_a.model.params["layer0.attn_norm.beta"] == 0.0)

    def test_divergence_reports_step_and_site(self):
        cfg = small_cfg()
        model = build_model(cfg, make_rng(0))
        model.params["embed.weight"][:] = np.nan
        with pytest.raises(TrainingDiverged, match="step 0.*embed"):
            train_model(cfg, small_train(), CopyTask(vocab=7, context=6),
                        make_rng(0), model=model)

    def test_non_finite_parameter_named_when_no_activation_is(self):
        # the layer rejects its gamma before the slot's output exists
        cfg = small_cfg()
        model = build_model(cfg, make_rng(0))
        model.params["layer0.ffn_norm.gamma"][2] = np.inf
        with pytest.raises(TrainingDiverged) as exc:
            train_model(cfg, small_train(), CopyTask(vocab=7, context=6),
                        make_rng(0), model=model)
        assert (exc.value.step, exc.value.site) == (0, "layer0.ffn_norm.gamma")

    def test_token_outside_the_vocab_is_not_divergence(self):
        with pytest.raises(ValueError, match="^token id out of range$"):
            train_model(small_cfg(), small_train(), CopyTask(vocab=9, context=6),
                        make_rng(0))

    def test_batch_longer_than_the_context_is_not_divergence(self):
        with pytest.raises(ValueError, match="^sequence length 6 exceeds context 4$"):
            train_model(small_cfg(context=4), small_train(), CopyTask(vocab=7, context=6),
                        make_rng(0))

    @pytest.mark.parametrize("variant,hyper,site,quantity", [
        ("seednorm", dict(weight_decay=1e300), "layer0.ffn_norm", "gradient"),
        ("dyt", dict(lr=1e300), "layer0.q_norm", "activation"),
    ], ids=["weight-decay", "dyt-lr"])
    def test_overflow_inside_a_block_names_the_slot(self, variant, hyper, site, quantity):
        # every checkpoint and parameter stays finite: only the slot that
        # rejected its input or upstream gradient knows where the step failed
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            train_model(small_cfg(variant), small_train(steps=5, **hyper),
                        CopyTask(vocab=7, context=6), make_rng(0))
        assert exc.value.site == site
        assert str(exc.value).startswith(f"non-finite {quantity} at step ")

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_attrs(self):
        cfg = small_cfg()
        model = build_model(cfg, make_rng(0))
        model.params["unembed.weight"][:] = np.inf
        with pytest.raises(TrainingDiverged) as exc:
            train_model(cfg, small_train(), CopyTask(vocab=7, context=6),
                        make_rng(0), model=model)
        assert exc.value.step == 0
        assert exc.value.site == "logits"

    def test_divergence_survives_pickling(self):
        exc = TrainingDiverged(3, "layer0.attn_norm", "gradient")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is TrainingDiverged
        assert (back.step, back.site, back.quantity) == (3, "layer0.attn_norm", "gradient")
        assert str(back) == str(exc) == ("non-finite gradient at step 3; "
                                         "first non-finite site: layer0.attn_norm")

    @pytest.mark.parametrize("freeze", [("",), (".beta", "")])
    def test_empty_freeze_suffix_rejected(self, freeze):
        # every parameter name ends with "": the run would train nothing
        with pytest.raises(ValueError, match="empty freeze suffix"):
            TrainConfig(freeze=freeze)

    def test_bare_string_freeze_rejected(self):
        # iterated, ".beta" would be the suffixes ".", "b", "e", "t" and "a"
        with pytest.raises(ValueError, match="tuple of suffixes"):
            TrainConfig(freeze=".beta")

    def test_freeze_suffix_pins_parameter(self):
        cfg = small_cfg()
        task = CopyTask(vocab=7, context=6)
        res = train_model(cfg, small_train(weight_decay=0.0, freeze=(".gamma",)),
                          task, make_rng(5))
        ref = train_model(cfg, small_train(steps=0), task, make_rng(5))
        for k in res.model.params:
            if k.endswith(".gamma"):
                assert np.array_equal(res.model.params[k], ref.model.params[k]), k

    def test_decay_dynamic_off_pins_alpha_under_pure_decay(self):
        # freezing alpha's gradient isolates the decoupled decay term
        cfg = small_cfg()
        task = CopyTask(vocab=7, context=6)
        base = dict(steps=3, batch_size=4, warmup_steps=0, lr=0.01,
                    weight_decay=0.5, freeze=(".alpha", ".beta"))
        on = train_model(cfg, TrainConfig(**base), task, make_rng(8))
        off = train_model(cfg, TrainConfig(decay_dynamic=False, **base),
                          task, make_rng(8))
        name = "layer0.attn_norm.alpha"
        shrink = (1 - 0.01 * 0.5) ** 3
        assert np.allclose(on.model.params[name], shrink, rtol=1e-12)
        assert np.all(off.model.params[name] == 1.0)

    def test_resume_seam_uses_given_model(self):
        cfg = small_cfg()
        task = CopyTask(vocab=7, context=6)
        model = build_model(cfg, make_rng(99))
        marker = model.params["embed.weight"].copy()
        res = train_model(cfg, small_train(steps=0), task, make_rng(0), model=model)
        assert res.model is model
        assert np.array_equal(res.model.params["embed.weight"], marker)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="ema"):
            TrainConfig(ema=1.0)

    @pytest.mark.parametrize("name,value", [
        ("lr", -1.0), ("weight_decay", -1e-9), ("warmup_steps", -1), ("lr", float("nan")),
        ("lr", float("inf")), ("weight_decay", float("inf")), ("warmup_steps", float("inf")),
    ])
    def test_negative_rate_decay_or_warmup_rejected(self, name, value):
        # a negative rate or decay runs gradient ascent instead of failing, an
        # infinite one diverges, and an infinite warmup leaves every step at rate 0
        message = re.escape(f"{name} must be in [0, inf), got {value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("clip", [0.0, -1.0])
    def test_non_positive_clip_disables_clipping(self, clip):
        assert TrainConfig(grad_clip=clip).grad_clip == clip

    def test_nan_clip_rejected(self):
        # clip_gradients clips only when max_norm > 0, so a NaN clip would
        # turn clipping off without saying so
        with pytest.raises(ValueError, match="^grad_clip must not be NaN$"):
            TrainConfig(grad_clip=float("nan"))
        assert TrainConfig(grad_clip=float("inf")).grad_clip == float("inf")


class TestCompareRuns:
    def test_self_comparison_identical(self):
        task = CopyTask(vocab=7, context=6)
        pair = compare_runs(small_cfg(), "rmsnorm", "rmsnorm",
                            small_train(steps=3), task, seed=4)
        a = [r.loss for r in pair.curve_a.records]
        b = [r.loss for r in pair.curve_b.records]
        assert a == b

    def test_labels_and_csv(self):
        task = CopyTask(vocab=7, context=6)
        pair = compare_runs(small_cfg(), "seednorm", "rmsnorm",
                            small_train(steps=2), task, seed=4)
        assert pair.variant_a == "seednorm"
        assert pair.variant_b == "rmsnorm"
        fh = io.StringIO()
        pair.to_csv(fh)
        lines = fh.getvalue().split("\r\n")
        assert lines[0] == "step,loss_a,loss_b,ema_a,ema_b"
        assert len(lines) == 4  # header + 2 rows + trailing newline

    def test_json_dict_nested_curves(self):
        task = CopyTask(vocab=7, context=6)
        pair = compare_runs(small_cfg(), "seednorm", "rmsnorm",
                            small_train(steps=2), task, seed=4)
        d = pair.to_json_dict()
        assert d["variant_a"] == "seednorm"
        assert d["variant_b"] == "rmsnorm"
        assert len(d["curve_a"]["records"]) == 2
        assert "wall_time" not in d["curve_a"]["records"][0]


class TestPairedCurves:
    def test_mismatched_lengths_rejected(self):
        a = LossCurve()
        a.append(0, 1.0, 1.0, 0.0)
        b = LossCurve()
        with pytest.raises(ValueError, match="length"):
            PairedCurves("x", "y", a, b)
