"""The randomized gradient-check suite that backs the CLI and acceptance run."""

import numpy as np
import pytest

from seednorm import gradcheck
from seednorm.backward import relative_error
from seednorm.core import make_rng
from seednorm.params import NormParams
from seednorm.gradcheck import (
    DEFAULT_DIMS,
    VARIANTS,
    check_variant,
    run_gradcheck,
    run_trial,
)


def non_finite_d_x(value):
    """A seednorm backward whose input gradient is ``value`` everywhere."""
    original = gradcheck.seednorm_backward

    def backward(cache, upstream):
        b = original(cache, upstream)
        b.d_x[...] = value
        return b

    return backward


class TestRunTrial:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_single_trial_tight(self, variant):
        res = run_trial(variant, dim=6, rows=2, rng=make_rng(1),
                        n_heads=2 if variant == "mh_seednorm" else 1)
        assert max(res.values()) <= 1e-6
        assert set(res) <= {"d_gamma", "d_alpha", "d_beta", "d_x"}

    def test_trial_reports_all_params_for_dynamic(self):
        res = run_trial("seednorm", dim=4, rows=1, rng=make_rng(2))
        assert set(res) == {"d_gamma", "d_alpha", "d_beta", "d_x"}

    def test_trial_rmsnorm_params(self):
        # the point only differentiates what the layer owns
        res = run_trial("rmsnorm", dim=4, rows=1, rng=make_rng(3))
        assert set(res) == {"d_gamma", "d_x"}

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_reaches_swapped_layer(self, variant, direction, monkeypatch):
        # a tracer or a mutation test swaps a layer function in the gradcheck
        # module; the trial's analytic pass and every oracle forward must
        # call the swapped one
        name = f"{variant}_{direction}"
        original = getattr(gradcheck, name)
        oracle = gradcheck.finite_difference_jacobian
        kinds, evals = [], []

        def spy(*args):
            result = original(*args)
            kinds.append((result[1] if direction == "forward" else args[0]).kind)
            return result

        def counted_oracle(fwd, x, u, p, fields, step):
            def counted(*args):
                evals.append(1)
                return fwd(*args)

            return oracle(counted, x, u, p, fields, step)

        monkeypatch.setattr(gradcheck, name, spy)
        monkeypatch.setattr(gradcheck, "finite_difference_jacobian", counted_oracle)
        run_trial(variant, dim=4, rows=1, rng=make_rng(4))
        assert evals
        assert kinds == [variant] * (1 + len(evals) if direction == "forward" else 1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_builds_one_norm_params_per_trial(self, variant, monkeypatch):
        # the analytic pass and every oracle forward share one NormParams;
        # the oracle perturbs its arrays in place instead of rebuilding it
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return NormParams(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "NormParams", counted)
        run_trial(variant, dim=4, rows=3, rng=make_rng(6),
                  n_heads=2 if variant == "mh_seednorm" else 1)
        assert len(built) == 1

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_trial("nope", dim=4, rows=1, rng=make_rng(0))


class TestCheckVariant:
    def test_deterministic_for_seed(self):
        a = check_variant("seednorm", dims=(4, 8), trials=10, seed=5)
        b = check_variant("seednorm", dims=(4, 8), trials=10, seed=5)
        assert a.max_rel_error == b.max_rel_error
        assert a.per_param_max == b.per_param_max

    def test_rmsnorm_collects_orthogonality_extra(self):
        c = check_variant("rmsnorm", dims=(4,), trials=5, seed=0)
        assert "dx_dot_x_max" in c.extras
        assert c.extras["dx_dot_x_max"] <= 1e-12

    def test_trial_count_respected(self):
        c = check_variant("dyt", dims=(4,), trials=7, seed=1)
        assert c.trials == 7

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trial_count_rejected(self, trials):
        # no trial run means nothing was checked, which must not read as a pass
        with pytest.raises(ValueError, match="trials"):
            check_variant("rmsnorm", dims=(4,), trials=trials)

    @pytest.mark.parametrize("dims", [(), (0,), (4, -1)])
    def test_bad_dims_rejected(self, dims):
        # an empty or non-positive width used to fail inside NumPy
        with pytest.raises(ValueError, match="dims"):
            check_variant("dyt", dims=dims, trials=2)

    def test_multi_head_skips_invalid_head_counts(self):
        # dim 2 cannot host 4 heads; the suite must stay inside valid configs
        c = check_variant("mh_seednorm", dims=(2,), trials=5, seed=2, heads=(2, 4))
        assert c.max_rel_error <= 1e-5


class TestRelativeError:
    @pytest.mark.parametrize("analytic,numeric", [(np.inf, 1.0), (1.0, np.inf),
                                                  (np.inf, np.inf), (-np.inf, np.inf)])
    def test_an_infinity_gives_nan_without_a_warning(self, analytic, numeric):
        assert np.isnan(relative_error(np.array([0.5, analytic]), np.array([0.5, numeric])))


class TestRunGradcheck:
    def test_report_shape_and_pass(self):
        report = run_gradcheck(dims=(4, 8), trials=5, seed=0)
        assert report["command"] == "gradcheck"
        assert report["pass"] is True
        assert report["max_rel_error"] <= 1e-5
        names = [v["variant"] for v in report["variants"]]
        assert names == ["rmsnorm", "dyt", "seednorm", "mh_seednorm"]
        for entry in report["variants"]:
            assert "elapsed_s" not in entry  # timing is opt-in

    def test_timing_opt_in(self):
        report = run_gradcheck(variants=("rmsnorm",), dims=(4,), trials=2, seed=0,
                               timing=True)
        assert report["variants"][0]["elapsed_s"] >= 0.0

    def test_zero_tolerance_fails(self):
        report = run_gradcheck(variants=("rmsnorm",), dims=(4,), trials=2, seed=0,
                               tolerance=0.0)
        assert report["pass"] is False

    def test_negative_tolerance_rejected_before_any_trial(self, monkeypatch):
        # no error can be below a negative tolerance, so the run cannot pass
        calls = []
        monkeypatch.setattr(gradcheck, "run_trial", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="tolerance"):
            run_gradcheck(variants=("rmsnorm",), dims=(4,), trials=2, tolerance=-1.0)
        assert calls == []

    def test_reports_identical_across_runs(self):
        a = run_gradcheck(dims=(4,), trials=3, seed=9)
        b = run_gradcheck(dims=(4,), trials=3, seed=9)
        assert a == b

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_analytic_gradient_fails(self, bad, monkeypatch):
        # Python's max drops a NaN unless it comes first; the report must not
        monkeypatch.setattr(gradcheck, "seednorm_backward", non_finite_d_x(bad))
        with np.errstate(invalid="ignore"):  # inf / inf in relative_error
            report = run_gradcheck(variants=("seednorm",), dims=(4,), trials=3)
        [entry] = report["variants"]
        assert np.isnan(entry["per_param_max"]["d_x"])
        assert np.isnan(entry["max_rel_error"])
        assert np.isnan(report["max_rel_error"])
        assert report["pass"] is False

    def test_infinite_analytic_gradient_fails_under_warning_filter(self, monkeypatch):
        # pytest turns RuntimeWarning into an error here, as a strict library caller may
        monkeypatch.setattr(gradcheck, "seednorm_backward", non_finite_d_x(np.inf))
        report = run_gradcheck(variants=("seednorm",), dims=(4,), trials=3)
        assert np.isnan(report["variants"][0]["per_param_max"]["d_x"])
        assert np.isnan(report["max_rel_error"])
        assert report["pass"] is False

    def test_default_dims_cover_spec_range(self):
        assert DEFAULT_DIMS == (2, 4, 8, 16, 64)
