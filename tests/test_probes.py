"""Analysis probes: drift bound, variance law, ODE identity, cost model."""

import numpy as np
import pytest

from seednorm import probes
from seednorm.core import make_rng, rms_rows
from seednorm.params import NormParams
from seednorm.probes import (
    ProbeReport,
    estimate_cost,
    probe_dot_variance,
    probe_dyt_rmsnorm_ode,
    probe_scale_insensitivity,
)


class TestProbeReport:
    def test_two_sided_rule(self):
        r = ProbeReport.build("x", 1, statistic=1.05, expected=1.0, tolerance=0.1)
        assert r.passed
        r = ProbeReport.build("x", 1, statistic=1.2, expected=1.0, tolerance=0.1)
        assert not r.passed

    def test_one_sided_rule(self):
        r = ProbeReport.build("x", 1, statistic=0.5, expected=1.0, tolerance=0.0,
                              one_sided=True)
        assert r.passed
        r = ProbeReport.build("x", 1, statistic=1.5, expected=1.0, tolerance=0.0,
                              one_sided=True)
        assert not r.passed

    @pytest.mark.parametrize("statistic", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("one_sided", [False, True], ids=["two-sided", "one-sided"])
    def test_non_finite_statistic_fails(self, statistic, one_sided):
        r = ProbeReport.build("x", 1, statistic=statistic, expected=0.0,
                              tolerance=float("inf"), one_sided=one_sided)
        assert not r.passed

    def test_to_dict_uses_pass_key(self):
        d = ProbeReport.build("x", 1, 0.0, 0.0, 1.0).to_dict()
        assert d["pass"] is True
        assert "passed" not in d


class TestCostModel:
    def test_unit_config(self):
        est = estimate_cost(1, 1, 1)
        assert est.extra_params == 10
        assert est.extra_madds == 15

    def test_reference_shape(self):
        # 16 layers, width 2048, 16 heads
        est = estimate_cost(16, 2048, 16)
        assert est.extra_params == 143360
        assert est.extra_madds == 286655

    @pytest.mark.parametrize("layers,dim,heads", [(2, 64, 4), (3, 96, 3)])
    def test_formula_decomposition(self, layers, dim, heads):
        est = estimate_cost(layers, dim, heads)
        head_dim = dim // heads
        assert est.extra_params == 4 * layers * dim + 4 * layers * head_dim + 2 * dim
        assert est.extra_madds == (4 * dim - 1) * (2 * layers + 1) + (4 * head_dim - 1) * (2 * layers)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            estimate_cost(2, 10, 3)

    def test_positive_args(self):
        with pytest.raises(ValueError):
            estimate_cost(0, 8, 1)


class TestScaleInsensitivity:
    def params(self, dim, beta):
        return NormParams(gamma=np.ones(dim), alpha=np.full(dim, 1.0), beta=beta,
                          eps=0.0)

    def test_beta_zero_drift_exactly_zero(self):
        p = self.params(8, np.zeros(8))
        rep = probe_scale_insensitivity(p, (2.0, 1000.0), make_rng(0))
        assert rep.passed
        for detail in rep.details:
            assert detail["max_drift"] == 0.0
            assert detail["tightness"] == 0.0

    def test_general_beta_within_bound(self):
        rng = make_rng(1)
        p = self.params(8, rng.standard_normal(8))
        rep = probe_scale_insensitivity(p, (2.0, 10.0, 1000.0), rng)
        assert rep.passed
        for detail in rep.details:
            assert detail["max_drift"] <= detail["max_bound"]
            assert detail["tightness"] <= 1.0

    def test_forward_matches_closed_form(self):
        rng = make_rng(2)
        p = self.params(6, rng.standard_normal(6))
        rep = probe_scale_insensitivity(p, (3.0,), rng)
        assert rep.details[0]["max_residual"] <= 1e-12

    def test_normalized_direction_cancels_scale(self):
        rng = make_rng(3)
        p = self.params(6, rng.standard_normal(6))
        rep = probe_scale_insensitivity(p, (7.0,), rng)
        assert rep.details[0]["max_r_rel_drift"] <= 1e-12

    def test_probe_forces_eps_zero(self):
        # a nonzero eps in the params must not break the exact cancellation
        p = NormParams(gamma=np.ones(4), alpha=np.ones(4),
                       beta=make_rng(4).standard_normal(4), eps=1e-6)
        rep = probe_scale_insensitivity(p, (10.0,), make_rng(5))
        assert rep.passed

    def test_drift_bound_must_fit_float64(self):
        p = NormParams(gamma=np.ones(8), alpha=np.full(8, 1e308), beta=np.zeros(8), eps=0.0)
        with pytest.raises(ValueError, match="alpha out of range"):
            probe_scale_insensitivity(p, [2.0], make_rng(0))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            probe_scale_insensitivity(self.params(4, np.zeros(4)), (0.0,), make_rng(0))


class TestDotVariance:
    def test_normal_full_and_per_head(self):
        rep = probe_dot_variance(16, 4, 1.0, 20000, make_rng(0))
        assert rep.passed
        full, head = rep.details
        assert full["check"] == "full_width"
        assert abs(full["ratio"] - 1.0) <= 0.1
        assert abs(head["head_to_full_ratio"] - 0.25) <= 0.05

    def test_variance_grows_with_width(self):
        lo = probe_dot_variance(4, 1, 1.0, 20000, make_rng(1))
        hi = probe_dot_variance(64, 1, 1.0, 20000, make_rng(2))
        assert hi.details[0]["var_estimate"] > 8 * lo.details[0]["var_estimate"]

    def test_sigma_fourth_power_law(self):
        rep = probe_dot_variance(16, 1, 2.0, 20000, make_rng(3))
        assert rep.details[0]["expected"] == 16 * 2.0**4
        assert rep.passed

    def test_uniform_distribution(self):
        rep = probe_dot_variance(16, 2, 1.0, 20000, make_rng(4), dist="uniform")
        assert rep.passed

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError, match="samples"):
            probe_dot_variance(8, 1, 1.0, 100, make_rng(0))

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            probe_dot_variance(10, 3, 1.0, 20000, make_rng(0))

    @pytest.mark.parametrize("sigma", [0.0, float("nan"), float("inf")])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            probe_dot_variance(8, 1, sigma, 20000, make_rng(0))

    @pytest.mark.parametrize("sigma", [1e200, 1e-100])
    def test_sigma_fourth_power_must_fit_float64(self, sigma):
        with pytest.raises(ValueError, match="out of range"):
            probe_dot_variance(64, 1, sigma, 10**4, make_rng(0))

    def test_overflow_in_range_fails_quietly(self):
        # 64 * sigma**4 fits, but the squared dot products of the estimate
        # overflow: an inf statistic, no warning, no pass
        rep = probe_dot_variance(64, 1, 1e76, 10**4, make_rng(0))
        assert not rep.passed
        assert rep.statistic == float("inf")

    def test_unknown_dist(self):
        with pytest.raises(ValueError, match="dist"):
            probe_dot_variance(8, 1, 1.0, 20000, make_rng(0), dist="cauchy")


class TestOdeProbe:
    @pytest.mark.parametrize("c,dim", [(1.0, 4), (0.5, 16), (2.0, 64)])
    def test_identity_and_residual(self, c, dim):
        rep = probe_dyt_rmsnorm_ode(c, dim, rng=make_rng(0))
        assert rep.passed
        jac, ode, anchors = rep.details
        assert jac["max_abs_diff"] <= 1e-12
        assert ode["max_abs_residual"] <= 1e-10

    @pytest.mark.parametrize("c", [1e-4, 1e-5])
    def test_small_c_passes_on_a_tolerance_scaled_by_c(self, c):
        rep = probe_dyt_rmsnorm_ode(c, 4, rng=make_rng(0))
        jac, ode, _ = rep.details
        assert rep.passed, rep.details
        assert jac["tolerance"] == 1e-12 / c
        assert ode["tolerance"] == 1e-10 / c

    @pytest.mark.parametrize("c", [1.0, 1e-5])
    @pytest.mark.parametrize("wrong", ["dim_minus_one", "relative_1e-9"])
    def test_wrong_jacobian_fails(self, c, wrong, monkeypatch):
        """The diagonal built from a wrong RMS: dim - 1 for dim in its mean,
        or the right one off by one part in 1e9."""
        def wrong_rms(x, eps):
            if wrong == "dim_minus_one":
                return np.sqrt(np.sum(x * x, axis=1) / (x.shape[1] - 1) + eps)
            return rms_rows(x, eps) * (1.0 + 1e-9)

        monkeypatch.setattr(probes, "rms_rows", wrong_rms)
        rep = probe_dyt_rmsnorm_ode(c, 4, rng=make_rng(0))
        jac = rep.details[0]
        assert not rep.passed
        assert jac["max_abs_diff"] > 100 * jac["tolerance"]

    def test_anchor_values(self):
        rep = probe_dyt_rmsnorm_ode(2.0, 9, rng=make_rng(1))
        anchors = rep.details[2]
        assert anchors["r_at_zero"] == 0.0
        assert anchors["slope_at_zero"] == pytest.approx(0.5, rel=1e-12)
        assert anchors["saturation_level"] == pytest.approx(3.0)

    def test_saturation_approached_at_span(self):
        rep = probe_dyt_rmsnorm_ode(1.0, 4, span=20.0, rng=make_rng(2))
        anchors = rep.details[2]
        assert anchors["r_at_span"] == pytest.approx(anchors["saturation_level"], rel=1e-6)

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError, match="c"):
            probe_dyt_rmsnorm_ode(0.0, 4)
        # NaN residuals would drop out of max() and read as a pass
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="c"):
                probe_dyt_rmsnorm_ode(bad, 4)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_c_cubed_must_fit_float64(self, c):
        with pytest.raises(ValueError, match="out of range"):
            probe_dyt_rmsnorm_ode(c, 4)

    @pytest.mark.parametrize("span", [0.0, -1.0, float("nan"), 1e308])
    def test_span_must_give_a_finite_grid(self, span):
        with pytest.raises(ValueError, match="span"):
            probe_dyt_rmsnorm_ode(1.0, 4, span=span)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            probe_dyt_rmsnorm_ode(1.0, 4, grid_points=3)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = probe_dot_variance(8, 2, 1.0, 20000, make_rng(42))
        b = probe_dot_variance(8, 2, 1.0, 20000, make_rng(42))
        assert a.to_dict() == b.to_dict()
