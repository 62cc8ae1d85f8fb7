"""Forward passes against frozen high-precision oracles and reduction laws.

The frozen numbers were produced with mpmath at 50 digits; they pin the
implementation to the defining formulas rather than to itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seednorm.core import make_rng
from seednorm.forward import (
    ada_seednorm_forward,
    dyt_forward,
    layernorm_forward,
    mh_seednorm_forward,
    rmsnorm_forward,
    seednorm_forward,
)
from seednorm.params import Activation, ConditionParams, NormParams

X34 = np.array([[3.0, 4.0]])
R34 = np.array([[0.84852813742385702928, 1.131370849898476039]])


def params(dim, gamma=None, alpha=0.0, beta=None, **kw):
    g = np.ones(dim) if gamma is None else np.asarray(gamma, dtype=np.float64)
    return NormParams(gamma=g, alpha=alpha, beta=beta, **kw)


class TestFrozenValues:
    def test_rmsnorm_three_four(self):
        out, _ = rmsnorm_forward(X34, params(2, eps=0.0))
        np.testing.assert_allclose(out, R34, rtol=0, atol=1e-15)

    def test_seednorm_tanh_plus_one(self):
        # z = x . beta = 3, scale = tanh(3) * 1 + 1, applied to x/rms
        p = params(2, alpha=np.array([1.0, 1.0]), beta=np.array([1.0, 0.0]), eps=0.0)
        out, _ = seednorm_forward(X34, p)
        expect = np.array([[1.6928600942044132526, 2.2571467922725510035]])
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-15)

    def test_seednorm_sigmoid_activation(self):
        p = params(2, alpha=np.array([1.0, 1.0]), beta=np.array([1.0, 0.0]),
                   eps=0.0, activation=Activation.SIGMOID)
        out, _ = seednorm_forward(X34, p)
        assert out[0, 0] == pytest.approx(1.6568140870146532581, rel=0, abs=1e-15)

    def test_dyt_frozen(self):
        out, _ = dyt_forward(np.array([[1.0]]), params(1, gamma=[3.0], alpha=1.0, beta=[1.0]))
        assert out[0, 0] == pytest.approx(3.2847824678672946644, rel=0, abs=1e-15)

    def test_layernorm_one_three(self):
        p = params(2, eps=0.0)
        out, _ = layernorm_forward(np.array([[1.0, 3.0]]), p)
        np.testing.assert_allclose(out, [[-1.0, 1.0]], rtol=0, atol=1e-15)

    def test_ada_affine_composition(self):
        p = params(2, alpha=np.array([1.0, 1.0]), beta=np.zeros(2), eps=0.0)
        cond = ConditionParams(gamma_c=np.ones(2), eta_c=np.full(2, 5.0))
        out, _ = ada_seednorm_forward(X34, p, cond)
        expect = np.array([[6.6970562748477140586, 7.2627416997969520781]])
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)


class TestMultiHead:
    def test_matches_naive_fsum_reimplementation(self):
        # independent oracle: per-head dots and scales computed with
        # math.fsum loops, no shared code with the implementation
        rng = make_rng(7)
        dim, heads = 8, 2
        x = rng.standard_normal((3, dim))
        p = params(
            dim,
            gamma=rng.standard_normal(dim),
            alpha=rng.standard_normal(dim),
            beta=rng.standard_normal(dim),
            eps=0.0,
            n_heads=heads,
        )
        out, _ = mh_seednorm_forward(x, p)
        head_dim = dim // heads
        for i in range(x.shape[0]):
            rms = math.sqrt(math.fsum(v * v for v in x[i]) / dim)
            for h in range(heads):
                lo = h * head_dim
                z = math.fsum(x[i, lo + j] * p.beta[lo + j] for j in range(head_dim))
                sig = math.tanh(z)
                for j in range(lo, lo + head_dim):
                    want = (sig * p.alpha[j] + p.gamma[j]) * x[i, j] / rms
                    assert out[i, j] == pytest.approx(want, rel=1e-12)

    def test_dim_scaled_divides_by_head_width(self):
        x = np.array([[2.0, 4.0]])
        p_scaled = params(2, alpha=np.array([1.0, 1.0]), beta=np.array([1.0, 1.0]),
                          eps=0.0, dim_scaled=True)
        p_equiv = params(2, alpha=np.array([1.0, 1.0]), beta=np.array([0.5, 0.5]),
                         eps=0.0)
        a, ca = seednorm_forward(x, p_scaled)
        b, _ = seednorm_forward(x, p_equiv)
        np.testing.assert_array_equal(a, b)
        assert ca.tanh_arg[0, 0] == pytest.approx(3.0)

    def test_tanh_arg_shape_is_rows_by_heads(self):
        x = make_rng(0).standard_normal((5, 8))
        p = params(8, beta=np.zeros(8), n_heads=4)
        _, cache = mh_seednorm_forward(x, p)
        assert cache.tanh_arg.shape == (5, 4)
        assert cache.sigma_val.shape == (5, 4)

    def test_single_head_param_rejected_by_plain_entry(self):
        p = params(4, n_heads=2)
        with pytest.raises(ValueError, match="mh_seednorm"):
            seednorm_forward(np.ones((1, 4)), p)


class TestReductions:
    def test_beta_zero_is_rmsnorm_bitwise(self):
        rng = make_rng(11)
        x = rng.standard_normal((4, 6))
        gamma = rng.standard_normal(6)
        alpha = rng.standard_normal(6)
        p_dyn = params(6, gamma=gamma, alpha=alpha, beta=np.zeros(6), eps=1e-6)
        p_rms = params(6, gamma=gamma, eps=1e-6)
        a, _ = seednorm_forward(x, p_dyn)
        b, _ = rmsnorm_forward(x, p_rms)
        assert np.array_equal(a, b)

    def test_one_head_multi_head_identical_bitwise(self):
        rng = make_rng(13)
        x = rng.standard_normal((3, 8))
        p1 = params(8, gamma=rng.standard_normal(8), alpha=rng.standard_normal(8),
                    beta=rng.standard_normal(8), n_heads=1)
        single, _ = seednorm_forward(x, p1)
        multi, _ = mh_seednorm_forward(x, p1)
        assert np.array_equal(single, multi)

    def test_ada_zero_condition_is_unit_gamma_core_bitwise(self):
        rng = make_rng(17)
        x = rng.standard_normal((3, 4))
        p = params(4, gamma=rng.standard_normal(4), alpha=rng.standard_normal(4),
                   beta=rng.standard_normal(4))
        cond0 = ConditionParams(gamma_c=np.zeros(4), eta_c=np.zeros(4))
        ada, _ = ada_seednorm_forward(x, p, cond0)
        plain, _ = seednorm_forward(x, params(4, gamma=np.ones(4), alpha=p.alpha,
                                              beta=p.beta))
        assert np.array_equal(ada, plain)

    def test_ada_ignores_params_gamma(self):
        x = X34
        base = params(2, gamma=np.ones(2), alpha=np.array([1.0, 1.0]),
                      beta=np.array([1.0, 0.0]))
        weird = params(2, gamma=np.full(2, 99.0), alpha=np.array([1.0, 1.0]),
                       beta=np.array([1.0, 0.0]))
        cond = ConditionParams(gamma_c=np.ones(2), eta_c=np.zeros(2))
        a, _ = ada_seednorm_forward(x, base, cond)
        b, _ = ada_seednorm_forward(x, weird, cond)
        assert np.array_equal(a, b)


class TestWrittenOutReductions:
    """The forwards compute np.mean and np.var without their wrappers,
    broadcast in place of np.repeat and write intermediates in place; these
    pin them bitwise to the formulas they replaced."""

    # dim 1 is left out: its variance is exactly 0, so eps 0 divides by zero
    @pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
    def test_layernorm_matches_np_mean_var(self, dim):
        rng = make_rng(40 + dim)
        x = rng.standard_normal((4, dim)) * 2.0 + 0.5
        gamma, shift = rng.standard_normal(dim), rng.standard_normal(dim)
        for eps in (0.0, 1e-6):
            out, cache = layernorm_forward(x, params(dim, gamma=gamma, beta=shift, eps=eps))
            mean = np.mean(x, axis=1)
            inv_std = 1.0 / np.sqrt(np.var(x, axis=1) + eps)
            xhat = (x - mean[:, None]) * inv_std[:, None]
            assert np.array_equal(cache.inv_std, inv_std)
            assert np.array_equal(cache.r, xhat)
            assert np.array_equal(out, gamma * xhat + shift)

    @pytest.mark.parametrize("dim", [1, 3, 16, 64])
    def test_dyt_matches_expression_form(self, dim):
        # dyt_forward writes tanh(alpha * x) and the affine map in place
        rng = make_rng(50 + dim)
        x = rng.standard_normal((4, dim)) * 2.0
        gamma, shift = rng.standard_normal(dim), rng.standard_normal(dim)
        alpha = float(rng.uniform(-1.25, 1.25))
        out, cache = dyt_forward(x, params(dim, gamma=gamma, alpha=alpha, beta=shift))
        t = np.tanh(alpha * x)
        assert np.array_equal(cache.tanh_ax, t)
        assert np.array_equal(out, gamma * t + shift)

    @pytest.mark.parametrize("dim,heads", [(4, 1), (4, 2), (4, 4), (16, 1), (16, 2), (16, 4),
                                           (64, 2), (64, 4)])
    @pytest.mark.parametrize("scalar_alpha", [False, True], ids=["vector", "scalar"])
    def test_dynamic_coefficient_matches_np_repeat(self, dim, heads, scalar_alpha):
        rng = make_rng(dim * 10 + heads)
        x = rng.standard_normal((3, dim))
        alpha = float(rng.standard_normal()) if scalar_alpha else rng.standard_normal(dim)
        p = params(dim, gamma=rng.standard_normal(dim), alpha=alpha,
                   beta=rng.standard_normal(dim) / np.sqrt(dim), eps=1e-6, n_heads=heads)
        out, cache = mh_seednorm_forward(x, p)
        s = np.repeat(cache.sigma_val, dim // heads, axis=1) * p.alpha_row()
        assert np.array_equal(cache.s, s)
        assert np.array_equal(out, (s + p.gamma) * cache.r)


class TestScaleBehavior:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2.0, 4.0, 0.5, 8.0]))
    def test_rmsnorm_power_of_two_scale_invariance(self, seed, k):
        # powers of two scale the rms exactly, so the output is bitwise stable
        x = make_rng(seed).standard_normal((2, 8))
        p = params(8, eps=0.0)
        a, _ = rmsnorm_forward(x, p)
        b, _ = rmsnorm_forward(k * x, p)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**32 - 1))
    def test_rmsnorm_general_scale_invariance(self, seed):
        x = make_rng(seed).standard_normal((2, 8))
        p = params(8, eps=0.0)
        a, _ = rmsnorm_forward(x, p)
        b, _ = rmsnorm_forward(3.7 * x, p)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_seednorm_row_rms_of_output_tracks_scale(self):
        # the dynamic coefficient moves the output norm with input scale,
        # unlike rmsnorm whose output is scale-free
        x = X34
        p = params(2, alpha=np.array([1.0, 1.0]), beta=np.array([1.0, 0.0]), eps=0.0)
        small, _ = seednorm_forward(0.1 * x, p)
        large, _ = seednorm_forward(10.0 * x, p)
        assert np.linalg.norm(large) > np.linalg.norm(small)


class TestValidationErrors:
    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            rmsnorm_forward(np.ones((1, 3)), params(2))

    def test_nonfinite_input(self):
        with pytest.raises(ValueError, match="finite"):
            rmsnorm_forward(np.array([[np.nan, 1.0]]), params(2))

    def test_condition_dim_mismatch(self):
        p = params(2)
        cond = ConditionParams(gamma_c=np.zeros(3), eta_c=np.zeros(3))
        with pytest.raises(ValueError, match="condition"):
            ada_seednorm_forward(X34, p, cond)

    @pytest.mark.parametrize("forward", [layernorm_forward, dyt_forward],
                             ids=["layernorm", "dyt"])
    def test_shift_dim(self, forward):
        # the shift rides in beta, whose width NormParams checks
        with pytest.raises(ValueError, match="beta dim 3 != gamma dim 2"):
            forward(X34, params(2, alpha=1.0, beta=np.zeros(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_dyt_rejects_non_finite_alpha(self, bad):
        # at x = 0, tanh(inf * 0) would be nan
        with pytest.raises(ValueError, match="alpha must be finite"):
            dyt_forward(np.array([[1.0, -2.0, 0.0]]), params(3, alpha=bad))

    @pytest.mark.parametrize("dim", [3, 1], ids=["dim", "one"])
    def test_dyt_rejects_vector_alpha(self, dim):
        with pytest.raises(ValueError, match="dyt alpha must be a scalar"):
            dyt_forward(np.ones((1, dim)), params(dim, alpha=np.ones(dim)))


class TestCacheParams:
    def test_cache_holds_the_params_it_ran_with(self):
        p = params(4, alpha=np.ones(4), beta=np.full(4, 0.25), n_heads=2)
        for fwd in (rmsnorm_forward, layernorm_forward, mh_seednorm_forward):
            assert fwd(np.ones((1, 4)), p)[1].params is p

    def test_dyt_cache_holds_the_params_it_ran_with(self):
        p = params(3, gamma=[1.0, -2.0, 3.0], alpha=np.float64(0.5), beta=np.ones(3))
        _, cache = dyt_forward(np.ones((1, 3)), p)
        assert cache.params is p
        assert type(cache.params.alpha) is float and cache.params.alpha == 0.5


class TestNormParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["gamma", "alpha", "beta"])
    def test_rejects_non_finite_vector(self, name, bad):
        fields = {"gamma": np.ones(3), "alpha": np.ones(3), "beta": np.zeros(3)}
        fields[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            NormParams(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_scalar_alpha(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            NormParams(gamma=np.ones(3), alpha=bad, beta=np.zeros(3))

    def test_activation_string_coerced(self):
        p = params(2, activation="sigmoid")
        assert p.activation is Activation.SIGMOID

    def test_alpha_none_is_zero(self):
        p = params(3, alpha=None)
        assert type(p.alpha) is float and p.alpha == 0.0

    def test_default_beta_is_zero(self):
        p = params(3)
        assert p.beta.dtype == np.float64
        assert np.array_equal(p.beta, np.zeros(3))
