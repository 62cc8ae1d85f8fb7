"""Hand-derived backward passes against the finite-difference oracle.

Each layer's analytic gradients were frozen only after agreeing with central
differences of sum(upstream * forward(...)); these tests keep that agreement
executable. Seeds are fixed so the sampled points stay away from activation
kinks and from coordinates where both gradients vanish.
"""

import math

import numpy as np
import pytest

from seednorm.backward import (
    EvalPoint,
    dyt_backward,
    finite_difference_jacobian,
    layernorm_backward,
    mh_seednorm_backward,
    relative_error,
    rmsnorm_backward,
    seednorm_backward,
)
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

TOL = 1e-6


def draw_params(rng, dim, **kw):
    return NormParams(
        gamma=rng.standard_normal(dim),
        alpha=rng.standard_normal(dim),
        beta=rng.standard_normal(dim),
        **kw,
    )


def assert_bundle_close(analytic, numeric, tol=TOL, check=("d_gamma", "d_alpha", "d_beta", "d_x")):
    for name in check:
        a = getattr(analytic, name)
        n = getattr(numeric, name)
        assert (a is None) == (n is None), name
        if a is None:
            continue
        err = relative_error(np.asarray(a), np.asarray(n))
        assert err <= tol, f"{name}: rel err {err:.3e}"


class TestRmsnorm:
    @pytest.mark.parametrize("dim,rows,eps", [(2, 1, 0.0), (5, 3, 0.0), (8, 2, 1e-6)])
    def test_fd_agreement(self, dim, rows, eps):
        rng = make_rng(100 + dim)
        x = rng.standard_normal((rows, dim))
        u = rng.standard_normal((rows, dim))
        p = NormParams(gamma=rng.standard_normal(dim), eps=eps)
        _, cache = rmsnorm_forward(x, p)
        got = rmsnorm_backward(cache, u)
        want = finite_difference_jacobian(
            lambda xx, g, a, b: rmsnorm_forward(xx, NormParams(gamma=g, eps=eps))[0],
            EvalPoint(x=x, u=u, gamma=p.gamma),
        )
        assert_bundle_close(got, want, check=("d_gamma", "d_x"))

    def test_input_grad_orthogonal_to_input(self):
        # at eps 0 the output is scale-free, so d_x has no radial component
        rng = make_rng(5)
        x = rng.standard_normal((4, 6))
        u = rng.standard_normal((4, 6))
        p = NormParams(gamma=rng.standard_normal(6), eps=0.0)
        _, cache = rmsnorm_forward(x, p)
        g = rmsnorm_backward(cache, u)
        dots = np.abs(np.sum(g.d_x * x, axis=1))
        scale = np.linalg.norm(g.d_x, axis=1) * np.linalg.norm(x, axis=1)
        assert np.all(dots <= 1e-12 * np.maximum(scale, 1.0))

    def test_alpha_beta_grads_are_zero(self):
        p = NormParams(gamma=np.ones(3))
        _, cache = rmsnorm_forward(np.array([[1.0, 2.0, 3.0]]), p)
        g = rmsnorm_backward(cache, np.ones((1, 3)))
        assert np.all(np.asarray(g.d_alpha) == 0.0)
        assert np.all(np.asarray(g.d_beta) == 0.0)


class TestLayernorm:
    @pytest.mark.parametrize("dim,rows", [(2, 1), (6, 3)])
    def test_fd_agreement(self, dim, rows):
        rng = make_rng(200 + dim)
        x = rng.standard_normal((rows, dim))
        u = rng.standard_normal((rows, dim))
        p = NormParams(gamma=rng.standard_normal(dim), beta=rng.standard_normal(dim), eps=1e-6)
        _, cache = layernorm_forward(x, p)
        got = layernorm_backward(cache, u)
        want = finite_difference_jacobian(
            lambda xx, g, a, b: layernorm_forward(xx, NormParams(g, beta=b, eps=1e-6))[0],
            EvalPoint(x=x, u=u, gamma=p.gamma, beta=p.beta),
        )
        assert_bundle_close(got, want, check=("d_gamma", "d_beta", "d_x"))

    def test_shift_gradient_is_column_sum(self):
        rng = make_rng(9)
        x = rng.standard_normal((3, 4))
        u = rng.standard_normal((3, 4))
        p = NormParams(gamma=np.ones(4), eps=1e-6)
        _, cache = layernorm_forward(x, p)
        g = layernorm_backward(cache, u)
        np.testing.assert_allclose(g.d_beta, u.sum(axis=0), rtol=1e-15)


class TestDyt:
    def test_fd_agreement(self):
        rng = make_rng(31)
        x = rng.standard_normal((3, 5))
        u = rng.standard_normal((3, 5))
        gamma = rng.standard_normal(5)
        shift = rng.standard_normal(5)
        alpha = 0.7
        _, cache = dyt_forward(x, NormParams(gamma, alpha, shift))
        got = dyt_backward(cache, u)
        want = finite_difference_jacobian(
            lambda xx, g, a, b: dyt_forward(xx, NormParams(g, a, b))[0],
            EvalPoint(x=x, u=u, gamma=gamma, alpha=np.array(alpha), beta=shift),
        )
        assert isinstance(got.d_alpha, float)
        assert_bundle_close(got, want)

    def test_saturation_kills_input_gradient(self):
        x = np.array([[50.0, -50.0, 0.0]])
        _, cache = dyt_forward(x, NormParams(np.ones(3), 1.0))
        g = dyt_backward(cache, np.ones((1, 3)))
        assert abs(g.d_x[0, 0]) < 1e-15
        assert abs(g.d_x[0, 1]) < 1e-15
        assert g.d_x[0, 2] == pytest.approx(1.0)  # sech^2(0) = 1


class TestSeednorm:
    @pytest.mark.parametrize("dim,rows,eps", [(2, 1, 0.0), (4, 3, 0.0), (8, 2, 1e-6)])
    def test_fd_agreement(self, dim, rows, eps):
        rng = make_rng(300 + dim)
        x = rng.standard_normal((rows, dim))
        u = rng.standard_normal((rows, dim))
        p = draw_params(rng, dim, eps=eps)
        _, cache = seednorm_forward(x, p)
        got = seednorm_backward(cache, u)

        def f(xx, g, a, b):
            return seednorm_forward(xx, NormParams(gamma=g, alpha=a, beta=b, eps=eps))[0]

        want = finite_difference_jacobian(f, EvalPoint(x=x, u=u, gamma=p.gamma,
                                                       alpha=p.alpha, beta=p.beta))
        assert_bundle_close(got, want)

    def test_fd_agreement_scalar_alpha(self):
        rng = make_rng(41)
        x = rng.standard_normal((2, 4))
        u = rng.standard_normal((2, 4))
        p = NormParams(gamma=rng.standard_normal(4), alpha=0.9,
                       beta=rng.standard_normal(4), eps=0.0)
        _, cache = seednorm_forward(x, p)
        got = seednorm_backward(cache, u)
        assert isinstance(got.d_alpha, float)

        def f(xx, g, a, b):
            return seednorm_forward(xx, NormParams(gamma=g, alpha=float(a), beta=b, eps=0.0))[0]

        want = finite_difference_jacobian(f, EvalPoint(x=x, u=u, gamma=p.gamma,
                                                       alpha=np.array(0.9), beta=p.beta))
        assert_bundle_close(got, want)

    @pytest.mark.parametrize("act", [Activation.SIGMOID, Activation.HARDTANH])
    def test_fd_agreement_other_activations(self, act):
        # seed chosen so no hardtanh pre-activation sits within 1e-3 of a kink
        rng = make_rng(53)
        x = rng.standard_normal((3, 4))
        u = rng.standard_normal((3, 4))
        p = draw_params(rng, 4, eps=0.0, activation=act)
        _, cache = seednorm_forward(x, p)
        assert np.all(np.abs(np.abs(cache.tanh_arg) - 1.0) > 1e-3)
        got = seednorm_backward(cache, u)

        def f(xx, g, a, b):
            return seednorm_forward(
                xx, NormParams(gamma=g, alpha=a, beta=b, eps=0.0, activation=act)
            )[0]

        want = finite_difference_jacobian(f, EvalPoint(x=x, u=u, gamma=p.gamma,
                                                       alpha=p.alpha, beta=p.beta))
        assert_bundle_close(got, want)

    def test_hardtanh_saturated_region_zero_coefficient_grad(self):
        # past the clip the activation is flat: beta and the coefficient part
        # of d_x stop responding
        p = NormParams(gamma=np.ones(2), alpha=np.ones(2), beta=np.array([5.0, 5.0]),
                       eps=0.0, activation=Activation.HARDTANH)
        x = np.array([[2.0, 3.0]])  # z = 25, deep in the flat region
        _, cache = seednorm_forward(x, p)
        g = seednorm_backward(cache, np.ones((1, 2)))
        assert np.all(g.d_beta == 0.0)

    def test_beta_zero_matches_rmsnorm_backward_bitwise(self):
        rng = make_rng(61)
        x = rng.standard_normal((3, 5))
        u = rng.standard_normal((3, 5))
        gamma = rng.standard_normal(5)
        alpha = rng.standard_normal(5)
        p_dyn = NormParams(gamma=gamma, alpha=alpha, beta=np.zeros(5), eps=1e-6)
        p_rms = NormParams(gamma=gamma, eps=1e-6)
        _, c_dyn = seednorm_forward(x, p_dyn)
        _, c_rms = rmsnorm_forward(x, p_rms)
        g_dyn = seednorm_backward(c_dyn, u)
        g_rms = rmsnorm_backward(c_rms, u)
        assert np.array_equal(g_dyn.d_gamma, g_rms.d_gamma)
        assert np.array_equal(g_dyn.d_x, g_rms.d_x)
        # the coefficient path is dead: alpha sees tanh(0) = 0 exactly
        assert np.all(np.asarray(g_dyn.d_alpha) == 0.0)

    def test_v_shape_in_fd_step(self):
        # truncation dominates at coarse steps, roundoff at fine ones; the
        # middle step must beat both ends or the oracle itself is suspect
        rng = make_rng(71)
        x = rng.standard_normal((2, 4))
        u = rng.standard_normal((2, 4))
        p = draw_params(rng, 4, eps=0.0)
        _, cache = seednorm_forward(x, p)
        got = seednorm_backward(cache, u)

        def f(xx, g, a, b):
            return seednorm_forward(xx, NormParams(gamma=g, alpha=a, beta=b, eps=0.0))[0]

        point = EvalPoint(x=x, u=u, gamma=p.gamma, alpha=p.alpha, beta=p.beta)
        errs = {}
        for step in (1e-3, 1e-5, 1e-7):
            want = finite_difference_jacobian(f, point, step=step)
            errs[step] = max(
                relative_error(got.d_x, want.d_x),
                relative_error(got.d_beta, want.d_beta),
            )
        assert errs[1e-5] < errs[1e-3]
        assert errs[1e-5] < errs[1e-7]


class TestMultiHead:
    @pytest.mark.parametrize("heads,dim_scaled", [(2, False), (4, False), (2, True), (4, True)])
    def test_fd_agreement(self, heads, dim_scaled):
        rng = make_rng(400 + heads + int(dim_scaled))
        dim = 8
        x = rng.standard_normal((3, dim))
        u = rng.standard_normal((3, dim))
        p = draw_params(rng, dim, eps=0.0, n_heads=heads, dim_scaled=dim_scaled)
        _, cache = mh_seednorm_forward(x, p)
        got = mh_seednorm_backward(cache, u)

        def f(xx, g, a, b):
            pp = NormParams(gamma=g, alpha=a, beta=b, eps=0.0, n_heads=heads,
                            dim_scaled=dim_scaled)
            return mh_seednorm_forward(xx, pp)[0]

        want = finite_difference_jacobian(f, EvalPoint(x=x, u=u, gamma=p.gamma,
                                                       alpha=p.alpha, beta=p.beta))
        assert_bundle_close(got, want)

    def test_single_head_matches_plain_bitwise(self):
        rng = make_rng(83)
        x = rng.standard_normal((2, 6))
        u = rng.standard_normal((2, 6))
        p = draw_params(rng, 6, eps=0.0, n_heads=1)
        _, c1 = seednorm_forward(x, p)
        _, c2 = mh_seednorm_forward(x, p)
        g1 = seednorm_backward(c1, u)
        g2 = mh_seednorm_backward(c2, u)
        for name in ("d_gamma", "d_alpha", "d_beta", "d_x"):
            assert np.array_equal(np.asarray(getattr(g1, name)), np.asarray(getattr(g2, name)))

    def test_coefficient_grads_head_isolated(self):
        # upstream confined to head 0 leaves head 1's beta chunk untouched
        rng = make_rng(91)
        dim, heads = 8, 2
        x = rng.standard_normal((1, dim))
        p = draw_params(rng, dim, eps=0.0, n_heads=heads)
        _, cache = mh_seednorm_forward(x, p)
        u = np.zeros((1, dim))
        u[0, : dim // 2] = rng.standard_normal(dim // 2)
        g = mh_seednorm_backward(cache, u)
        assert np.all(g.d_beta[dim // 2 :] == 0.0)
        assert np.any(g.d_beta[: dim // 2] != 0.0)
        # alpha follows upstream support exactly
        assert np.all(np.asarray(g.d_alpha)[dim // 2 :] == 0.0)


def repeat_backward(cache, u):
    """The dynamic backward's coefficient-path gradients in their np.repeat
    form: (d_alpha, d_beta, d_x)."""
    p = cache.params
    rows, dim = cache.x.shape
    head_dim = dim // p.n_heads
    ur = u * cache.r
    d_alpha_full = ur * np.repeat(cache.sigma_val, head_dim, axis=1)
    d_alpha = float(np.sum(d_alpha_full)) if p.alpha_is_scalar else np.sum(d_alpha_full, axis=0)
    sig_prime = p.activation.derivative(cache.tanh_arg, cache.sigma_val)
    head_sums = (p.alpha_row() * ur).reshape(rows, p.n_heads, head_dim).sum(axis=2)
    dyn = np.repeat(sig_prime * head_sums, head_dim, axis=1)
    inv_hd = 1.0 / head_dim if p.dim_scaled else 1.0
    d_beta = np.sum(dyn * cache.x, axis=0) * inv_hd
    w = (cache.s + p.gamma) * u
    proj = np.sum(w * cache.r, axis=1) / (dim * cache.rms)
    d_x = dyn * (p.beta * inv_hd) + (w / cache.rms[:, None] - cache.r * proj[:, None])
    return d_alpha, d_beta, d_x


class TestWrittenOutRepeat:
    @pytest.mark.parametrize("dim,heads", [(4, 1), (4, 2), (4, 4), (16, 1), (16, 2), (16, 4),
                                           (64, 2), (64, 4)])
    @pytest.mark.parametrize("scalar_alpha", [False, True], ids=["vector", "scalar"])
    @pytest.mark.parametrize("dim_scaled", [False, True], ids=["plain", "dim_scaled"])
    def test_matches_np_repeat_bitwise(self, dim, heads, scalar_alpha, dim_scaled):
        rng = make_rng(dim * 10 + heads)
        x = rng.standard_normal((3, dim))
        u = rng.standard_normal((3, dim))
        alpha = float(rng.standard_normal()) if scalar_alpha else rng.standard_normal(dim)
        p = NormParams(gamma=rng.standard_normal(dim), alpha=alpha,
                       beta=rng.standard_normal(dim) / np.sqrt(dim), eps=1e-6,
                       n_heads=heads, dim_scaled=dim_scaled)
        _, cache = mh_seednorm_forward(x, p)
        b = mh_seednorm_backward(cache, u)
        d_alpha, d_beta, d_x = repeat_backward(cache, u)
        assert type(b.d_alpha) is type(d_alpha)
        assert np.array_equal(b.d_alpha, d_alpha)
        assert np.array_equal(b.d_beta, d_beta)
        assert np.array_equal(b.d_x, d_x)


def rmsnorm_expression_backward(cache, u):
    p = cache.params
    d_gamma = np.sum(u * cache.r, axis=0)
    w = p.gamma * u
    proj = np.sum(w * cache.r, axis=1) / (cache.dim * cache.rms)
    d_x = w / cache.rms[:, None] - cache.r * proj[:, None]
    return d_gamma, 0.0 if p.alpha_is_scalar else np.zeros(p.dim), np.zeros(p.dim), d_x


def layernorm_expression_backward(cache, u):
    xhat = cache.r
    d_gamma = np.sum(u * xhat, axis=0)
    d_shift = np.sum(u, axis=0)
    g = cache.params.gamma * u
    g_mean = np.mean(g, axis=1, keepdims=True)
    gx_mean = np.mean(g * xhat, axis=1, keepdims=True)
    d_x = cache.inv_std[:, None] * (g - g_mean - xhat * gx_mean)
    return d_gamma, None, d_shift, d_x


def dyt_expression_backward(cache, u):
    p = cache.params
    t = cache.tanh_ax
    sech2 = 1.0 - t * t
    gu = p.gamma * u
    d_gamma = np.sum(u * t, axis=0)
    d_shift = np.sum(u, axis=0)
    d_alpha = float(np.sum(gu * cache.x * sech2))
    d_x = gu * (p.alpha * sech2)
    return d_gamma, d_alpha, d_shift, d_x


class TestWrittenOutInPlace:
    """The static layers' backwards compute in place; these pin them bitwise
    to their formulas written as whole-array expressions, which return
    (d_gamma, d_alpha, d_beta, d_x)."""

    REFERENCES = {
        "rmsnorm": (rmsnorm_forward, rmsnorm_backward, rmsnorm_expression_backward),
        "layernorm": (layernorm_forward, layernorm_backward, layernorm_expression_backward),
        "dyt": (dyt_forward, dyt_backward, dyt_expression_backward),
    }

    @pytest.mark.parametrize("variant", list(REFERENCES))
    @pytest.mark.parametrize("dim", [2, 3, 16, 64])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_matches_expression_form_bitwise(self, variant, dim, rows):
        forward, backward, reference = self.REFERENCES[variant]
        rng = make_rng(dim * 100 + rows)
        x = rng.standard_normal((rows, dim)) * 2.0 + 0.3
        u = rng.standard_normal((rows, dim))
        gamma, shift = rng.standard_normal(dim), rng.standard_normal(dim)
        alpha = float(rng.uniform(-1.25, 1.25)) if variant == "dyt" else None
        beta = None if variant == "rmsnorm" else shift
        _, cache = forward(x, NormParams(gamma, alpha, beta, 1e-6))
        b = backward(cache, u)
        for name, want in zip(("d_gamma", "d_alpha", "d_beta", "d_x"), reference(cache, u)):
            got = getattr(b, name)
            assert type(got) is type(want), name
            if want is not None:
                assert np.array_equal(got, want), name


class TestScalingLaws:
    """Behavior of the gradients under x -> k x, eps = 0."""

    def setup_method(self):
        rng = make_rng(111)
        self.x = rng.standard_normal((1, 6))
        self.u = rng.standard_normal((1, 6))
        self.p = draw_params(rng, 6, eps=0.0)
        self.p0 = NormParams(gamma=self.p.gamma, alpha=self.p.alpha,
                             beta=np.zeros(6), eps=0.0)

    def grads_at(self, k, p):
        fwd = seednorm_forward
        _, cache = fwd(k * self.x, p)
        return seednorm_backward(cache, self.u)

    def test_gamma_grad_scale_invariant(self):
        g1 = self.grads_at(1.0, self.p)
        gk = self.grads_at(137.0, self.p)
        assert relative_error(g1.d_gamma, gk.d_gamma) <= 1e-12

    def test_beta_zero_input_grad_scales_exactly_inverse(self):
        # with the coefficient path dead, d_x(k x) = d_x(x) / k exactly in
        # exact arithmetic; allow float roundoff only
        g1 = self.grads_at(1.0, self.p0)
        gk = self.grads_at(8.0, self.p0)  # power of two: bitwise division
        assert np.array_equal(gk.d_x * 8.0, g1.d_x)

    def test_general_beta_input_grad_approaches_saturation_limit(self):
        # as k grows, tanh saturates to sign(z) and k * d_x approaches the
        # rms-path limit computed from the saturated coefficient
        k = 1e3
        gk = self.grads_at(k, self.p)
        _, cache1 = seednorm_forward(self.x, self.p)
        s_inf = np.sign(cache1.tanh_arg) * 1.0
        s_row = np.repeat(s_inf, 6, axis=1) * self.p.alpha
        w = (s_row + self.p.gamma) * self.u
        r = cache1.r
        rms = cache1.rms
        proj = np.sum(w * r, axis=1) / (6 * rms)
        limit = w / rms[:, None] - r * proj[:, None]
        assert np.linalg.norm(k * gk.d_x - limit) <= 0.05 * np.linalg.norm(limit)

    def test_beta_grad_vanishes_at_large_scale(self):
        g1 = self.grads_at(1.0, self.p)
        gk = self.grads_at(1e3, self.p)
        assert float(np.max(np.abs(gk.d_beta))) < 1e-6 * float(np.max(np.abs(g1.d_beta)))


X4 = np.array([[1.0, -2.0, 3.0, 0.5]])
P4 = NormParams(gamma=np.ones(4), alpha=np.ones(4), beta=np.full(4, 0.25))
CACHES = {
    "rmsnorm": lambda: rmsnorm_forward(X4, P4)[1],
    "layernorm": lambda: layernorm_forward(X4, P4)[1],
    "dyt": lambda: dyt_forward(X4, NormParams(np.ones(4), 0.5))[1],
    "seednorm": lambda: seednorm_forward(X4, P4)[1],
    "mh_seednorm": lambda: mh_seednorm_forward(X4, P4)[1],
    "ada_seednorm": lambda: ada_seednorm_forward(
        X4, P4, ConditionParams(gamma_c=np.zeros(4), eta_c=np.zeros(4)))[1],
}
BACKWARDS = {
    "rmsnorm": rmsnorm_backward,
    "layernorm": layernorm_backward,
    "dyt": dyt_backward,
    "seednorm": seednorm_backward,
    "mh_seednorm": mh_seednorm_backward,
}
DYNAMIC = ("seednorm", "mh_seednorm")  # these two share one cache kind check


def foreign_kinds(variant):
    own = DYNAMIC if variant in DYNAMIC else (variant,)
    return [kind for kind in CACHES if kind not in own]


class TestErrorCases:
    @pytest.mark.parametrize("variant,kind",
                             [(v, k) for v in BACKWARDS for k in foreign_kinds(v)])
    def test_wrong_cache_kind(self, variant, kind):
        with pytest.raises(ValueError, match="kind"):
            BACKWARDS[variant](CACHES[kind](), np.ones_like(X4))

    def test_multi_head_cache_rejected_by_plain_backward(self):
        p = NormParams(gamma=np.ones(4), alpha=np.ones(4), beta=np.ones(4), n_heads=2)
        _, cache = mh_seednorm_forward(np.ones((1, 4)), p)
        with pytest.raises(ValueError, match="multi-head"):
            seednorm_backward(cache, np.ones((1, 4)))

    def test_upstream_shape_mismatch(self):
        p = NormParams(gamma=np.ones(3))
        _, cache = rmsnorm_forward(np.ones((2, 3)), p)
        with pytest.raises(ValueError):
            rmsnorm_backward(cache, np.ones((1, 3)))

    def test_fd_oracle_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_jacobian(lambda *a: a[0], EvalPoint(x=np.ones((1, 1)),
                                                                  u=np.ones((1, 1))), step=0.0)

    def test_fd_oracle_names_nonfinite_coordinate(self):
        def f(xx, g, a, b):
            if xx[0, 0] > 1.5:
                return np.full_like(xx, np.nan)
            return xx

        point = EvalPoint(x=np.array([[1.5 - 1e-6]]), u=np.ones((1, 1)))
        with pytest.raises(FloatingPointError, match=r"x\[0, 0\]\+h"):
            finite_difference_jacobian(f, point, step=1e-3)


class TestRelativeError:
    def test_floor_guards_tiny_denominators(self):
        assert relative_error(np.array([0.0]), np.array([1e-12])) == pytest.approx(1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(2), np.ones(3))

    def test_empty(self):
        assert relative_error(np.array([]), np.array([])) == 0.0
