"""Executable probes for the analysis claims, plus the overhead cost model.

Each probe returns a ProbeReport whose pass flag is a pure function of
(statistic, expected, tolerance): two-sided by default, one-sided when
one_sided is set (statistic <= expected + tolerance), and false for a
non-finite statistic. Probes that bundle several sub-checks report the
worst sub-check as a ratio to its own tolerance, so the headline rule stays
exact; raw numbers live in details.

A probe rejects, with ValueError, a parameter whose closed form does not fit
in float64 (a power that overflows or falls below the smallest normal
number). It runs with NumPy's floating-point warnings off: whatever still
overflows makes its statistic non-finite, or NaN, and so fails the check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import make_rng, per_head_product, rms_rows, worst
from .forward import mh_seednorm_forward
from .params import NormParams


@dataclass
class ProbeReport:
    name: str
    samples: int
    statistic: float
    expected: float
    tolerance: float
    passed: bool
    one_sided: bool = False
    details: list = field(default_factory=list)

    @classmethod
    def build(cls, name, samples, statistic, expected, tolerance,
              one_sided=False, details=None) -> "ProbeReport":
        statistic = float(statistic)
        expected = float(expected)
        tolerance = float(tolerance)
        if not math.isfinite(statistic):
            ok = False
        elif one_sided:
            ok = statistic <= expected + tolerance
        else:
            ok = abs(statistic - expected) <= tolerance
        return cls(
            name=name, samples=int(samples), statistic=statistic,
            expected=expected, tolerance=tolerance, passed=bool(ok),
            one_sided=one_sided, details=list(details or []),
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


_LOG_MIN_NORMAL = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


def _check_power(name: str, value: float, power: int, factor: float = 1.0) -> None:
    """ValueError unless factor * value**power, for a finite value > 0, is a
    normal float64: neither overflows nor underflows."""
    if not _LOG_MIN_NORMAL < power * math.log(value) + math.log(factor) < _LOG_MAX:
        raise ValueError(
            f"{name}={value!r} out of range: {factor:g} * {name}**{power} "
            "overflows or underflows float64"
        )


@dataclass
class CostEstimate:
    """Extra parameters and multiply-adds of the dynamic layers over a
    static-scale RMSNorm baseline, across a whole transformer stack.

    Site accounting per layer: two full-width norm sites (attention input,
    FFN input) plus two query/key sites at the per-head width dim/heads with
    parameters shared across heads, plus one full-width final norm for the
    stack. Each site adds an alpha and a beta vector at its width, so

        extra_params = (4 L + 4 L / H + 2) * D

    Per application at width d the dynamic path costs the coefficient dot
    product (2d - 1) plus the alpha multiply and gamma add (2d), i.e. 4d - 1
    multiply-adds, with query/key sites charged once at their slice width:

        extra_madds = (4 D - 1)(2 L + 1) + (4 D / H - 1)(2 L)
    """

    layers: int
    hidden_dim: int
    heads: int
    extra_params: int
    extra_madds: int


def estimate_cost(layers: int, hidden_dim: int, heads: int) -> CostEstimate:
    """Closed-form overhead of the dynamic layers for a transformer stack."""
    if layers < 1 or hidden_dim < 1 or heads < 1:
        raise ValueError("layers, hidden_dim and heads must all be >= 1")
    if hidden_dim % heads != 0:
        raise ValueError(f"heads={heads} must divide hidden_dim={hidden_dim}")
    head_dim = hidden_dim // heads
    extra_params = 4 * layers * hidden_dim + 4 * layers * head_dim + 2 * hidden_dim
    extra_madds = (4 * hidden_dim - 1) * (2 * layers + 1) + (4 * head_dim - 1) * (2 * layers)
    return CostEstimate(
        layers=layers, hidden_dim=hidden_dim, heads=heads,
        extra_params=int(extra_params), extra_madds=int(extra_madds),
    )


@np.errstate(all="ignore")
def probe_scale_insensitivity(
    p: NormParams, k_values, rng: np.random.Generator, trials: int = 8
) -> ProbeReport:
    """Output drift of the dynamic layer under x -> k x, against its bound.

    The normalized direction cancels k exactly, so the whole drift lives in
    the coefficient: out(kx) - out(x) = (tanh(k z) - tanh(z)) * alpha * r(x)
    per head, which is bounded elementwise by 2 |alpha| |r(x)| since tanh is
    bounded by 1. The probe evaluates that closed form (statistic
    includes the drift/bound tightness ratio, worst case over trials), and
    cross-checks the actual forward outputs against it, which verifies the
    r-cancellation to 1e-12. Runs at eps = 0, where the cancellation is
    exact. The bound's largest entry, 2 max|alpha| sqrt(dim), must be finite.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k_values = [float(k) for k in k_values]
    if any(k <= 0 for k in k_values):
        raise ValueError("k values must be > 0")
    if not math.isfinite(2.0 * float(np.max(np.abs(p.alpha))) * math.sqrt(p.dim)):
        raise ValueError("alpha out of range: the drift bound 2 * max|alpha| * sqrt(dim) "
                         "overflows float64")
    p0 = replace(p, eps=0.0)
    head_dim = p0.dim // p0.n_heads
    noise_tol = 1e-12

    # each trial is one row; a forward treats every row alone, bit for bit
    x = rng.standard_normal((trials, p0.dim))
    largest = float(np.max(np.abs(x)))
    for k in k_values:
        if not math.isfinite(k * largest):
            raise ValueError(f"k={k:g} out of range: k * x overflows float64")
    out1, cache1 = mh_seednorm_forward(x, p0)
    bound = 2.0 * np.abs(p0.alpha * np.ones(p0.dim)) * np.abs(cache1.r)
    out_ref = np.maximum(1.0, np.max(np.abs(out1), axis=1))
    r_ref = np.maximum(1.0, np.max(np.abs(cache1.r), axis=1))
    details = []
    for k in k_values:
        sig_k = np.tanh(k * cache1.tanh_arg)
        closed = per_head_product(sig_k - cache1.sigma_val, p0.alpha, head_dim) * cache1.r
        out_k, cache_k = mh_seednorm_forward(k * x, p0)
        residual = np.max(np.abs(out_k - out1 - closed), axis=1) / out_ref
        r_drift = np.max(np.abs(cache_k.r - cache1.r), axis=1) / r_ref
        drift = np.abs(closed)
        ratio = np.where(drift == 0.0, 0.0, drift / bound)
        details.append({
            "k": k, "max_drift": float(np.max(drift)), "max_bound": float(np.max(bound)),
            "tightness": float(np.max(ratio)), "max_r_rel_drift": float(np.max(r_drift)),
            "max_residual": float(np.max(residual)),
        })
    worst_ratio = worst(*(
        worst(d["tightness"], d["max_r_rel_drift"] / noise_tol, d["max_residual"] / noise_tol)
        for d in details
    ))
    return ProbeReport.build(
        name="scale_insensitivity",
        samples=trials * len(k_values),
        statistic=worst_ratio,
        expected=0.0,
        tolerance=1.0,
        one_sided=True,
        details=details,
    )


@np.errstate(all="ignore")
def probe_dyt_rmsnorm_ode(
    c: float,
    dim: int,
    *,
    grid_points: int = 101,
    span: float = 10.0,
    samples: int = 100,
    rng: np.random.Generator | None = None,
) -> ProbeReport:
    """RMSNorm's Jacobian diagonal follows a tanh law at constant row RMS.

    Check 1 (tolerance 1e-12 / c): at any x with rms(x) = c, the exact
    diagonal entry 1/rms - x_d^2/(dim * rms^3) equals (1/c)(1 - r_d^2/dim)
    with r = x/c, evaluated on `samples` random constant-RMS inputs.

    Check 2 (tolerance 1e-10 / c): treating that identity as the autonomous
    ODE dr/dx = (1/c)(1 - r^2/dim) at frozen rms = c, its solution through
    the origin is r(x) = sqrt(dim) * tanh(x / (c sqrt(dim))), i.e. a
    DyT-shaped response. The probe differentiates the closed form
    numerically (5-point stencil, step scaled to the curve's natural width
    c*sqrt(dim)) and measures the worst ODE residual on a grid over
    [-span, span].

    Both checks compare slopes of size 1/c, so both tolerances scale with it:
    rounding alone would fail absolute ones for a small c.

    The statistic is the worst sub-check as a multiple of its own tolerance.
    Check 1 needs dim * c**3 to be a normal float64, and the grid needs a
    finite width 2 * span.
    """
    if not 0 < c < np.inf:
        raise ValueError("c must be finite and > 0")
    if dim < 1 or grid_points < 5 or samples < 1:
        raise ValueError("dim >= 1, grid_points >= 5, samples >= 1 required")
    if grid_points > sys.maxsize // 8:  # np.linspace raises IndexError from 2**63 - 1 on
        raise ValueError(f"grid_points={grid_points} out of range: no float64 array holds it")
    _check_power("c", c, 3, dim)
    if not (span > 0 and math.isfinite(2.0 * span)):
        raise ValueError(f"span={span!r} out of range: span must be > 0 and 2 * span finite")
    rng = rng if rng is not None else make_rng(0)

    jac_tol = 1e-12 / c
    x = rng.standard_normal((samples, dim))
    # scaled to rms c without rms_rows, which the check itself measures
    x = x * (c / np.sqrt(np.mean(x * x, axis=1)))[:, None]
    rms = rms_rows(x, 0.0)[:, None]
    # float_power takes libm's pow, as a Python float's ** does; NumPy's
    # SIMD power loop can differ from it in the last bit
    lhs = 1.0 / rms - (x * x) / (dim * np.float_power(rms, 3))
    r = x / c
    rhs = (1.0 / c) * (1.0 - (r * r) / dim)
    jac_max = float(np.max(np.abs(lhs - rhs)))

    ode_tol = 1e-10 / c
    width = c * np.sqrt(dim)
    xs = np.linspace(-span, span, grid_points)
    h = 1e-4 * width

    def r_of(x):
        return np.sqrt(dim) * np.tanh(x / width)

    dr_num = (-r_of(xs + 2 * h) + 8 * r_of(xs + h) - 8 * r_of(xs - h) + r_of(xs - 2 * h)) / (12 * h)
    r_grid = r_of(xs)
    rhs_grid = (1.0 / c) * (1.0 - (r_grid * r_grid) / dim)
    ode_max = float(np.max(np.abs(dr_num - rhs_grid)))

    slope_at_zero = (1.0 / c) * (1.0 - r_of(0.0) ** 2 / dim)
    details = [
        {"check": "jacobian_diag", "max_abs_diff": jac_max, "tolerance": jac_tol,
         "samples": samples, "c": c, "dim": dim},
        {"check": "ode_residual", "max_abs_residual": ode_max, "tolerance": ode_tol,
         "grid_points": grid_points, "span": span, "fd_step": h},
        {"check": "anchors", "r_at_zero": float(r_of(0.0)),
         "slope_at_zero": slope_at_zero, "expected_slope": 1.0 / c,
         "r_at_span": float(r_of(span)), "saturation_level": float(np.sqrt(dim))},
    ]
    statistic = worst(jac_max / jac_tol, ode_max / ode_tol)
    return ProbeReport.build(
        name="dyt_rmsnorm_ode",
        samples=samples + grid_points,
        statistic=statistic,
        expected=0.0,
        tolerance=1.0,
        one_sided=True,
        details=details,
    )


@np.errstate(all="ignore")
def probe_dot_variance(
    dim: int,
    n_heads: int,
    sigma: float,
    samples: int,
    rng: np.random.Generator,
    dist: str = "normal",
) -> ProbeReport:
    """Monte Carlo variance of the dot product x . beta inside the coefficient's tanh.

    For x and beta with i.i.d. zero-mean entries of variance sigma^2, the dot
    product x . beta has variance dim * sigma^4: it grows with width, it does
    not shrink. Splitting into n heads gives per-head variance
    (dim/n) * sigma^4, a 1/n reduction, which is the point of the multi-head
    form. Statistic: worst |estimate/expected - 1| over the full-width and
    per-head checks. dim * sigma**4 must be a normal float64.
    """
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4 for a stable variance estimate")
    if dim < 1 or n_heads < 1 or dim % n_heads != 0:
        raise ValueError("n_heads must be >= 1 and divide dim")
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be finite and > 0")
    _check_power("sigma", sigma, 4, dim)
    if dist == "normal":
        x = rng.normal(0.0, sigma, size=(samples, dim))
        b = rng.normal(0.0, sigma, size=(samples, dim))
    elif dist == "uniform":
        half = np.sqrt(3.0) * sigma
        x = rng.uniform(-half, half, size=(samples, dim))
        b = rng.uniform(-half, half, size=(samples, dim))
    else:
        raise ValueError(f"unknown dist {dist!r}")

    full = np.sum(x * b, axis=1)
    var_full = float(np.var(full, ddof=1))
    expected_full = dim * sigma**4

    head_dim = dim // n_heads
    head_dots = np.sum(
        x.reshape(samples, n_heads, head_dim) * b.reshape(samples, n_heads, head_dim),
        axis=2,
    ).ravel()
    var_head = float(np.var(head_dots, ddof=1))
    expected_head = head_dim * sigma**4

    dev_full = abs(var_full / expected_full - 1.0)
    dev_head = abs(var_head / expected_head - 1.0)
    details = [
        {"check": "full_width", "dim": dim, "sigma": sigma, "dist": dist,
         "var_estimate": var_full, "expected": expected_full,
         "ratio": var_full / expected_full},
        {"check": "per_head", "n_heads": n_heads, "head_dim": head_dim,
         "var_estimate": var_head, "expected": expected_head,
         "ratio": var_head / expected_head,
         "head_to_full_ratio": var_head / var_full,
         "expected_head_to_full": 1.0 / n_heads},
    ]
    return ProbeReport.build(
        name="dot_variance",
        samples=samples,
        statistic=worst(dev_full, dev_head),
        expected=0.0,
        tolerance=0.1,
        one_sided=False,
        details=details,
    )
