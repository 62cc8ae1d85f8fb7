"""Hand-derived backward passes and the finite-difference oracle.

Every backward consumes a ForwardCache and an upstream gradient of the same
shape as the input, and returns per-parameter gradients summed over rows next
to the full input gradient. Nothing here calls an autodiff framework; the
finite-difference oracle below is the independent check.

Derivation sketch for the dynamic layers, one row at a time. Write
r = x / rms(x), z_h = (x_h . beta_h) / (optional head width), c_h = act(z_h),
s = c broadcast per head * alpha, out = (s + gamma) * r, and let u be the
upstream row. Then with w = (s + gamma) * u and S_h = act'(z_h) *
sum_{k in head h} u_k alpha_k r_k:

    d_gamma   = u * r
    d_alpha_k = u_k r_k c_{h(k)}
    d_beta_l  = S_{h(l)} * x_l / (optional head width)
    d_x_l     = S_{h(l)} * beta_l / (optional head width)
                + w_l / rms - r_l * (w . r) / (dim * rms)

The last two terms are the RMSNorm input gradient; the same kernel serves
both layers so the beta = 0 reduction is exact to the bit. The projection
term uses d rms / d x_l = x_l / (dim * rms), which holds with eps inside the
radical, so these formulas are valid for eps > 0 unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Matrix, Vector, as_matrix, per_head_product
from .forward import ForwardCache
from .params import NormParams

# The upstream gradient is just a matrix shaped like the layer input; it gets
# a name only to make signatures self-describing.
UpstreamGrad = Matrix


@dataclass
class GradBundle:
    """Gradients of sum(upstream * layer(x)) w.r.t. parameters and input.

    d_beta doubles as the shift gradient for the layers whose second vector
    parameter is a shift (DyT, LayerNorm). Fields are None for parameters a
    layer does not have; zero-valued fields mean the parameter exists but the
    layer is insensitive to it.
    """

    d_gamma: Vector | None
    d_alpha: float | Vector | None
    d_beta: Vector | None
    d_x: Matrix


def _check_upstream(cache: ForwardCache, upstream, kinds: tuple[str, ...]) -> Matrix:
    if cache.kind not in kinds:
        raise ValueError(f"cache kind {cache.kind!r} not usable here (need {kinds})")
    u = as_matrix(upstream, "upstream")
    if u.shape != cache.x.shape:
        raise ValueError(f"upstream shape {u.shape} != input shape {cache.x.shape}")
    return u


def _rms_direction_backward(w: Matrix, r: Matrix, rms: np.ndarray, dim: int) -> Matrix:
    """Input gradient of the normalized direction: w/rms - r * (w.r)/(dim*rms)."""
    proj = np.sum(w * r, axis=1) / (dim * rms)
    return w / rms[:, None] - r * proj[:, None]


def rmsnorm_backward(cache: ForwardCache, p: NormParams, upstream) -> GradBundle:
    """Backward of gamma * x/rms(x). d_alpha and d_beta are exactly zero."""
    u = _check_upstream(cache, upstream, ("rmsnorm",))
    if p.dim != cache.dim:
        raise ValueError(f"params dim {p.dim} != cache dim {cache.dim}")
    d_gamma = np.sum(u * cache.r, axis=0)
    w = p.gamma * u
    d_x = _rms_direction_backward(w, cache.r, cache.rms, cache.dim)
    d_alpha = 0.0 if p.alpha_is_scalar else np.zeros(p.dim)
    return GradBundle(d_gamma=d_gamma, d_alpha=d_alpha, d_beta=np.zeros(p.dim), d_x=d_x)


def layernorm_backward(cache: ForwardCache, p: NormParams, upstream) -> GradBundle:
    """Backward of gamma * (x - mean)/sqrt(var + eps) + shift.

    The shift gradient is returned in the d_beta slot; there is no alpha.
    """
    u = _check_upstream(cache, upstream, ("layernorm",))
    if p.dim != cache.dim:
        raise ValueError(f"params dim {p.dim} != cache dim {cache.dim}")
    xhat = cache.r
    d_gamma = np.sum(u * xhat, axis=0)
    d_shift = np.sum(u, axis=0)
    g = p.gamma * u
    g_mean = np.mean(g, axis=1, keepdims=True)
    gx_mean = np.mean(g * xhat, axis=1, keepdims=True)
    d_x = cache.inv_std[:, None] * (g - g_mean - xhat * gx_mean)
    return GradBundle(d_gamma=d_gamma, d_alpha=None, d_beta=d_shift, d_x=d_x)


def dyt_backward(cache: ForwardCache, gamma, upstream) -> GradBundle:
    """Backward of gamma * tanh(alpha * x) + shift.

    d_alpha is the scalar sum over all entries; the shift gradient rides in
    the d_beta slot. Saturated entries (|alpha * x| large) contribute zero to
    d_x through sech^2 -> 0.
    """
    u = _check_upstream(cache, upstream, ("dyt",))
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (cache.dim,):
        raise ValueError("gamma dim mismatch with cache")
    t = cache.tanh_ax
    sech2 = 1.0 - t * t
    gu = gamma * u
    d_gamma = np.sum(u * t, axis=0)
    d_shift = np.sum(u, axis=0)
    d_alpha = float(np.sum(gu * cache.x * sech2))
    d_x = gu * (cache.alpha_scalar * sech2)
    return GradBundle(d_gamma=d_gamma, d_alpha=d_alpha, d_beta=d_shift, d_x=d_x)


def _check_dynamic_pair(cache: ForwardCache, p: NormParams) -> None:
    if p.dim != cache.dim:
        raise ValueError(f"params dim {p.dim} != cache dim {cache.dim}")
    if p.n_heads != cache.n_heads:
        raise ValueError(f"params n_heads {p.n_heads} != cache n_heads {cache.n_heads}")
    if bool(p.dim_scaled) != bool(cache.dim_scaled):
        raise ValueError("params/cache disagree on dim_scaled")
    if p.activation != cache.activation:
        raise ValueError("params/cache disagree on activation")


def _dynamic_backward(cache: ForwardCache, p: NormParams, upstream) -> GradBundle:
    u = _check_upstream(cache, upstream, ("seednorm", "mh_seednorm"))
    _check_dynamic_pair(cache, p)

    rows, dim = cache.x.shape
    heads = cache.n_heads
    head_dim = dim // heads

    sig_prime = cache.activation.derivative(cache.tanh_arg, cache.sigma_val)

    ur = u * cache.r
    d_gamma = np.sum(ur, axis=0)

    d_alpha_full = per_head_product(cache.sigma_val, ur, head_dim)
    if p.alpha_is_scalar:
        d_alpha = float(np.sum(d_alpha_full))
    else:
        d_alpha = np.sum(d_alpha_full, axis=0)

    aur = p.alpha_row() * ur
    head_sums = aur.reshape(rows, heads, head_dim).sum(axis=2)
    dyn = sig_prime * head_sums  # (rows, heads), spread over each head's channels
    inv_hd = 1.0 / head_dim if cache.dim_scaled else 1.0

    d_beta = np.sum(per_head_product(dyn, cache.x, head_dim), axis=0) * inv_hd

    w = (cache.s + p.gamma) * u
    d_x = (per_head_product(dyn, p.beta * inv_hd, head_dim)
           + _rms_direction_backward(w, cache.r, cache.rms, dim))
    return GradBundle(d_gamma=d_gamma, d_alpha=d_alpha, d_beta=d_beta, d_x=d_x)


def seednorm_backward(cache: ForwardCache, p: NormParams, upstream) -> GradBundle:
    """Backward of the single-head self-rescaling norm (see module docstring)."""
    if cache.n_heads != 1:
        raise ValueError("multi-head cache: use mh_seednorm_backward")
    return _dynamic_backward(cache, p, upstream)


def mh_seednorm_backward(cache: ForwardCache, p: NormParams, upstream) -> GradBundle:
    """Backward of the multi-head variant.

    Coefficient-path gradients are head-isolated: channels of head h only
    receive d_beta and first-term d_x contributions from upstream entries in
    head h. The RMS path still couples the full row.
    """
    return _dynamic_backward(cache, p, upstream)


@dataclass
class EvalPoint:
    """Parameters-and-input bundle for the finite-difference oracle.

    Arrays set to None are not differentiated. alpha may be a 0-d array for
    layers with a scalar alpha; the matching gradient comes back as a float.
    """

    x: Matrix
    u: Matrix
    gamma: Vector | None = None
    alpha: np.ndarray | None = None
    beta: Vector | None = None

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        self.u = np.array(self.u, dtype=np.float64)
        for name in ("gamma", "alpha", "beta"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.array(val, dtype=np.float64))


def finite_difference_jacobian(f, point: EvalPoint, step: float = 1e-5) -> GradBundle:
    """Central differences of L = sum(u * f(x, gamma, alpha, beta)).

    f must be a pure function of the supplied arrays (any fixed state has to
    be closed over). Every coordinate of every non-None array is perturbed by
    +/- step through central_difference, which names the offending
    coordinate when the objective goes non-finite.
    """
    names = [n for n in ("x", "gamma", "beta", "alpha") if getattr(point, n) is not None]

    def objective() -> float:
        return float((point.u * f(point.x, point.gamma, point.alpha, point.beta)).sum())

    grads = dict(zip(names, central_difference(
        objective, [getattr(point, n) for n in names], step, labels=names
    )))
    d_alpha = grads.get("alpha")
    if d_alpha is not None and d_alpha.ndim == 0:
        d_alpha = float(d_alpha)
    return GradBundle(
        d_gamma=grads.get("gamma"), d_alpha=d_alpha, d_beta=grads.get("beta"), d_x=grads["x"]
    )


def central_difference(loss_fn, arrays, step: float = 1e-5, labels=None) -> list[np.ndarray]:
    """Central-difference gradient of the scalar ``loss_fn()`` w.r.t. each array.

    arrays are perturbed in place one coordinate at a time and restored.
    Every evaluation must be finite: otherwise FloatingPointError names the
    coordinate and the side of the step, as in ``x[0, 0]+h``, with arrays
    named by ``labels`` (default ``arrays[i]``).
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    grads = []
    for i, arr in enumerate(arrays):
        label = labels[i] if labels is not None else f"arrays[{i}]"
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"], op_flags=["readonly"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            plus = float(loss_fn())
            arr[idx] = orig - step
            minus = float(loss_fn())
            arr[idx] = orig
            for val, side in ((plus, "+h"), (minus, "-h")):
                if not math.isfinite(val):
                    where = f"{label}{list(idx)}" if idx else label
                    raise FloatingPointError(f"non-finite loss at {where}{side}")
            grad[idx] = (plus - minus) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, floor); 0.0 for empty input."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))
