"""Hand-derived backward passes and the finite-difference oracle.

Every backward is ``X_backward(cache, upstream, ws=FRESH)``: it consumes the
ForwardCache of its own forward, which also holds the parameters that forward
ran with, and an upstream gradient of the same shape as the input. It returns
per-parameter gradients summed over rows, each shaped like its parameter
(a scalar alpha's is 0-d), next to the full input gradient. Like the
forwards, a backward writes its (rows, dim) intermediates into its own
output and at most two scratch arrays, never into the cache or the upstream
gradient, so one cache can be differentiated any number of times.
Its arrays come from the buffer source ``ws``: with the default every
returned array is its own allocation. In a workspace the parameter
gradients are the arrays "d_<field>", and the input gradient is the array
"out" of the forward: a model slot's caller has used the forward's output
up before it runs the slot's backward. An upstream gradient that shares
memory with that array, such as the forward's output handed back as its own
gradient, is copied before the array is written. Nothing here calls an
autodiff framework; the finite-difference oracle below is the independent
check.

The oracle calls only forwards, as ``forward(x, p)`` like any other caller.
``central_difference`` is its one generic loop: it perturbs one coordinate
at a time in place, and serves the parameters and the whole-model check.
Every norm forward acts on each row alone, so the input directions are
differentiated in bulk instead: the perturbed copies of x are stacked into
a few large forwards whose per-copy sums are bitwise the loop's.

Derivation sketch for the dynamic layers, one row at a time. Write
r = x / rms(x), z_h = (x_h . beta_h) / (optional head width), c_h = tanh(z_h),
s = c broadcast per head * alpha, out = (s + gamma) * r, and let u be the
upstream row. Then with w = (s + gamma) * u and S_h = (1 - c_h^2) *
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

from .core import FRESH, Matrix, Vector, as_matrix, per_head_product
from .forward import ForwardCache

# The upstream gradient is just a matrix shaped like the layer input; it gets
# a name only to make signatures self-describing.
UpstreamGrad = Matrix

# Cap on the elements of the stacked x that one oracle forward maps (one
# coordinate's pair of copies at the least). It bounds the oracle's memory;
# how the copies are chunked leaves every bit of the result unchanged.
FD_CHUNK_ELEMENTS = 8192


@dataclass
class GradBundle:
    """Gradients of sum(upstream * layer(x)) w.r.t. parameters and input.

    Each parameter gradient is an array of its parameter's shape: a scalar
    alpha's is 0-d. d_beta doubles as the shift gradient for the layers
    whose second vector parameter is a shift (DyT, LayerNorm). Fields are
    None for parameters a layer does not have; zero-valued fields mean the
    parameter exists but the layer is insensitive to it.
    """

    d_gamma: Vector | None
    d_alpha: np.ndarray | None
    d_beta: Vector | None
    d_x: Matrix


def _check_upstream(
    cache: ForwardCache, upstream, kinds: tuple[str, ...], ws
) -> tuple[Matrix, Matrix | None]:
    """The upstream gradient as a matrix, and the ``out=`` target of the
    input gradient. When the two may share memory the upstream gradient is
    copied, so that writing the input gradient cannot change it."""
    if cache.kind not in kinds:
        raise ValueError(f"cache kind {cache.kind!r} not usable here (need {kinds})")
    u = as_matrix(upstream, "upstream")
    if u.shape != cache.x.shape:
        raise ValueError(f"upstream shape {u.shape} != input shape {cache.x.shape}")
    d_x = ws.out("out", u.shape)
    if d_x is not None and np.may_share_memory(u, d_x):
        u = u.copy()
    return u, d_x


def _rms_direction_backward(
    w: Matrix, r: Matrix, rms: np.ndarray, dim: int, scratch: Matrix
) -> Matrix:
    """Input gradient of the normalized direction: w/rms - r * (w.r)/(dim*rms).

    Overwrites ``w`` with the result and returns it, so the caller passes a
    (rows, dim) array of its own that it no longer needs, and a scratch
    array of that shape.
    """
    wr = np.multiply(w, r, out=scratch)
    proj = wr.sum(axis=1) / (dim * rms)
    np.multiply(r, proj[:, None], out=wr)
    w /= rms[:, None]
    w -= wr
    return w


def rmsnorm_backward(cache: ForwardCache, upstream, ws=FRESH) -> GradBundle:
    """Backward of gamma * x/rms(x). The layer has no alpha or beta: both are None."""
    u, d_x = _check_upstream(cache, upstream, ("rmsnorm",), ws)
    p = cache.params
    ur = np.multiply(u, cache.r, out=d_x)  # turned into d_x
    d_gamma = ur.sum(axis=0, out=ws.out("d_gamma", (p.dim,)))
    w = np.multiply(u, p.gamma, out=ur)
    scratch = ws.shared("norm_backward.scratch", u.shape)
    d_x = _rms_direction_backward(w, cache.r, cache.rms, cache.dim, scratch)
    return GradBundle(d_gamma=d_gamma, d_alpha=None, d_beta=None, d_x=d_x)


def layernorm_backward(cache: ForwardCache, upstream, ws=FRESH) -> GradBundle:
    """Backward of gamma * (x - mean)/sqrt(var + eps) + shift.

    The shift gradient is returned in the d_beta slot; there is no alpha.
    """
    u, d_x = _check_upstream(cache, upstream, ("layernorm",), ws)
    xhat = cache.r
    dim = cache.dim
    scratch = np.multiply(u, xhat, out=ws.shared("norm_backward.scratch", u.shape))
    d_gamma = scratch.sum(axis=0, out=ws.out("d_gamma", (dim,)))
    d_shift = u.sum(axis=0, out=ws.out("d_beta", (dim,)))
    # np.mean written out as it computes it: the row sum over dim
    d_x = np.multiply(u, cache.params.gamma, out=d_x)  # g, then d_x
    g_mean = d_x.sum(axis=1, keepdims=True) / dim
    gx_mean = np.multiply(d_x, xhat, out=scratch).sum(axis=1, keepdims=True) / dim
    d_x -= g_mean
    d_x -= np.multiply(xhat, gx_mean, out=scratch)
    d_x *= cache.inv_std[:, None]
    return GradBundle(d_gamma=d_gamma, d_alpha=None, d_beta=d_shift, d_x=d_x)


def dyt_backward(cache: ForwardCache, upstream, ws=FRESH) -> GradBundle:
    """Backward of gamma * tanh(alpha * x) + shift.

    d_alpha is the sum over all entries, a 0-d array like alpha; the shift
    gradient rides in the d_beta slot. Saturated entries (|alpha * x| large)
    contribute zero to d_x through sech^2 -> 0.
    """
    u, d_x = _check_upstream(cache, upstream, ("dyt",), ws)
    p = cache.params
    t = cache.tanh_ax
    sech2 = np.multiply(t, t, out=ws.shared("dyt_backward.sech2", t.shape))
    np.subtract(1.0, sech2, out=sech2)
    scratch = np.multiply(u, t, out=ws.shared("norm_backward.scratch", u.shape))
    d_gamma = scratch.sum(axis=0, out=ws.out("d_gamma", (p.dim,)))
    d_shift = u.sum(axis=0, out=ws.out("d_beta", (p.dim,)))
    d_x = np.multiply(u, p.gamma, out=d_x)  # gu, then d_x
    np.multiply(d_x, cache.x, out=scratch)
    scratch *= sech2
    d_alpha = np.add.reduce(scratch, axis=None, out=ws.empty("d_alpha", ()))
    sech2 *= p.alpha
    d_x *= sech2
    return GradBundle(d_gamma=d_gamma, d_alpha=d_alpha, d_beta=d_shift, d_x=d_x)


_DYNAMIC_KINDS = ("seednorm", "mh_seednorm")


def _dynamic_backward(cache: ForwardCache, u: Matrix, d_x: Matrix | None, ws) -> GradBundle:
    p = cache.params
    rows, dim = cache.x.shape
    heads = p.n_heads
    head_dim = dim // heads

    sig_prime = 1.0 - cache.sigma_val * cache.sigma_val  # tanh' from the cached tanh

    ur = np.multiply(u, cache.r, out=d_x)  # turned into d_x
    d_gamma = ur.sum(axis=0, out=ws.out("d_gamma", (dim,)))

    # one (rows, dim) scratch serves the three per-head products and the
    # RMS direction in turn
    scratch = per_head_product(  # d_alpha per entry
        cache.sigma_val, ur, head_dim, out=ws.shared("norm_backward.scratch", u.shape))
    d_alpha = np.add.reduce(scratch, axis=None if p.alpha_is_scalar else 0,
                            out=ws.empty("d_alpha", p.alpha.shape))

    aur = np.multiply(ur, p.alpha, out=ur)
    head_sums = aur.reshape(rows, heads, head_dim).sum(axis=2)
    dyn = sig_prime * head_sums  # (rows, heads), spread over each head's channels
    inv_hd = 1.0 / head_dim if p.dim_scaled else 1.0

    d_beta = np.multiply(per_head_product(dyn, cache.x, head_dim, out=scratch).sum(axis=0),
                         inv_hd, out=ws.out("d_beta", (dim,)))

    w = np.add(cache.s, p.gamma, out=ur)
    w *= u
    d_x = _rms_direction_backward(w, cache.r, cache.rms, dim, scratch)
    d_x += per_head_product(dyn, p.beta * inv_hd, head_dim, out=scratch)
    return GradBundle(d_gamma=d_gamma, d_alpha=d_alpha, d_beta=d_beta, d_x=d_x)


def seednorm_backward(cache: ForwardCache, upstream, ws=FRESH) -> GradBundle:
    """Backward of the single-head self-rescaling norm (see module docstring)."""
    u, d_x = _check_upstream(cache, upstream, _DYNAMIC_KINDS, ws)
    if cache.params.n_heads != 1:
        raise ValueError("multi-head cache: use mh_seednorm_backward")
    return _dynamic_backward(cache, u, d_x, ws)


def mh_seednorm_backward(cache: ForwardCache, upstream, ws=FRESH) -> GradBundle:
    """Backward of the multi-head variant.

    Coefficient-path gradients are head-isolated: channels of head h only
    receive d_beta and first-term d_x contributions from upstream entries in
    head h. The RMS path still couples the full row.
    """
    u, d_x = _check_upstream(cache, upstream, _DYNAMIC_KINDS, ws)
    return _dynamic_backward(cache, u, d_x, ws)


def finite_difference_jacobian(forward, x, u, p, fields, step: float = 1e-5) -> GradBundle:
    """Central differences of L = sum(u * forward(x, p)[0]).

    ``forward`` is a layer in the library's one convention, (x, p) ->
    (out, cache); ``fields`` names the arrays of ``p`` to differentiate and
    labels them in errors. The forward must act on each row of x alone (a
    row's output and its bits do not depend on the other rows stacked with
    it) and read p's arrays when called, as every ``<variant>_forward``
    does. The x directions go through _input_differences, in stacked
    forwards; a field's go through central_difference, which perturbs p's
    own arrays in place and hands p back with the same arrays and bytes.
    Each gradient has its field's shape (0-d for a scalar alpha). A
    non-finite perturbed value or objective raises FloatingPointError naming
    the coordinate, so the perturbed forwards run with NumPy's overflow and
    invalid warnings off.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    def objective() -> float:
        # np.add.reduce is the flat sum .sum() runs, without its Python wrapper
        return float(np.add.reduce(u * forward(x, p)[0], axis=None))

    with np.errstate(over="ignore", invalid="ignore"):
        d_x = _input_differences(forward, x, u, p, step)
        grads = dict(zip(fields, central_difference(
            objective, [getattr(p, n) for n in fields], step, labels=fields
        )))
    return GradBundle(d_gamma=grads.get("gamma"), d_alpha=grads.get("alpha"),
                      d_beta=grads.get("beta"), d_x=d_x)


def _input_differences(forward, x: Matrix, u: Matrix, p, step: float) -> Matrix:
    """The x part of finite_difference_jacobian, for a row-by-row forward.

    Each coordinate's two copies of x (orig +/- step at that coordinate, as
    central_difference builds them) are stacked, in chunks of at most
    FD_CHUNK_ELEMENTS elements, into one (copies * rows, dim) matrix that
    ``forward(copies, p)[0]`` maps in one call. A copy's objective is one
    row of (u.ravel() * out.reshape(copies, -1)).sum(axis=1), the pairwise
    sum that the flat .sum() of central_difference's objective does, so the
    gradient is bitwise the one that loop gives. x is never written to.
    """
    _check_step(step)
    u = u.ravel()
    rows, dim = x.shape
    size = x.size
    flat = x.ravel()
    grad = np.empty(size)
    per_chunk = max(1, FD_CHUNK_ELEMENTS // (2 * size or 1))
    for lo in range(0, size, per_chunk):
        n = min(per_chunk, size - lo)
        moved = np.add.outer(flat[lo:lo + n], (step, -step))  # (n, 2): +h, -h
        _check_finite(moved, lo, dim, "perturbation")
        copies = np.empty((n, 2, size))
        copies[...] = flat
        k = np.arange(n)
        copies[k, :, lo + k] = moved
        out = forward(copies.reshape(2 * n * rows, dim), p)[0]
        losses = (u * out.reshape(2 * n, -1)).sum(axis=1).reshape(n, 2)
        _check_finite(losses, lo, dim, "loss")
        grad[lo:lo + n] = (losses[:, 0] - losses[:, 1]) / (2.0 * step)
    return grad.reshape(rows, dim)


def _check_finite(pairs: np.ndarray, lo: int, dim: int, what: str) -> None:
    """FloatingPointError naming the first non-finite entry of ``pairs``,
    whose row k holds the +h and -h values of flat coordinate lo + k of x."""
    if np.count_nonzero(np.isfinite(pairs)) != pairs.size:
        first, side = (int(v) for v in np.argwhere(~np.isfinite(pairs))[0])
        i, j = divmod(lo + first, dim)
        raise FloatingPointError(f"non-finite {what} at x[{i}, {j}]{('+h', '-h')[side]}")


def _check_step(step: float) -> None:
    if step <= 0:
        raise ValueError("step must be > 0")


def central_difference(loss_fn, arrays, step: float = 1e-5, labels=None) -> list[np.ndarray]:
    """Central-difference gradient of the scalar ``loss_fn()`` w.r.t. each array.

    arrays are perturbed in place one coordinate at a time and restored bit
    for bit, also when loss_fn raises. Every perturbed value and every
    evaluation must be finite: otherwise FloatingPointError names the
    coordinate and the side of the step, as in ``x[0, 0]+h``, with arrays
    named by ``labels`` (default ``arrays[i]``). A perturbed value is
    checked before loss_fn sees it.
    """
    _check_step(step)
    grads = []
    for i, arr in enumerate(arrays):
        label = labels[i] if labels is not None else f"arrays[{i}]"
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index", "zerosize_ok"], op_flags=["readonly"])
        for _ in it:
            idx = it.multi_index
            orig = float(arr[idx])
            up, down = orig + step, orig - step
            if not (math.isfinite(up) and math.isfinite(down)):
                raise _non_finite("perturbation", label, idx, up)
            try:
                arr[idx] = up
                plus = float(loss_fn())
                arr[idx] = down
                minus = float(loss_fn())
            finally:
                arr[idx] = orig
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise _non_finite("loss", label, idx, plus)
            grad[idx] = (plus - minus) / (2.0 * step)
        grads.append(grad)
    return grads


def _non_finite(what: str, label: str, idx: tuple, plus: float) -> FloatingPointError:
    """The error for a coordinate whose +h value (or else -h value) is not finite."""
    where = f"{label}{list(idx)}" if idx else label
    side = "-h" if math.isfinite(plus) else "+h"
    return FloatingPointError(f"non-finite {what} at {where}{side}")


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
