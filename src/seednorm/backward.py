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
Every central difference goes through one loop, which checks the perturbed
values and objectives and names a bad coordinate; only the evaluation of a
chunk of perturbed values varies. Every norm forward acts on each row
alone, so x's perturbed copies are stacked into a few large forwards, while
``central_difference`` perturbs an array in place, one coordinate at a
time, for the parameters and the whole-model check.

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
from functools import partial
from itertools import chain, product

import numpy as np

from .core import FRESH, Matrix, Vector, as_matrix, per_head_product
from .forward import ForwardCache

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

    w = per_head_product(cache.sigma_val, p.alpha, head_dim, out=ur)  # s, as the forward made it
    w += p.gamma
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
    does. x's perturbed copies are stacked, in chunks of at most
    FD_CHUNK_ELEMENTS elements, into one matrix per forward; a copy's
    objective is the row sum that the flat sum of that copy alone does, so
    the bits are those of one copy at a time. x is never written to. The
    fields go through central_difference, which hands p back with the same
    arrays and bytes. Each gradient has its field's shape (0-d for a scalar
    alpha). A non-finite perturbed value or objective raises
    FloatingPointError naming the coordinate, so the perturbed forwards run
    with NumPy's overflow and invalid warnings off.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    def stacked(lo: int, moved: list) -> list:
        n = len(moved)
        copies = np.empty((n, 2, x.size))
        copies[...] = x.ravel()
        copies[np.arange(n), :, np.arange(lo, lo + n)] = moved
        out = forward(copies.reshape(2 * n * x.shape[0], x.shape[1]), p)[0]
        return (u.ravel() * out.reshape(2 * n, -1)).sum(axis=1).reshape(n, 2).tolist()

    def objective() -> float:
        # np.add.reduce is the flat sum .sum() runs, without its Python wrapper
        return float(np.add.reduce(u * forward(x, p)[0], axis=None))

    with np.errstate(over="ignore", invalid="ignore"):
        d_x = _differences(x, "x", step, stacked, FD_CHUNK_ELEMENTS // (2 * x.size or 1))
        grads = dict(zip(fields, central_difference(
            objective, [getattr(p, n) for n in fields], step, labels=fields
        )))
    return GradBundle(d_gamma=grads.get("gamma"), d_alpha=grads.get("alpha"),
                      d_beta=grads.get("beta"), d_x=d_x)


def central_difference(loss_fn, arrays, step: float = 1e-5, labels=None) -> list[np.ndarray]:
    """Central-difference gradient of the scalar ``loss_fn()`` w.r.t. each array.

    Each array, of any layout, is perturbed in its own memory one coordinate
    at a time in C order; each coordinate is restored bit for bit, also when
    loss_fn raises. A perturbed value or evaluation that is not finite
    raises FloatingPointError naming the coordinate and the side of the
    step, as in ``x[0, 0]+h``, with arrays named by ``labels`` (default
    ``arrays[i]``). All of an array's perturbed values are checked before
    its first evaluation (an overflow is named before a non-finite objective
    at an earlier coordinate), and no evaluation follows a non-finite one.
    """
    grads = []
    for i, arr in enumerate(arrays):
        label = labels[i] if labels is not None else f"arrays[{i}]"
        evaluate = partial(_in_place, arr, loss_fn)
        grads.append(_differences(arr, label, step, evaluate, arr.size))
    return grads


def _in_place(arr: np.ndarray, loss_fn, lo: int, moved: list) -> list:
    """central_difference's evaluator, over all of arr (lo is 0). It stops at
    the first non-finite objective; a -h objective left unevaluated is NaN."""
    losses = []
    for idx, (up, down) in zip(product(*map(range, arr.shape)), moved):
        orig, minus = arr[idx], math.nan
        try:
            arr[idx] = up
            plus = float(loss_fn())
            if math.isfinite(plus):
                arr[idx] = down
                minus = float(loss_fn())
        finally:
            arr[idx] = orig
        losses.append((plus, minus))
        if not math.isfinite(minus):
            break
    return losses


def _differences(arr: np.ndarray, label: str, step: float, evaluate, chunk: int) -> np.ndarray:
    """The one central-difference loop, in Python floats. Per chunk of at most ``chunk``
    coordinates of arr, in C order from flat index lo, it checks the (orig + step,
    orig - step) pairs before ``evaluate(lo, moved)`` sees any, checks the objective
    pairs it returns and takes their difference quotients, returned shaped like arr."""
    if step <= 0:
        raise ValueError("step must be > 0")
    flat, grad, chunk = arr.ravel().tolist(), [], max(1, chunk)
    for lo in range(0, len(flat), chunk):
        moved = [(v + step, v - step) for v in flat[lo:lo + chunk]]
        _require_finite_pairs(moved, "perturbation", label, arr.shape, lo)
        losses = evaluate(lo, moved)
        _require_finite_pairs(losses, "loss", label, arr.shape, lo)
        grad += [(plus - minus) / (2.0 * step) for plus, minus in losses]
    return np.reshape(grad, arr.shape)


def _require_finite_pairs(pairs: list, what: str, label: str, shape: tuple, lo: int) -> None:
    """FloatingPointError naming the first non-finite value in ``pairs``, the +h and -h
    values of coordinates lo, lo + 1, ... of array ``label``, as ``x[1, 2]+h`` or ``alpha-h``."""
    if not all(map(math.isfinite, chain.from_iterable(pairs))):
        k, side = next((k, side) for k, pair in enumerate(pairs)
                       for side, v in enumerate(pair) if not math.isfinite(v))
        idx = list(map(int, np.unravel_index(lo + k, shape))) if shape else ""
        raise FloatingPointError(f"non-finite {what} at {label}{idx}{('+h', '-h')[side]}")


def relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, floor); 0.0 for empty input.

    An infinity on either side gives NaN (inf - inf, inf / inf) without a
    warning, so the worst-error reduction sees it and the check fails."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - n) / denom))
