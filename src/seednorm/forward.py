"""Forward passes for the normalization family.

Every layer of the variant table is ``<variant>_forward(x, p, ws=FRESH)``:
a (rows, dim) float64 matrix, the layer's NormParams and a buffer source,
returning (output, cache). LayerNorm and DyT read their shift from
``p.beta``; the conditioned layer also takes its ConditionParams. The cache
carries the parameters the layer ran with and every intermediate the
matching backward pass needs, so backward never recomputes the forward and
takes nothing but the cache and the upstream gradient.

A forward takes its (rows, dim) arrays, its output and the cache entries
of that shape, from the buffer source ``ws`` (see ``core.Workspace``):
fresh arrays by default, or the arrays of a workspace that a training loop
reuses from step to step. The output is ``ws``'s array "out" and each cache
entry the array of its field's name; a model slot scopes them to the slot.
Every other intermediate of that size goes into those in place; the
per-row ones, (rows,) or (rows, heads), are new arrays. A forward never
writes to its input or its parameters. Each element still goes through the
operations of the formula in the same order, so the results are bitwise
those of the formula written as one expression.

The dynamic layers share one kernel. With r = x / rms(x) per row and the
per-head coefficient c = tanh(x_h . beta_h), the output row is

    out = (c * alpha + gamma) * r

where the coefficient of each head broadcasts across that head's contiguous
channel chunk and the RMS is always taken over the full row. Plain RMSNorm
is the beta = 0 special case and reuses the identical r and multiply, which
keeps the reduction identity exact down to the last bit. The output array
takes c * alpha first, so a dynamic layer keeps r and its output, as RMSNorm
does; the backward rebuilds c * alpha from the cached per-head c.

The coefficient is bounded on purpose: |c| <= 1 whatever the input's scale,
so under x -> k x the output moves by at most 2 |alpha| |r| (the bound
``probes.probe_scale_insensitivity`` checks). An unbounded gate, such as
GELU or Swish, would let the coefficient blow up with the input's scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FRESH, Matrix, as_matrix, per_head_product, rms_rows
from .params import ConditionParams, NormParams


@dataclass
class ForwardCache:
    """Intermediates captured by a forward pass, and the parameters it ran with.

    ``params`` is the NormParams the forward ran with (the conditioned
    layer's has a gamma of ones); for LayerNorm and DyT its beta is the
    shift. The backward reads every parameter and layer setting from it, so
    it can only differentiate the forward that made the cache. Other fields
    are populated per layer kind; unused ones stay None. A dynamic layer
    keeps ``r`` and the per-head ``sigma_val``; its backward rebuilds the
    per-channel coefficient tanh(x . beta) * alpha from ``sigma_val``.
    """

    kind: str
    x: Matrix
    params: NormParams
    rms: np.ndarray | None = None          # (rows,)
    r: Matrix | None = None                # x / rms, or (x - mean)/std for layernorm
    tanh_arg: np.ndarray | None = None     # (rows, n_heads), after dim scaling
    sigma_val: np.ndarray | None = None    # tanh(tanh_arg), (rows, n_heads)
    tanh_ax: Matrix | None = None          # DyT: tanh(alpha * x)
    inv_std: np.ndarray | None = None      # LayerNorm: 1 / sqrt(var + eps)

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _check_dim(p: NormParams, x: Matrix) -> None:
    if p.dim != x.shape[1]:
        raise ValueError(f"params dim {p.dim} != input dim {x.shape[1]}")


def rmsnorm_forward(x, p: NormParams, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    """RMSNorm: gamma * x / sqrt(mean(x**2) + eps), per row."""
    x = as_matrix(x)
    _check_dim(p, x)
    r = ws.out("r", x.shape)  # the squares first
    rms = rms_rows(x, p.eps, scratch=r)
    r = np.divide(x, rms[:, None], out=r)
    out = np.multiply(p.gamma, r, out=ws.out("out", x.shape))
    cache = ForwardCache(kind="rmsnorm", x=x, params=p, rms=rms, r=r)
    return out, cache


def layernorm_forward(x, p: NormParams, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    """LayerNorm: gamma * (x - mean)/sqrt(var + eps) + beta, per row.

    beta is the shift. Population variance (denominator dim, not dim - 1).
    """
    x = as_matrix(x)
    _check_dim(p, x)
    # np.mean and np.var written out as they compute them, sharing the
    # centered rows with xhat
    dim = x.shape[1]
    # np.add.reduce is the row sum .sum runs, without its Python wrapper
    mean = np.add.reduce(x, axis=1) / dim
    xhat = np.subtract(x, mean[:, None], out=ws.out("r", x.shape))  # scaled below
    out = np.multiply(xhat, xhat, out=ws.out("out", x.shape))  # squares first
    var = np.add.reduce(out, axis=1) / dim
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat *= inv_std[:, None]
    np.multiply(xhat, p.gamma, out=out)
    out += p.beta
    cache = ForwardCache(kind="layernorm", x=x, params=p, r=xhat, inv_std=inv_std)
    return out, cache


def dyt_forward(x, p: NormParams, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    """Dynamic tanh, no normalization: gamma * tanh(alpha * x) + beta.

    beta is the shift and alpha must be one number; eps and the head
    settings are not used.
    """
    x = as_matrix(x)
    if not p.alpha_is_scalar:
        raise ValueError(f"dyt alpha must be a scalar, got shape {np.shape(p.alpha)}")
    _check_dim(p, x)
    t = np.multiply(x, p.alpha, out=ws.out("tanh_ax", x.shape))
    np.tanh(t, out=t)
    out = np.multiply(t, p.gamma, out=ws.out("out", x.shape))
    out += p.beta
    cache = ForwardCache(kind="dyt", x=x, params=p, tanh_ax=t)
    return out, cache


def _dynamic_forward(x, p: NormParams, kind: str, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    x = as_matrix(x)
    _check_dim(p, x)
    rows, dim = x.shape
    heads = p.n_heads
    head_dim = dim // heads

    r = ws.out("r", x.shape)  # the squares first
    rms = rms_rows(x, p.eps, scratch=r)
    r = np.divide(x, rms[:, None], out=r)

    xh = x.reshape(rows, heads, head_dim)
    bh = p.beta.reshape(heads, head_dim)
    tanh_arg = np.einsum("rhd,hd->rh", xh, bh)
    if p.dim_scaled:
        tanh_arg /= head_dim
    sigma_val = np.tanh(tanh_arg)

    out = per_head_product(sigma_val, p.alpha, head_dim, out=ws.out("out", x.shape))
    out += p.gamma
    out *= r
    cache = ForwardCache(kind=kind, x=x, params=p, rms=rms, r=r, tanh_arg=tanh_arg,
                         sigma_val=sigma_val)
    return out, cache


def seednorm_forward(x, p: NormParams, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    """Single-head self-rescaling norm: (tanh(x . beta) * alpha + gamma) * x/rms(x).

    The coefficient tanh(x . beta) is one scalar per row that rescales
    the whole normalized row; beta = 0 reduces the layer to RMSNorm exactly.
    """
    if p.n_heads != 1:
        raise ValueError("n_heads != 1: use mh_seednorm_forward")
    return _dynamic_forward(x, p, "seednorm", ws)


def mh_seednorm_forward(x, p: NormParams, ws=FRESH) -> tuple[Matrix, ForwardCache]:
    """Multi-head variant: per-head coefficients, full-row RMS.

    The row and beta split into n_heads contiguous chunks; each head's
    coefficient tanh(x_h . beta_h) rescales only that head's channels.
    The RMS stays a full-row reduction. With dim_scaled=True the dot product
    is divided by the head width before the tanh.
    """
    return _dynamic_forward(x, p, "mh_seednorm", ws)


def ada_seednorm_forward(
    x, p: NormParams, cond: ConditionParams
) -> tuple[Matrix, ForwardCache]:
    """Conditioned variant for generative stacks.

    The internal gamma is the constant 1; a resolved conditioning pair
    (gamma_c, eta_c) applies afterwards:

        out = [(tanh(x . beta) * alpha + 1) * x/rms(x)] * (1 + gamma_c) + eta_c

    gamma_c = eta_c = 0 reduces to the single-head layer with gamma = 1.
    p.gamma is ignored: the layer runs with a gamma of ones, whose sums have
    the bits of adding 1.0.
    """
    if cond.dim != p.dim:
        raise ValueError(f"condition dim {cond.dim} != params dim {p.dim}")
    out, cache = _dynamic_forward(x, replace(p, gamma=np.ones(p.dim)), "ada_seednorm")
    out *= 1.0 + cond.gamma_c
    out += cond.eta_c
    return out, cache
