"""Forward passes for the normalization family.

All layers take a (rows, dim) float64 matrix and return (output, cache).
The cache carries every intermediate the matching backward pass needs, so
backward never recomputes the forward.

The dynamic layers share one kernel. With r = x / rms(x) per row and the
per-head coefficient c = activation(x_h . beta_h), the output row is

    out = (c * alpha + gamma) * r

where the coefficient of each head broadcasts across that head's contiguous
channel chunk and the RMS is always taken over the full row. Plain RMSNorm
is the beta = 0 special case and reuses the identical r and multiply, which
keeps the reduction identity exact down to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Matrix, Vector, as_matrix, as_vector, per_head_product, rms_rows
from .params import Activation, ConditionParams, NormParams


@dataclass
class ForwardCache:
    """Intermediates captured by a forward pass.

    Fields are populated per layer kind; unused ones stay None. ``s`` is the
    per-channel dynamic coefficient activation(x . beta) * alpha, each head's
    value broadcast across that head's channels.
    """

    kind: str
    x: Matrix
    n_heads: int = 1
    eps: float = 0.0
    rms: np.ndarray | None = None          # (rows,)
    r: Matrix | None = None                # x / rms, or (x - mean)/std for layernorm
    tanh_arg: np.ndarray | None = None     # (rows, n_heads), after dim scaling
    sigma_val: np.ndarray | None = None    # activation(tanh_arg), (rows, n_heads)
    s: Matrix | None = None                # dynamic coefficient per channel
    activation: Activation = Activation.TANH
    dim_scaled: bool = False
    # DyT extras
    tanh_ax: Matrix | None = None
    alpha_scalar: float | None = None
    # LayerNorm extras
    mean: np.ndarray | None = None
    inv_std: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _check_dim(p: NormParams, x: Matrix) -> None:
    if p.dim != x.shape[1]:
        raise ValueError(f"params dim {p.dim} != input dim {x.shape[1]}")


def rmsnorm_forward(x, p: NormParams) -> tuple[Matrix, ForwardCache]:
    """RMSNorm: gamma * x / sqrt(mean(x**2) + eps), per row."""
    x = as_matrix(x)
    _check_dim(p, x)
    rms = rms_rows(x, p.eps)
    r = x / rms[:, None]
    out = p.gamma * r
    cache = ForwardCache(kind="rmsnorm", x=x, rms=rms, r=r, eps=p.eps)
    return out, cache


def layernorm_forward(x, p: NormParams, shift) -> tuple[Matrix, ForwardCache]:
    """LayerNorm: gamma * (x - mean)/sqrt(var + eps) + shift, per row.

    Population variance (denominator dim, not dim - 1).
    """
    x = as_matrix(x)
    _check_dim(p, x)
    shift = as_vector(shift, "shift")
    if shift.shape[0] != p.dim:
        raise ValueError(f"shift dim {shift.shape[0]} != input dim {x.shape[1]}")
    # np.mean and np.var written out as they compute them, sharing the
    # centered rows with xhat
    dim = x.shape[1]
    mean = x.sum(axis=1) / dim
    centered = x - mean[:, None]
    var = (centered * centered).sum(axis=1) / dim
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = centered * inv_std[:, None]
    out = p.gamma * xhat + shift
    cache = ForwardCache(
        kind="layernorm", x=x, eps=p.eps, r=xhat, mean=mean, inv_std=inv_std
    )
    return out, cache


def dyt_forward(x, alpha_scalar: float, gamma, shift) -> tuple[Matrix, ForwardCache]:
    """Dynamic tanh, no normalization: gamma * tanh(alpha * x) + shift."""
    x = as_matrix(x)
    gamma = as_vector(gamma, "gamma")
    shift = as_vector(shift, "shift")
    if gamma.shape[0] != x.shape[1] or shift.shape[0] != x.shape[1]:
        raise ValueError("gamma/shift dim mismatch with input")
    alpha_scalar = float(alpha_scalar)
    t = np.tanh(alpha_scalar * x)
    out = gamma * t + shift
    cache = ForwardCache(kind="dyt", x=x, tanh_ax=t, alpha_scalar=alpha_scalar)
    return out, cache


def _dynamic_forward(
    x,
    p: NormParams,
    kind: str,
    include_gamma: bool,
) -> tuple[Matrix, ForwardCache]:
    x = as_matrix(x)
    _check_dim(p, x)
    rows, dim = x.shape
    heads = p.n_heads
    head_dim = dim // heads

    rms = rms_rows(x, p.eps)
    r = x / rms[:, None]

    xh = x.reshape(rows, heads, head_dim)
    bh = p.beta.reshape(heads, head_dim)
    tanh_arg = np.einsum("rhd,hd->rh", xh, bh)
    if p.dim_scaled:
        tanh_arg = tanh_arg / head_dim
    sigma_val = p.activation.apply(tanh_arg)

    s = per_head_product(sigma_val, p.alpha, head_dim)
    scale = s + p.gamma if include_gamma else s + 1.0
    out = scale * r
    cache = ForwardCache(
        kind=kind,
        x=x,
        n_heads=heads,
        eps=p.eps,
        rms=rms,
        r=r,
        tanh_arg=tanh_arg,
        sigma_val=sigma_val,
        s=s,
        activation=p.activation,
        dim_scaled=p.dim_scaled,
    )
    return out, cache


def seednorm_forward(x, p: NormParams) -> tuple[Matrix, ForwardCache]:
    """Single-head self-rescaling norm: (activation(x . beta) * alpha + gamma) * x/rms(x).

    The coefficient activation(x . beta) is one scalar per row that rescales
    the whole normalized row; beta = 0 reduces the layer to RMSNorm exactly.
    """
    if p.n_heads != 1:
        raise ValueError("n_heads != 1: use mh_seednorm_forward")
    return _dynamic_forward(x, p, "seednorm", include_gamma=True)


def mh_seednorm_forward(x, p: NormParams) -> tuple[Matrix, ForwardCache]:
    """Multi-head variant: per-head coefficients, full-row RMS.

    The row and beta split into n_heads contiguous chunks; each head's
    coefficient activation(x_h . beta_h) rescales only that head's channels.
    The RMS stays a full-row reduction. With dim_scaled=True the dot product
    is divided by the head width before the activation.
    """
    return _dynamic_forward(x, p, "mh_seednorm", include_gamma=True)


def ada_seednorm_forward(
    x, p: NormParams, cond: ConditionParams
) -> tuple[Matrix, ForwardCache]:
    """Conditioned variant for generative stacks.

    The internal gamma is the constant 1; a resolved conditioning pair
    (gamma_c, eta_c) applies afterwards:

        out = [(activation(x . beta) * alpha + 1) * x/rms(x)] * (1 + gamma_c) + eta_c

    gamma_c = eta_c = 0 reduces to the single-head layer with gamma = 1.
    p.gamma is ignored here by construction.
    """
    if cond.dim != p.dim:
        raise ValueError(f"condition dim {cond.dim} != params dim {p.dim}")
    core, cache = _dynamic_forward(x, p, "ada_seednorm", include_gamma=False)
    out = core * (1.0 + cond.gamma_c) + cond.eta_c
    return out, cache
