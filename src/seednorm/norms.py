"""The norm-variant table: every variant's parameters, adapters and policies.

Each row names a variant's parameters as suffixes in canonical order, each
paired with the EvalPoint/GradBundle field it maps to (a shift rides in the
beta field), and gives one forward adapter over those arrays, the suffixes
that take weight decay, whether a model slot hands it the multi-head count,
and how the finite-difference suite draws a random point for it. The model,
the optimizer's decay set and the gradient-check suite read this table and
nothing else, so a variant is defined here once.

A variant needs no backward adapter: its forward's cache holds the
parameters the forward ran with, so the backward is ``<variant>_backward(
cache, upstream)``. Callers look both the backward and, through the forward
adapter, ``rmsnorm_forward`` and the rest up by name at call time in
``fns``, the calling module, so a test or a tracer that swaps one of those
names there sees every call it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FRESH
from .params import NormParams


def _rmsnorm_fwd(fns, x, gamma, alpha, beta, eps, n_heads=1, ws=FRESH, **opts):
    return fns.rmsnorm_forward(x, NormParams(gamma, eps=eps), ws)


def _layernorm_fwd(fns, x, gamma, alpha, beta, eps, n_heads=1, ws=FRESH, **opts):
    return fns.layernorm_forward(x, NormParams(gamma, eps=eps), beta, ws)


def _dyt_fwd(fns, x, gamma, alpha, beta, eps, n_heads=1, ws=FRESH, **opts):
    return fns.dyt_forward(x, alpha, gamma, beta, ws)


def _seednorm_fwd(fns, x, gamma, alpha, beta, eps, n_heads=1, ws=FRESH, **opts):
    return fns.seednorm_forward(x, NormParams(gamma, alpha, beta, eps, n_heads, **opts), ws)


def _mh_seednorm_fwd(fns, x, gamma, alpha, beta, eps, n_heads=1, ws=FRESH, **opts):
    return fns.mh_seednorm_forward(x, NormParams(gamma, alpha, beta, eps, n_heads, **opts), ws)


def _draw_shift(rng, dim, scalar_alpha):
    return {"beta": rng.standard_normal(dim)}


def _draw_dyt(rng, dim, scalar_alpha):
    # |alpha| capped so alpha*x stays clear of deep tanh saturation, where
    # the true gradient drops below what f64 differences resolve
    return {"beta": rng.standard_normal(dim), "alpha": rng.uniform(-1.25, 1.25, ())}


def _draw_dynamic(rng, dim, scalar_alpha):
    # beta at 1/sqrt(dim) scale keeps the pre-activation x.beta O(1), the
    # regime the coefficient operates in; saturation behavior has its own
    # closed-form checks that do not rely on differences
    beta = rng.standard_normal(dim) / np.sqrt(dim)
    return {"beta": beta, "alpha": rng.standard_normal(() if scalar_alpha else dim)}


@dataclass(frozen=True)
class NormSpec:
    """One variant. Forward adapters pass ``opts`` (dim_scaled, activation)
    to the dynamic layers; ``draw`` returns the oracle's fields after gamma,
    drawn in the order the suite has always used."""

    params: tuple  # ((suffix, EvalPoint/GradBundle field), ...), canonical order
    forward: Callable  # (fns, x, gamma, alpha, beta, eps, n_heads=1, ws=, **opts) -> (out, cache)
    draw: Callable  # (rng, dim, scalar_alpha) -> {field: array}
    decay: tuple = ()  # parameter suffixes that take weight decay
    multi_head: bool = False  # slots pass the model's norm_heads
    scalar_alpha: bool = False  # alpha is one number of shape ()
    oracle_zero_eps: float = 0.0  # eps the oracle uses where a trial asks for 0

    def arrays(self, params: dict, prefix: str) -> tuple:
        """(gamma, alpha, beta) of the slot ``prefix``; None where absent."""
        got = {field: params[f"{prefix}.{suffix}"] for suffix, field in self.params}
        return got.get("gamma"), got.get("alpha"), got.get("beta")

    def grads(self, prefix: str, bundle) -> dict:
        """A GradBundle as parameter-name -> gradient, in canonical order."""
        return {
            f"{prefix}.{suffix}": np.asarray(getattr(bundle, f"d_{field}"))
            for suffix, field in self.params
        }

    def decays(self, name: str) -> bool:
        return name.rsplit(".", 1)[-1] in self.decay


_GAMMA = ("gamma", "gamma")

NORMS = {
    "rmsnorm": NormSpec(
        params=(_GAMMA,), forward=_rmsnorm_fwd,
        draw=lambda rng, dim, scalar_alpha: {},
    ),
    # LayerNorm's oracle keeps eps > 0: at eps 0 a near-constant row has a
    # near-zero variance in the denominator.
    "layernorm": NormSpec(
        params=(_GAMMA, ("shift", "beta")), forward=_layernorm_fwd, draw=_draw_shift,
        oracle_zero_eps=1e-6,
    ),
    "dyt": NormSpec(
        params=(_GAMMA, ("shift", "beta"), ("alpha", "alpha")), forward=_dyt_fwd,
        draw=_draw_dyt, scalar_alpha=True,
    ),
    # The dynamic vectors decay toward the static baseline; gamma, shifts and
    # DyT's scalar alpha keep the usual norm-parameter exemption.
    "seednorm": NormSpec(
        params=(_GAMMA, ("alpha", "alpha"), ("beta", "beta")), forward=_seednorm_fwd,
        draw=_draw_dynamic, decay=("alpha", "beta"),
    ),
    "mh_seednorm": NormSpec(
        params=(_GAMMA, ("alpha", "alpha"), ("beta", "beta")),
        forward=_mh_seednorm_fwd, draw=_draw_dynamic,
        decay=("alpha", "beta"), multi_head=True,
    ),
}
