"""The norm-variant table: every variant's parameters and policies.

Each row names a variant's parameters as suffixes in canonical order, each
paired with the NormParams/GradBundle field it maps to (a shift rides in the
beta field), the suffixes that take weight decay, whether a model slot
hands it the multi-head count, and how the finite-difference suite draws a
random point for it. The model, the optimizer's decay set and the
gradient-check suite read this table and nothing else, so a variant is
defined here once.

A variant needs no forward or backward adapter. Every layer is called the
same way: ``<variant>_forward(x, NormParams(gamma, alpha, beta, eps,
n_heads, **opts), ws)``, then ``<variant>_backward(cache, upstream, ws)``,
since the cache holds the parameters the forward ran with. The
finite-difference oracle calls the same forward with the same NormParams
and differentiates the fields a row names. Callers look both up by name at
call time in their own module, so a test or a tracer that swaps one of
those names there sees every call it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _draw_shift(rng, dim, scalar_alpha):
    return {"beta": rng.standard_normal(dim)}


def _draw_dyt(rng, dim, scalar_alpha):
    # |alpha| capped so alpha*x stays clear of deep tanh saturation, where
    # the true gradient drops below what f64 differences resolve
    return {"beta": rng.standard_normal(dim), "alpha": rng.uniform(-1.25, 1.25, ())}


def _draw_dynamic(rng, dim, scalar_alpha):
    # beta at 1/sqrt(dim) scale keeps the tanh argument x.beta O(1), the
    # regime the coefficient operates in; saturation behavior has its own
    # closed-form checks that do not rely on differences
    beta = rng.standard_normal(dim) / np.sqrt(dim)
    return {"beta": beta, "alpha": rng.standard_normal(() if scalar_alpha else dim)}


@dataclass(frozen=True)
class NormSpec:
    """One variant. ``draw`` returns the oracle's fields after gamma, drawn
    in the order the suite has always used."""

    params: tuple  # ((suffix, NormParams/GradBundle field), ...), canonical order
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
            f"{prefix}.{suffix}": getattr(bundle, f"d_{field}")
            for suffix, field in self.params
        }

    def decays(self, name: str) -> bool:
        return name.rsplit(".", 1)[-1] in self.decay


_GAMMA = ("gamma", "gamma")

NORMS = {
    "rmsnorm": NormSpec(params=(_GAMMA,), draw=lambda rng, dim, scalar_alpha: {}),
    # LayerNorm's oracle keeps eps > 0: at eps 0 a near-constant row has a
    # near-zero variance in the denominator.
    "layernorm": NormSpec(
        params=(_GAMMA, ("shift", "beta")), draw=_draw_shift, oracle_zero_eps=1e-6,
    ),
    "dyt": NormSpec(
        params=(_GAMMA, ("shift", "beta"), ("alpha", "alpha")), draw=_draw_dyt,
        scalar_alpha=True,
    ),
    # The dynamic vectors decay toward the static baseline; gamma, shifts and
    # DyT's scalar alpha keep the usual norm-parameter exemption.
    "seednorm": NormSpec(
        params=(_GAMMA, ("alpha", "alpha"), ("beta", "beta")), draw=_draw_dynamic,
        decay=("alpha", "beta"),
    ),
    "mh_seednorm": NormSpec(
        params=(_GAMMA, ("alpha", "alpha"), ("beta", "beta")), draw=_draw_dynamic,
        decay=("alpha", "beta"), multi_head=True,
    ),
}
