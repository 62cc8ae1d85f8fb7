"""AdamW with decoupled weight decay, decay-set policy, and gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, NormVariant, parameter_specs


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class OptimizerState:
    """First/second moments per parameter, step count, and the decay set."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    decay: dict = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict, decay: dict) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
            decay=dict(decay),
        )


def decay_flags(cfg: ModelConfig, specs=None) -> dict:
    """Which parameters receive weight decay.

    Matrices always decay. The dynamic-coefficient vectors alpha and beta
    decay too: they multiply the signal, and decay regularizes the coefficient
    toward the static baseline. Norm scales (gamma), bias-like shifts, and
    DyT's scalar alpha follow the usual norm-parameter exemption.
    """
    specs = specs if specs is not None else parameter_specs(cfg)
    dynamic = cfg.norm_variant in (NormVariant.SEEDNORM, NormVariant.MH_SEEDNORM)
    flags = {}
    for name, shape in specs:
        if len(shape) == 2:
            flags[name] = True
        elif dynamic and name.endswith((".alpha", ".beta")):
            flags[name] = True
        else:
            flags[name] = False
    return flags


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is min(norm, max_norm).

    A single shared scalar multiply preserves the gradient direction exactly.
    max_norm <= 0 disables clipping, and a non-finite norm leaves the
    gradients as they are for the caller to reject. Returns the pre-clip
    global norm.
    """
    total_sq = 0.0
    for g in grads.values():
        total_sq += float(np.sum(g * g))
    total = float(np.sqrt(total_sq))
    if max_norm > 0 and max_norm < total < np.inf:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adamw_step(
    state: OptimizerState, params: dict, grads: dict, hyper: AdamWConfig,
    lr: float | None = None,
) -> dict:
    """One AdamW update, in place. ``lr`` overrides hyper.lr for schedules.

    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * wd * theta,
    with bias-corrected moments and decay applied only to the decay set.
    Non-finite gradients are rejected before any state mutates.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    lr_t = hyper.lr if lr is None else float(lr)
    state.step += 1
    t = state.step
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * (g * g)
        update = lr_t * (m / bc1) / (np.sqrt(v / bc2) + hyper.eps)
        if hyper.weight_decay != 0.0 and state.decay.get(name, False):
            update = update + lr_t * hyper.weight_decay * p
        p -= update
    return params
