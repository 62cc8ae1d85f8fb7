"""AdamW with decoupled weight decay, decay-set policy, and gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FRESH, Workspace, tiled_zeros
from .model import ModelConfig, parameter_specs


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # beta = 1 zeroes a bias correction, and a NaN or infinite rate
        # reaches every parameter: each would make the whole model NaN
        for name, high in (("lr", math.inf), ("beta1", 1.0), ("beta2", 1.0), ("eps", math.inf),
                           ("weight_decay", math.inf)):
            _check_range(name, getattr(self, name), high)


def _check_range(name: str, value: float, high: float) -> float:
    """``value`` if it lies in [0, high), else ValueError; NaN never does."""
    if not 0.0 <= value < high:
        raise ValueError(f"{name} must be in [0, {high}), got {value}")
    return value


@dataclass
class OptimizerState:
    """First/second moments per parameter, step count, and the decay set.

    ``init`` makes each moment dict views that tile one vector
    (``tiled_zeros``), in the parameters' order; ``load_checkpoint`` fills
    such a state. ``scratch`` holds the two arrays per parameter shape,
    "update" and "denom", that ``adamw_step`` computes its update in, kept
    from one step to the next; it carries no state and is not saved with a
    checkpoint.
    """

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    decay: dict = field(default_factory=dict)
    scratch: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    @classmethod
    def init(cls, params: dict, decay: dict) -> "OptimizerState":
        count = sum(p.size for p in params.values())
        specs = [(name, p.shape) for name, p in params.items()]
        return cls(m=tiled_zeros(count, specs), v=tiled_zeros(count, specs), decay=dict(decay))


def decay_flags(cfg: ModelConfig) -> dict:
    """Which parameters receive weight decay: every matrix, plus the norm
    parameters the variant table lists as decayed (the dynamic coefficient's
    alpha and beta, which decay toward the static baseline)."""
    return {
        name: len(shape) == 2 or cfg.norm.decays(name)
        for name, shape in parameter_specs(cfg)
    }


def clip_gradients(grads: dict, max_norm: float, ws=FRESH) -> float:
    """Scale all gradients so the global L2 norm is min(norm, max_norm).

    A single shared scalar multiply preserves the gradient direction exactly.
    max_norm <= 0 disables clipping, and a non-finite norm leaves the
    gradients as they are for the caller to reject. Returns the pre-clip
    global norm. The squares go into the scratch arrays "update" of the
    buffer source ``ws``; ``train_model`` passes the optimizer state's
    scratch, whose arrays ``adamw_step`` overwrites next. The per-array sums
    are added in ``grads``' order, so the norm's last bits depend on it; a
    model's is ``model_backward``'s.
    """
    total_sq = 0.0
    for g in grads.values():
        total_sq += float(np.multiply(g, g, out=ws.shared("update", g.shape)).sum())
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
    Non-finite gradients and an ``lr`` outside [0, inf) are rejected before
    any state mutates.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    lr_t = hyper.lr if lr is None else _check_range("lr", float(lr), math.inf)
    state.step += 1
    t = state.step
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        # two scratch arrays of the state shaped like p (0-d for DyT's alpha)
        # hold every temporary; each entry sees the same operations as in the
        # formula
        update = state.scratch.shared("update", p.shape)
        denom = state.scratch.shared("denom", p.shape)
        m *= hyper.beta1
        m += np.multiply(g, 1.0 - hyper.beta1, out=update)
        v *= hyper.beta2
        sq = np.multiply(g, g, out=update)
        sq *= 1.0 - hyper.beta2
        v += sq
        np.divide(m, bc1, out=update)
        update *= lr_t
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += hyper.eps
        update /= denom
        if hyper.weight_decay != 0.0 and state.decay.get(name, False):
            update += np.multiply(p, lr_t * hyper.weight_decay, out=denom)
        p -= update
    return params
