"""Parameter containers for the normalization family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Vector, as_vector


ScalarOrVector = Union[float, np.ndarray]


@dataclass
class NormParams:
    """Learnable state and settings of a norm layer.

    gamma is the static per-channel scale. alpha and beta drive the dynamic
    coefficient tanh(x . beta) * alpha; a scalar alpha is accepted and
    broadcast, and None means 0. For LayerNorm and DyT, beta is the shift,
    and DyT's alpha is its scalar tanh slope. Every entry must be finite,
    and gamma must have at least one.
    A scalar alpha is held as a 0-d float64 array, not a float, so every
    parameter is an array the finite-difference oracle can perturb in place.
    """

    gamma: Vector
    alpha: ScalarOrVector | None = 0.0
    beta: Vector | None = None
    eps: float = 1e-6
    n_heads: int = 1
    dim_scaled: bool = False

    def __post_init__(self):
        self.gamma = as_vector(self.gamma, "gamma")
        dim = self.gamma.shape[0]
        if dim == 0:
            raise ValueError("gamma must have at least one entry, got width 0")
        if self.beta is None:
            self.beta = np.zeros(dim)  # finite and dim long: nothing to check
        else:
            self.beta = as_vector(self.beta, "beta")
            if self.beta.shape[0] != dim:
                raise ValueError(f"beta dim {self.beta.shape[0]} != gamma dim {dim}")
        if np.ndim(self.alpha) == 0:
            self.alpha = np.asarray(0.0 if self.alpha is None else self.alpha, dtype=np.float64)
            if not math.isfinite(self.alpha):
                raise ValueError(f"alpha must be finite, got {self.alpha}")
        else:
            self.alpha = as_vector(self.alpha, "alpha")
            if self.alpha.shape[0] != dim:
                raise ValueError(f"alpha dim {self.alpha.shape[0]} != gamma dim {dim}")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.n_heads < 1 or dim % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide dim={dim}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    @property
    def alpha_is_scalar(self) -> bool:
        return np.ndim(self.alpha) == 0


@dataclass
class ConditionParams:
    """Resolved conditioning offsets for the adaptive variant.

    gamma_c and eta_c are the per-channel scale and shift some upstream
    network computed from a conditioning signal; this package treats them as
    given inputs.
    """

    gamma_c: Vector
    eta_c: Vector

    def __post_init__(self):
        self.gamma_c = as_vector(self.gamma_c, "gamma_c")
        self.eta_c = as_vector(self.eta_c, "eta_c")
        if self.gamma_c.shape != self.eta_c.shape:
            raise ValueError("gamma_c and eta_c must share a shape")

    @property
    def dim(self) -> int:
        return self.gamma_c.shape[0]
