"""Parameter containers for the normalization family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .core import Vector, as_vector


class Activation(str, Enum):
    """Bounded activations for the dynamic coefficient.

    Only bounded choices are offered: unbounded gates (GELU, Swish) let the
    dynamic coefficient blow up with the input scale and are excluded on
    purpose.
    """

    TANH = "tanh"
    SIGMOID = "sigmoid"
    HARDTANH = "hardtanh"

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.TANH:
            return np.tanh(z)
        if self is Activation.SIGMOID:
            return 1.0 / (1.0 + np.exp(-z))
        return np.clip(z, -1.0, 1.0)

    def derivative(self, z: np.ndarray, value: np.ndarray) -> np.ndarray:
        """d(activation)/dz given both the argument and the cached value.

        hardtanh uses the subgradient 0 at |z| == 1 (a measure-zero set).
        """
        if self is Activation.TANH:
            return 1.0 - value * value
        if self is Activation.SIGMOID:
            return value * (1.0 - value)
        return (np.abs(z) < 1.0).astype(np.float64)


ScalarOrVector = Union[float, np.ndarray]


@dataclass
class NormParams:
    """Learnable state and settings of a norm layer.

    gamma is the static per-channel scale. alpha and beta drive the dynamic
    coefficient activation(x . beta) * alpha; a scalar alpha is accepted and
    broadcast, and None means 0. For LayerNorm and DyT, beta is the shift,
    and DyT's alpha is its scalar tanh slope. Every entry must be finite.
    """

    gamma: Vector
    alpha: ScalarOrVector | None = 0.0
    beta: Vector | None = None
    eps: float = 1e-6
    n_heads: int = 1
    dim_scaled: bool = False
    activation: Activation = Activation.TANH

    def __post_init__(self):
        self.gamma = as_vector(self.gamma, "gamma")
        dim = self.gamma.shape[0]
        if self.beta is None:
            self.beta = np.zeros(dim)  # finite and dim long: nothing to check
        else:
            self.beta = as_vector(self.beta, "beta")
            if self.beta.shape[0] != dim:
                raise ValueError(f"beta dim {self.beta.shape[0]} != gamma dim {dim}")
        if np.ndim(self.alpha) == 0:
            self.alpha = 0.0 if self.alpha is None else float(self.alpha)
            if not math.isfinite(self.alpha):
                raise ValueError(f"alpha must be finite, got {self.alpha}")
        else:
            self.alpha = as_vector(self.alpha, "alpha")
            if self.alpha.shape[0] != dim:
                raise ValueError(f"alpha dim {self.alpha.shape[0]} != gamma dim {dim}")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.n_heads < 1 or dim % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide dim={dim}")
        if not isinstance(self.activation, Activation):
            self.activation = Activation(self.activation)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    @property
    def alpha_is_scalar(self) -> bool:
        return np.ndim(self.alpha) == 0

    def alpha_row(self) -> np.ndarray:
        """alpha as something broadcastable across channels."""
        return np.asarray(self.alpha, dtype=np.float64)


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
