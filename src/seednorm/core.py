"""Dense float64 kernels and the seeded RNG shared by every layer.

Row-major convention throughout: a matrix holds one sample per row, so every
per-sample reduction is a row reduction. Everything runs in double precision;
single precision is out of scope by design.
"""

from __future__ import annotations

import numpy as np

# Type aliases, kept as plain ndarrays on purpose. A Matrix is 2-D float64
# with shape (rows, dim); a Vector is 1-D float64 with shape (dim,).
Matrix = np.ndarray
Vector = np.ndarray


def as_matrix(x, name: str = "x") -> Matrix:
    """Validate and return ``x`` as a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "v") -> Vector:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def rms_rows(x: Matrix, eps: float) -> np.ndarray:
    """Per-row RMS of a matrix, shape (rows,): sqrt(mean(x**2) + eps).

    eps sits inside the radical so a zero row maps to sqrt(eps) rather than
    dividing by zero downstream.
    """
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (rows, dim>=1) matrix, got shape {x.shape}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return np.sqrt(np.mean(x * x, axis=1) + eps)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox 4x64).

    Philox is a documented counter-based algorithm: equal seeds give
    byte-identical streams on every platform, which the reproducibility
    contract of this package relies on.
    """
    return np.random.Generator(np.random.Philox(int(seed)))


def spawn_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Draw independent child seeds from ``rng`` for derived streams."""
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]
