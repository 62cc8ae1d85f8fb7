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


def _require_finite(arr: np.ndarray, name: str) -> None:
    # count_nonzero is a direct C call; np.all and .all() set up a ufunc
    # reduction, which costs more than the scan on the oracle's tiny arrays
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} contains non-finite entries")


def as_matrix(x, name: str = "x") -> Matrix:
    """Validate and return ``x`` as a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    _require_finite(arr, name)
    return arr


def as_vector(v, name: str = "v") -> Vector:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    _require_finite(arr, name)
    return arr


def rms_rows(x: Matrix, eps: float) -> np.ndarray:
    """Per-row RMS of a matrix, shape (rows,): sqrt(mean(x**2) + eps).

    eps sits inside the radical so a zero row maps to sqrt(eps) rather than
    dividing by zero downstream. The mean is the row sum over dim, which is
    exactly what ``np.mean`` computes, without its Python-level wrapper.
    """
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (rows, dim>=1) matrix, got shape {x.shape}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return np.sqrt((x * x).sum(axis=1) / x.shape[1] + eps)


def per_head_product(per_head: np.ndarray, m, head_dim: int) -> Matrix:
    """``per_head`` (rows, heads) times ``m``, each head's value across its
    ``head_dim`` contiguous channels; shape (rows, heads * head_dim).

    ``m`` is a scalar, a (dim,) vector or a (rows, dim) matrix. The products
    are those of ``np.repeat(per_head, head_dim, axis=1) * m``, found by
    broadcasting over the (rows, heads, head_dim) view instead of building
    the repeated matrix.
    """
    rows, heads = per_head.shape
    if np.ndim(m):
        m = m.reshape(m.shape[:-1] + (heads, head_dim))
    out = np.empty((rows, heads, head_dim))
    np.multiply(per_head[:, :, None], m, out=out)
    return out.reshape(rows, heads * head_dim)


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
