"""Dense float64 kernels and the seeded RNG shared by every layer.

Row-major convention throughout: a matrix holds one sample per row, so every
per-sample reduction is a row reduction. Everything runs in double precision;
single precision is out of scope by design.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

# Type aliases, kept as plain ndarrays on purpose. A Matrix is 2-D float64
# with shape (rows, dim); a Vector is 1-D float64 with shape (dim,).
Matrix = np.ndarray
Vector = np.ndarray


class NonFiniteError(ValueError):
    """An array holds a NaN or an infinity; a model's norm slot that meets it
    sets ``slot`` (its name) and ``direction`` (forward or backward)."""

    slot = direction = None


def require_finite(arr: np.ndarray, name: str) -> None:
    # count_nonzero is a direct C call; np.all and .all() set up a ufunc
    # reduction, which costs more than the scan on the oracle's tiny arrays
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{name} contains non-finite entries")


def as_matrix(x, name: str = "x") -> Matrix:
    """Validate and return ``x`` as a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    require_finite(arr, name)
    return arr


def as_vector(v, name: str = "v") -> Vector:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    require_finite(arr, name)
    return arr


class Workspace:
    """Float64 arrays that outlive a call, one per (name, shape).

    A workspace hands out the array stored under a key, made on the first
    request; its contents are whatever its last user left there. Kernels
    write their results into such arrays, so a loop that hands the same
    workspace to every training step allocates the step's large arrays once,
    in its first step. Every array a call returns from a workspace stays
    valid only until the next call given the same workspace.

    ``scope(prefix)`` is a view of the same arrays whose names start with
    ``prefix``: a model slot's forward cache and gradients live under the
    slot's name, so no two slots share one. Two requests cover every use:

    - ``out(name, shape)``: an array of the scope, for a NumPy ``out=``
      argument or for a caller that fills it itself;
    - ``shared(name, shape)``: scratch that a kernel uses only while it
      runs, outside any scope, so every slot of the same shape reuses it.

    Calls given no workspace get ``FRESH``: it answers both with new arrays.

    The arrays come from memory maps of the workspace's own (``_Slabs``,
    see ``_map``), so a dropped workspace gives its memory back at once.
    """

    __slots__ = ("_arrays", "_prefix", "_slabs")

    def __init__(self, _arrays: dict | None = None, _prefix: str = "",
                 _slabs: "_Slabs | None" = None):
        self._arrays = {} if _arrays is None else _arrays
        self._prefix = _prefix
        self._slabs = _Slabs() if _slabs is None else _slabs

    def scope(self, prefix: str) -> "Workspace":
        return Workspace(self._arrays, f"{self._prefix}{prefix}.", self._slabs)

    def out(self, name: str, shape: tuple) -> np.ndarray:
        return self.shared(self._prefix + name, shape)

    def shared(self, name: str, shape: tuple) -> np.ndarray:
        key = (name, shape)
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = self._slabs.cut(shape)
        return arr


class _Slabs:
    """Float64 arrays cut one after another from anonymous memory maps.

    Each new map is at least as large as all earlier ones together, so n
    bytes of arrays take O(log n) maps. Arrays start on 64-byte boundaries.
    A map is unmapped when the last array cut from it is gone.
    """

    __slots__ = ("_map", "_used", "_mapped")

    FIRST = 1 << 20
    ALIGN = 64

    def __init__(self):
        self._map = None
        self._used = self._mapped = 0

    def cut(self, shape: tuple) -> np.ndarray:
        count = math.prod(shape)
        nbytes = 8 * count
        if self._map is None or self._used + nbytes > len(self._map):
            buf = _map(max(nbytes, self._mapped, self.FIRST))
            if buf is None:
                return np.empty(shape)
            self._map, self._used = buf, 0
            self._mapped += len(buf)
        arr = np.frombuffer(self._map, np.float64, count, self._used).reshape(shape)
        self._used += -(-nbytes // self.ALIGN) * self.ALIGN
        return arr


def _map(nbytes: int) -> mmap.mmap | None:
    """An anonymous memory map of ``nbytes`` rounded up to whole pages, or
    None under ``MAP_MIN`` bytes or where the system makes none: the caller
    then asks NumPy, which allocates or raises its own error. Large arrays
    in maps of their own stay out of the C heap, so freeing them leaves no
    holes there to shift later allocations; a small array's hole would be
    small, and a map costs a system call and a page fault tiny arrays show."""
    if nbytes < MAP_MIN:
        return None
    try:
        return mmap.mmap(-1, -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE)
    except (OSError, OverflowError):
        return None


MAP_MIN = 128 << 10  # glibc's default mmap threshold


def tiled_zeros(count: int, specs) -> dict:
    """Zeros for each (name, shape) of ``specs``, in its order, as views that
    tile one float64 vector of ``count`` elements (see ``_map``), allocated
    before ``specs`` is iterated: a lazy ``specs`` past memory fails at once."""
    buf = _map(8 * count)
    flat = np.zeros(count) if buf is None else np.frombuffer(buf, np.float64, count)
    views, at = {}, 0
    for name, shape in specs:
        size = math.prod(shape)
        w = flat[at:at + size]  # a vector is its slice: only the rest pay for a reshape
        views[name] = w if len(shape) == 1 else w.reshape(shape)
        at += size
    return views


class _Fresh:
    """The buffer source of a call given no workspace: every array is new,
    a large one in a memory map of its own (see ``_map``)."""

    __slots__ = ()

    def scope(self, prefix: str) -> "_Fresh":
        return self

    def out(self, name: str, shape: tuple) -> np.ndarray:
        buf = _map(8 * math.prod(shape))
        return np.empty(shape) if buf is None else np.ndarray(shape, np.float64, buf)

    shared = out


FRESH = _Fresh()


def rms_rows(x: Matrix, eps: float, scratch: Matrix | None = None) -> np.ndarray:
    """Per-row RMS of a matrix, shape (rows,): sqrt(mean(x**2) + eps).

    eps sits inside the radical so a zero row maps to sqrt(eps) rather than
    dividing by zero downstream. The mean is the row sum over dim, which is
    exactly what ``np.mean`` computes, without its Python-level wrapper;
    ``np.add.reduce`` is the reduction ``ndarray.sum`` runs, without its
    wrapper either. The squares go into ``scratch``, an array shaped like x,
    when one is given.
    """
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (rows, dim>=1) matrix, got shape {x.shape}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    sq = np.multiply(x, x, out=scratch)
    return np.sqrt(np.add.reduce(sq, axis=1) / x.shape[1] + eps)


def per_head_product(
    per_head: np.ndarray, m, head_dim: int, out: Matrix | None = None
) -> Matrix:
    """``per_head`` (rows, heads) times ``m``, each head's value across its
    ``head_dim`` contiguous channels; shape (rows, heads * head_dim).

    ``m`` is a scalar, a (dim,) vector or a (rows, dim) matrix. The products
    are those of ``np.repeat(per_head, head_dim, axis=1) * m``, found by
    broadcasting over the (rows, heads, head_dim) view instead of building
    the repeated matrix. They are written into ``out`` when one is given:
    a C-contiguous (rows, heads * head_dim) float64 array, whose reshape is
    a view, so the caller can reuse a scratch array it owns.
    """
    rows, heads = per_head.shape
    if np.ndim(m):
        m = m.reshape(m.shape[:-1] + (heads, head_dim))
    if out is None:
        out = np.empty((rows, heads * head_dim))
    np.multiply(per_head[:, :, None], m, out=out.reshape(rows, heads, head_dim))
    return out


def worst(*values: float) -> float:
    """The largest value, NaN if any is NaN (Python's max keeps a NaN only
    in first place)."""
    return float(np.max(values))


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
