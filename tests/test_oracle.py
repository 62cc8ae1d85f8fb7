"""The finite-difference oracle differentiates x in stacked forwards.

It stacks the perturbed copies of x into one matrix and maps it with one
forward per chunk, which is sound only if every norm forward acts on each
row alone, down to the bit. These tests pin that property for every NORMS
row and pin the batched input gradient to the per-coordinate
``central_difference`` loop, bit for bit, along with the loop's error
reporting and its promise to leave the point as it found it.
"""

import numpy as np
import pytest

from seednorm import backward, forward
from seednorm.backward import EvalPoint, central_difference, finite_difference_jacobian
from seednorm.core import make_rng
from seednorm.norms import NORMS
from seednorm.params import NormParams


def layer_configs():
    """(variant, n_heads, dim_scaled, scalar_alpha, eps) per case."""
    for variant, norm in NORMS.items():
        dynamic = "beta" in dict(norm.params)  # draws a vector or a scalar alpha
        shapes = [(1, False)]
        if norm.multi_head:
            shapes += [(2, False), (2, True), (4, False), (4, True)]
        for eps in (0.0, 1e-6):
            for n_heads, dim_scaled in shapes:
                for scalar_alpha in ((False, True) if dynamic else (False,)):
                    yield variant, n_heads, dim_scaled, scalar_alpha, eps


CONFIGS = list(layer_configs())
IDS = [f"{v}-h{h}{'-scaled' if s else ''}-tanh{'-scalar' if sa else ''}-eps{e:g}"
       for v, h, s, sa, e in CONFIGS]


def layer_fn(variant, n_heads, dim_scaled, eps):
    norm = NORMS[variant]
    layer = {"n_heads": n_heads, "dim_scaled": dim_scaled}
    eps = eps or norm.oracle_zero_eps

    layer_forward = getattr(forward, f"{variant}_forward")

    def f(xx, g, a, b):
        return layer_forward(xx, NormParams(g, a, b, eps, **layer))[0]

    return f


def draw_point(variant, rows, dim, seed, scalar_alpha=False):
    rng = make_rng(seed)
    x = rng.standard_normal((rows, dim))
    u = rng.standard_normal((rows, dim))
    fields = {"gamma": rng.standard_normal(dim), **NORMS[variant].draw(rng, dim, scalar_alpha)}
    return EvalPoint(x=x, u=u, **fields)


def looped_dx(f, point, step=1e-5):
    """d_x the way central_difference differentiates every other array."""
    def objective():
        return float((point.u * f(point.x, point.gamma, point.alpha, point.beta)).sum())

    return central_difference(objective, [point.x], step, labels=["x"])[0]


class TestRowSeparable:
    @pytest.mark.parametrize("variant,n_heads,dim_scaled,scalar_alpha,eps", CONFIGS, ids=IDS)
    def test_stacked_rows_match_single_rows_bitwise(self, variant, n_heads, dim_scaled,
                                                    scalar_alpha, eps):
        f = layer_fn(variant, n_heads, dim_scaled, eps)
        for rows, dim in ((96, 8), (7, 64)):
            p = draw_point(variant, rows, dim, seed=rows + dim, scalar_alpha=scalar_alpha)
            stacked = f(p.x, p.gamma, p.alpha, p.beta)
            for i in range(rows):
                alone = f(p.x[i:i + 1].copy(), p.gamma, p.alpha, p.beta)
                assert alone.tobytes() == stacked[i:i + 1].tobytes(), f"row {i}"


class TestBatchedInputDifferences:
    @pytest.mark.parametrize("variant,n_heads,dim_scaled,scalar_alpha,eps", CONFIGS, ids=IDS)
    @pytest.mark.parametrize("rows,dim", [(1, 4), (3, 64)], ids=["one-chunk", "chunks"])
    def test_matches_central_difference_bitwise(self, rows, dim, variant, n_heads,
                                                dim_scaled, scalar_alpha, eps):
        # 3 x 64 needs 2 * 192 copies of 192 elements: ten chunks of the cap
        f = layer_fn(variant, n_heads, dim_scaled, eps)
        p = draw_point(variant, rows, dim, seed=7 * rows + dim, scalar_alpha=scalar_alpha)
        got = finite_difference_jacobian(f, p).d_x
        assert got.tobytes() == looped_dx(f, p).tobytes()

    @pytest.mark.parametrize("cap", [1, 30, 64, 10 ** 6])
    def test_chunk_cap_bounds_each_forward_and_keeps_bits(self, cap, monkeypatch):
        monkeypatch.setattr(backward, "FD_CHUNK_ELEMENTS", cap)
        f = layer_fn("mh_seednorm", 2, True, 0.0)
        p = draw_point("mh_seednorm", 3, 4, seed=11)
        stacked = []  # elements of x per forward

        def spy(xx, g, a, b):
            stacked.append(xx.size)
            return f(xx, p.gamma, p.alpha, p.beta)

        # x alone, so that every forward is one of the stacked ones
        point = EvalPoint(x=p.x, u=p.u)
        got = finite_difference_jacobian(spy, point).d_x
        pair = 2 * p.x.size
        assert sum(stacked) == pair * p.x.size
        assert all(n % pair == 0 and n <= max(cap, pair) for n in stacked)
        assert all(n + pair > cap for n in stacked[:-1])  # as few forwards as fit
        assert got.tobytes() == looped_dx(spy, point).tobytes()

    @pytest.mark.parametrize("bad,side", [((1, 2), "-h"), ((0, 1), "+h")])
    def test_names_nonfinite_coordinate_and_side(self, bad, side):
        step = 1e-3
        x = np.ones((2, 3))
        x[bad] = 0.5
        if side == "-h":  # only 0.5 - step falls below the threshold
            threshold = 0.5 - step / 2

            def f(xx, g, a, b):
                return np.where(xx < threshold, np.nan, xx)
        else:  # only 0.5 + step reaches the band (0.5, 0.9)
            def f(xx, g, a, b):
                return np.where((xx > 0.5 + step / 2) & (xx < 0.9), np.nan, xx)
        point = EvalPoint(x=x, u=np.ones((2, 3)))
        where = rf"x\[{bad[0]}, {bad[1]}\]\{side}"
        with pytest.raises(FloatingPointError, match=where):
            finite_difference_jacobian(f, point, step=step)
        with pytest.raises(FloatingPointError, match=where):
            looped_dx(f, point, step=step)

    def test_names_first_nonfinite_coordinate_across_chunks(self, monkeypatch):
        # the loop stops at the first bad coordinate in C order; the batched
        # path must name that one even when a later chunk holds another
        monkeypatch.setattr(backward, "FD_CHUNK_ELEMENTS", 2 * 6 * 2)
        x = np.ones((2, 3))
        x[0, 2] = x[1, 0] = 0.5
        point = EvalPoint(x=x, u=np.ones((2, 3)))

        def f(xx, g, a, b):
            return np.where(xx < 0.5 - 1e-3 / 2, np.nan, xx)

        with pytest.raises(FloatingPointError, match=r"x\[0, 2\]-h"):
            finite_difference_jacobian(f, point, step=1e-3)

    @pytest.mark.parametrize("step", [0.0, -1e-5])
    def test_bad_step_rejected_before_any_forward(self, step):
        calls = []

        def f(xx, g, a, b):
            calls.append(xx.shape)
            return xx

        point = EvalPoint(x=np.ones((2, 3)), u=np.ones((2, 3)), gamma=np.ones(3))
        with pytest.raises(ValueError, match="step"):
            finite_difference_jacobian(f, point, step=step)
        assert calls == []

    @pytest.mark.parametrize("variant", list(NORMS))
    def test_point_keeps_its_bytes(self, variant):
        f = layer_fn(variant, 2 if NORMS[variant].multi_head else 1, False, 1e-6)
        p = draw_point(variant, 3, 8, seed=5)
        names = ("x", "u", "gamma", "alpha", "beta")
        before = {n: getattr(p, n).tobytes() for n in names if getattr(p, n) is not None}
        got = finite_difference_jacobian(f, p)
        assert {n: getattr(p, n).tobytes() for n in before} == before
        assert not np.shares_memory(got.d_x, p.x)


class TestEmptyArrays:
    """An empty array has an empty gradient, not an iteration error."""

    def test_central_difference_of_empty_arrays(self):
        grads = central_difference(lambda: 0.0, [np.zeros(0), np.zeros((2, 0))])
        assert [g.shape for g in grads] == [(0,), (2, 0)]

    def test_zero_width_gamma(self):
        def f(xx, g, a, b):
            return xx * (1.0 + g.sum())

        point = EvalPoint(x=np.ones((2, 3)), u=np.ones((2, 3)), gamma=np.zeros(0))
        got = finite_difference_jacobian(f, point)
        assert got.d_gamma.shape == (0,)
        assert np.allclose(got.d_x, 1.0)
