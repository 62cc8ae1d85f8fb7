"""The finite-difference oracle differentiates x in stacked forwards.

It stacks the perturbed copies of x into one matrix and maps it with one
forward per chunk, which is sound only if every norm forward acts on each
row alone, down to the bit. These tests pin that property for every NORMS
row and pin the batched input gradient to the per-coordinate
``central_difference`` loop, bit for bit, along with the loop's error
reporting and its promise to hand x, u and the NormParams back as it found
them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from seednorm import backward, forward
from seednorm.backward import central_difference, finite_difference_jacobian
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


def fields_of(variant):
    """The NormParams fields the oracle differentiates, in the row's order."""
    return [name for _, name in NORMS[variant].params]


def draw_point(variant, rows, dim, seed, scalar_alpha=False, n_heads=1, dim_scaled=False,
               eps=1e-6):
    """(x, u, p): a random input, upstream gradient and NormParams."""
    norm = NORMS[variant]
    rng = make_rng(seed)
    x = rng.standard_normal((rows, dim))
    u = rng.standard_normal((rows, dim))
    fields = {"gamma": rng.standard_normal(dim), **norm.draw(rng, dim, scalar_alpha)}
    p = NormParams(**fields, eps=eps or norm.oracle_zero_eps, n_heads=n_heads,
                   dim_scaled=dim_scaled)
    return x, u, p


def looped_dx(fwd, x, u, p, step=1e-5):
    """d_x the way central_difference differentiates every other array."""
    x = x.copy()

    def objective():
        return float((u * fwd(x, p)[0]).sum())

    return central_difference(objective, [x], step, labels=["x"])[0]


def oracle_dx(fwd, x, u, p=None, step=1e-5):
    """The oracle's d_x alone: no field of p is differentiated."""
    return finite_difference_jacobian(fwd, x, u, p, (), step).d_x


class TestRowSeparable:
    @pytest.mark.parametrize("variant,n_heads,dim_scaled,scalar_alpha,eps", CONFIGS, ids=IDS)
    def test_stacked_rows_match_single_rows_bitwise(self, variant, n_heads, dim_scaled,
                                                    scalar_alpha, eps):
        fwd = getattr(forward, f"{variant}_forward")
        for rows, dim in ((96, 8), (7, 64)):
            x, _, p = draw_point(variant, rows, dim, seed=rows + dim, scalar_alpha=scalar_alpha,
                                 n_heads=n_heads, dim_scaled=dim_scaled, eps=eps)
            stacked = fwd(x, p)[0]
            for i in range(rows):
                alone = fwd(x[i:i + 1].copy(), p)[0]
                assert alone.tobytes() == stacked[i:i + 1].tobytes(), f"row {i}"


class TestBatchedInputDifferences:
    @pytest.mark.parametrize("variant,n_heads,dim_scaled,scalar_alpha,eps", CONFIGS, ids=IDS)
    @pytest.mark.parametrize("rows,dim", [(1, 4), (3, 64)], ids=["one-chunk", "chunks"])
    def test_matches_central_difference_bitwise(self, rows, dim, variant, n_heads,
                                                dim_scaled, scalar_alpha, eps):
        # 3 x 64 needs 2 * 192 copies of 192 elements: ten chunks of the cap
        fwd = getattr(forward, f"{variant}_forward")
        x, u, p = draw_point(variant, rows, dim, seed=7 * rows + dim, scalar_alpha=scalar_alpha,
                             n_heads=n_heads, dim_scaled=dim_scaled, eps=eps)
        got = finite_difference_jacobian(fwd, x, u, p, fields_of(variant)).d_x
        assert got.tobytes() == looped_dx(fwd, x, u, p).tobytes()

    @pytest.mark.parametrize("cap", [1, 30, 64, 10 ** 6])
    def test_chunk_cap_bounds_each_forward_and_keeps_bits(self, cap, monkeypatch):
        monkeypatch.setattr(backward, "FD_CHUNK_ELEMENTS", cap)
        x, u, p = draw_point("mh_seednorm", 3, 4, seed=11, n_heads=2, dim_scaled=True, eps=0.0)
        stacked = []  # elements of x per forward

        def spy(xx, pp):
            stacked.append(xx.size)
            return forward.mh_seednorm_forward(xx, pp)

        # x alone, so that every forward is one of the stacked ones
        got = oracle_dx(spy, x, u, p)
        pair = 2 * x.size
        assert sum(stacked) == pair * x.size
        assert all(n % pair == 0 and n <= max(cap, pair) for n in stacked)
        assert all(n + pair > cap for n in stacked[:-1])  # as few forwards as fit
        assert got.tobytes() == looped_dx(spy, x, u, p).tobytes()

    @pytest.mark.parametrize("bad,side", [((1, 2), "-h"), ((0, 1), "+h")])
    def test_names_nonfinite_coordinate_and_side(self, bad, side):
        step = 1e-3
        x = np.ones((2, 3))
        x[bad] = 0.5
        if side == "-h":  # only 0.5 - step falls below the threshold
            threshold = 0.5 - step / 2

            def f(xx, p):
                return np.where(xx < threshold, np.nan, xx), None
        else:  # only 0.5 + step reaches the band (0.5, 0.9)
            def f(xx, p):
                return np.where((xx > 0.5 + step / 2) & (xx < 0.9), np.nan, xx), None
        u = np.ones((2, 3))
        where = rf"x\[{bad[0]}, {bad[1]}\]\{side}"
        with pytest.raises(FloatingPointError, match=where):
            oracle_dx(f, x, u, step=step)
        with pytest.raises(FloatingPointError, match=where):
            looped_dx(f, x, u, None, step=step)

    def test_names_first_nonfinite_coordinate_across_chunks(self, monkeypatch):
        # the loop stops at the first bad coordinate in C order; the batched
        # path must name that one even when a later chunk holds another
        monkeypatch.setattr(backward, "FD_CHUNK_ELEMENTS", 2 * 6 * 2)
        x = np.ones((2, 3))
        x[0, 2] = x[1, 0] = 0.5
        def f(xx, p):
            return np.where(xx < 0.5 - 1e-3 / 2, np.nan, xx), None

        with pytest.raises(FloatingPointError, match=r"x\[0, 2\]-h"):
            oracle_dx(f, x, np.ones((2, 3)), step=1e-3)

    @pytest.mark.parametrize("step", [0.0, -1e-5])
    def test_bad_step_rejected_before_any_forward(self, step):
        calls = []

        def f(xx, p):
            calls.append(xx.shape)
            return xx, None

        p = NormParams(gamma=np.ones(3))
        with pytest.raises(ValueError, match="step"):
            finite_difference_jacobian(f, np.ones((2, 3)), np.ones((2, 3)), p, ["gamma"],
                                       step=step)
        assert calls == []

    @pytest.mark.parametrize("variant,scalar_alpha", [
        *(pytest.param(v, False, id=v) for v in NORMS),
        *(pytest.param(v, True, id=f"{v}-scalar_alpha") for v in ("seednorm", "mh_seednorm")),
    ])
    def test_point_keeps_its_bytes(self, variant, scalar_alpha):
        # the parameter directions perturb p's own arrays in place: the
        # oracle must hand back the same array objects with the same bytes
        fwd = getattr(forward, f"{variant}_forward")
        x, u, p = draw_point(variant, 3, 8, seed=5, scalar_alpha=scalar_alpha,
                             n_heads=2 if NORMS[variant].multi_head else 1)
        names = ("gamma", "alpha", "beta")
        arrays = {n: getattr(p, n) for n in names}
        before = {"x": x.tobytes(), "u": u.tobytes(),
                  **{n: a.tobytes() for n, a in arrays.items()}}
        got = finite_difference_jacobian(fwd, x, u, p, fields_of(variant))
        assert all(getattr(p, n) is arrays[n] for n in names)
        after = {"x": x.tobytes(), "u": u.tobytes(),
                 **{n: getattr(p, n).tobytes() for n in names}}
        assert after == before
        assert not np.shares_memory(got.d_x, x)

    def test_parameters_restored_when_the_forward_raises(self):
        x, u, p = draw_point("seednorm", 2, 4, seed=3)
        before = p.beta.tobytes()
        calls = []

        def fwd(xx, pp):
            calls.append(1)
            if len(calls) == 2:  # after the stacked x, beta[0]+h
                raise RuntimeError("boom")
            return forward.seednorm_forward(xx, pp)

        with pytest.raises(RuntimeError, match="boom"):
            finite_difference_jacobian(fwd, x, u, p, ["beta"])
        assert p.beta.tobytes() == before


class TestNonFinitePerturbation:
    """A perturbed value that overflows is named before any forward sees it."""

    @pytest.mark.parametrize("value,side", [(1.7e308, "+h"), (-1.7e308, "-h")])
    def test_central_difference_names_the_coordinate(self, value, side):
        calls = []
        arr = np.array([value])
        with pytest.raises(FloatingPointError,
                           match=rf"non-finite perturbation at arrays\[0\]\[0\]\{side}"):
            central_difference(lambda: calls.append(1) or 0.0, [arr], step=1e307)
        assert calls == []
        assert arr[0] == value

    @pytest.mark.parametrize("value,side", [(1.7e308, "+h"), (-1.7e308, "-h")])
    def test_input_directions_name_the_coordinate(self, value, side):
        calls = []

        def f(xx, p):
            calls.append(1)
            return xx, None

        x = np.ones((2, 3))
        x[1, 2] = value
        with pytest.raises(FloatingPointError,
                           match=rf"non-finite perturbation at x\[1, 2\]\{side}"):
            oracle_dx(f, x, np.ones((2, 3)), step=1e307)
        assert calls == []


class TestEmptyArrays:
    """An empty array has an empty gradient, not an iteration error."""

    def test_central_difference_of_empty_arrays(self):
        grads = central_difference(lambda: 0.0, [np.zeros(0), np.zeros((2, 0))])
        assert [g.shape for g in grads] == [(0,), (2, 0)]

    def test_zero_width_gamma(self):
        def f(xx, p):
            return xx * (1.0 + p.gamma.sum()), None

        # NormParams rejects a zero-width gamma; the oracle reads fields by name
        got = finite_difference_jacobian(f, np.ones((2, 3)), np.ones((2, 3)),
                                         SimpleNamespace(gamma=np.zeros(0)), ["gamma"])
        assert got.d_gamma.shape == (0,)
        assert np.allclose(got.d_x, 1.0)


class TestOneLoop:
    """The contract of the one differencing loop that both routes share."""

    def test_strided_parameter_matches_its_contiguous_copy(self):
        # the parameter is perturbed in its own memory, whatever its strides
        x, u, p = draw_point("seednorm", 3, 8, seed=13)
        wide = np.repeat(p.gamma, 2)
        strided = NormParams(gamma=wide[::2], alpha=p.alpha, beta=p.beta, eps=p.eps)
        assert not strided.gamma.flags.c_contiguous
        before = wide.tobytes()
        got = finite_difference_jacobian(forward.seednorm_forward, x, u, strided, ["gamma"])
        want = finite_difference_jacobian(forward.seednorm_forward, x, u, p, ["gamma"])
        assert got.d_gamma.tobytes() == want.d_gamma.tobytes()
        assert np.any(got.d_gamma != 0.0)
        assert wide.tobytes() == before

    def test_no_evaluation_when_any_perturbation_overflows(self):
        # the objective would fail at the first coordinate, but the overflow
        # at the last is found before loss_fn runs at all
        calls = []
        arr = np.array([1.0, 2.0, 1.7e308])
        with pytest.raises(FloatingPointError,
                           match=r"non-finite perturbation at arrays\[0\]\[2\]\+h"):
            central_difference(lambda: calls.append(1) or np.nan, [arr], step=1e307)
        assert calls == []
        assert arr.tolist() == [1.0, 2.0, 1.7e308]

    def test_no_evaluation_after_the_first_nonfinite_objective(self):
        calls = []
        arr = np.array([1.0, 2.0, 3.0])

        def loss_fn():
            calls.append(arr.copy())
            return np.nan if len(calls) == 3 else float(arr.sum())

        with pytest.raises(FloatingPointError, match=r"non-finite loss at arrays\[0\]\[1\]\+h"):
            central_difference(loss_fn, [arr, np.ones(2)], step=0.5)
        # coordinate 0 both ways, then coordinate 1's +h, and nothing more
        assert [c.tolist() for c in calls] == [[1.5, 2.0, 3.0], [0.5, 2.0, 3.0],
                                               [1.0, 2.5, 3.0]]
        assert arr.tolist() == [1.0, 2.0, 3.0]

    def test_names_a_matrix_coordinate(self):
        arr = np.ones((2, 3))

        def loss_fn():
            return np.nan if arr[1, 2] < 1.0 else float(arr.sum())

        with pytest.raises(FloatingPointError, match=r"non-finite loss at arrays\[0\]\[1, 2\]-h"):
            central_difference(loss_fn, [arr])
        assert np.all(arr == 1.0)

    def test_names_a_zero_d_array_without_an_index(self):
        alpha = np.asarray(1.7e308)
        with pytest.raises(FloatingPointError, match=r"non-finite perturbation at alpha\+h$"):
            central_difference(lambda: 0.0, [alpha], step=1e307, labels=["alpha"])
