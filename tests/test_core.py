"""Tensor-core helpers: validation, row RMS, and the seeded RNG contract."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seednorm.core import as_matrix, as_vector, make_rng, rms_rows, spawn_seeds


class TestValidation:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]], "m")
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ValueError, match="m"):
            as_matrix([1.0, 2.0], "m")

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, np.nan]], "m")

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.inf, 1.0]], "m")

    def test_as_vector_rejects_2d(self):
        with pytest.raises(ValueError):
            as_vector([[1.0]], "v")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_as_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="v contains non-finite entries"):
            as_vector([1.0, bad, 2.0], "v")


def one_row_rms(v, eps):
    """rms_rows of the one-row matrix holding ``v``."""
    return float(rms_rows(np.asarray(v, dtype=np.float64).reshape(1, -1), eps)[0])


class TestRowRms:
    def test_three_four_no_eps(self):
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        assert one_row_rms(np.array([3.0, 4.0]), 0.0) == pytest.approx(math.sqrt(12.5), rel=0, abs=0)

    def test_zero_row_eps_floor(self):
        # all-zero row: rms collapses to sqrt(eps)
        assert one_row_rms(np.zeros(4), 1e-6) == pytest.approx(1e-3, rel=0, abs=0)

    def test_eps_inside_radical(self):
        v = np.array([3.0, 4.0])
        assert one_row_rms(v, 0.5) == pytest.approx(math.sqrt(12.5 + 0.5))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            one_row_rms(np.ones(2), -1e-9)

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            one_row_rms(np.array([]), 0.0)

    def test_rms_rows_matches_per_row(self):
        x = np.array([[3.0, 4.0], [1.0, 1.0]])
        out = rms_rows(x, 0.0)
        assert out[0] == pytest.approx(math.sqrt(12.5))
        assert out[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2, 7, 16, 64, 129])
    def test_matches_np_mean_bitwise(self, dim):
        # rms_rows writes out np.mean's row sum over dim; the bits must not move
        x = make_rng(dim).standard_normal((5, dim)) * 3.0
        for eps in (0.0, 1e-6):
            assert np.array_equal(rms_rows(x, eps), np.sqrt(np.mean(x * x, axis=1) + eps))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    def test_scale_equivariance(self, vals):
        # rms(k x) = |k| rms(x) at eps 0
        v = np.asarray(vals, dtype=np.float64)
        assert one_row_rms(2.0 * v, 0.0) == pytest.approx(2.0 * one_row_rms(v, 0.0), rel=1e-12, abs=1e-300)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).standard_normal(100)
        b = make_rng(7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(7).standard_normal(100)
        b = make_rng(8).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_million_draw_byte_identity(self):
        # regression pin on the counter-based generator: the raw stream must
        # never drift between runs or platforms
        draws = make_rng(12345).integers(0, 2**32, size=10**6, dtype=np.uint32)
        digest = int(np.bitwise_xor.reduce(draws))
        assert draws[:4].tolist() == [3767040320, 1807126213, 2638842113, 2805347945]
        assert digest == 489260219

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(make_rng(3), 4)
        b = spawn_seeds(make_rng(3), 4)
        assert list(a) == list(b)
        assert len(set(int(s) for s in a)) == 4
