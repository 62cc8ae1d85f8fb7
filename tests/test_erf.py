"""The GELU's erf: bit for bit what scipy.special.erf returns, with no SciPy
in the library."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import seednorm
from seednorm.core import FRESH, Workspace
from seednorm.model import _ERF_BLOCK, _MAXLOG, _erf


def _around(values, ulps=2):
    """Each value and its float64 neighbours, ``ulps`` steps either side."""
    out = []
    for v in values:
        lo = hi = float(v)
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
        out.append(float(v))
    return np.array(out)


EDGE_CASES = {
    "one": _around([1.0, -1.0]),
    "eight": _around([8.0, -8.0]),
    "underflow": _around([s * np.sqrt(_MAXLOG) for s in (1, -1)] + [26.5, 26.6, -26.6, 27.0]),
    # Cephes' erfc takes R / S here, _erf keeps P / Q: 1 - erfc rounds to 1 either way
    "past_eight": np.outer([1.0, -1.0], np.linspace(8.0, 27.0, 100_001)),
    "specials": np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                          np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300]),
}
SCALES = (0.3, 1.0, 3.0, 30.0, 1e200)


def _random_values(scale):
    # (400, 500) is 200k elements: several full erf blocks and a partial one
    return np.random.default_rng(17).standard_normal((400, 500)) * scale


def assert_bitwise_erf(x, ws):
    """_erf of x, in place and into a second array, against SciPy."""
    ref = erf(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same = x.copy()
        assert _erf(same, same, ws) is same
        into = np.full_like(x, 7.0)
        src = x.copy()
        assert _erf(src, into, ws) is into
    np.testing.assert_array_equal(src, x)
    for got in (same, into):
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        keep = ~np.isnan(ref)
        mismatch = got[keep].view(np.uint64) != ref[keep].view(np.uint64)
        assert not mismatch.any(), (x[keep][mismatch][:5], got[keep][mismatch][:5])


@pytest.mark.parametrize("ws", [FRESH, Workspace()], ids=["fresh", "workspace"])
class TestErfMatchesScipy:
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edges(self, case, ws):
        assert_bitwise_erf(EDGE_CASES[case], ws)

    @pytest.mark.parametrize("scale", SCALES)
    def test_random(self, scale, ws):
        assert_bitwise_erf(_random_values(scale), ws)

    def test_workspace_reused_across_shapes(self, ws):
        for shape in [(3, 5), (70000,), (3, 5), (0,)]:
            x = np.random.default_rng(shape[0]).standard_normal(shape) * 2.0
            assert_bitwise_erf(x, ws)


def _float_exp_misses():
    """Values in (1, 27) where NumPy's float exp of -x^2 is not the C
    library's exp, the one Cephes calls."""
    x = np.random.default_rng(23).uniform(1.0, 27.0, 200_000)
    z = -x * x
    libm = np.fromiter(map(math.exp, z), float, z.size)
    return x[np.exp(z) != libm]


@pytest.mark.parametrize("ws", [FRESH, Workspace()], ids=["fresh", "workspace"])
def test_where_float_exp_misses_the_c_library(ws):
    x = _float_exp_misses()
    assert x.size > 1000
    assert_bitwise_erf(np.concatenate([x, -x]), ws)


def test_one_block_mixes_every_branch():
    rng = np.random.default_rng(29)
    root_maxlog = np.sqrt(_MAXLOG)
    a = np.concatenate([
        rng.uniform(0.0, 1.0, 500),  # the rational T / U
        rng.uniform(1.0, 8.0, 2000),  # erfc from P / Q
        rng.uniform(8.0, root_maxlog, 500),  # where Cephes' erfc takes R / S
        rng.uniform(root_maxlog, 40.0, 200),  # erfc underflows to 0
        [0.0, 1.0, 8.0, root_maxlog, 1e300, np.inf],
    ])
    x = np.concatenate([a, -a])
    rng.shuffle(x)
    assert x.size <= _ERF_BLOCK
    assert_bitwise_erf(x, Workspace())


def test_tail_calls_no_python_exp(monkeypatch):
    rng = np.random.default_rng(31)
    x = rng.uniform(1.0, 9.0, 50_000) * rng.choice([-1.0, 1.0], 50_000)

    def no_exp(value):
        raise AssertionError("math.exp called")

    monkeypatch.setattr(math, "exp", no_exp)
    assert_bitwise_erf(x, Workspace())


def test_random_values_cover_a_million():
    assert len(SCALES) * _random_values(1.0).size >= 10**6


def test_import_loads_no_scipy():
    src = str(Path(seednorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, seednorm, seednorm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
