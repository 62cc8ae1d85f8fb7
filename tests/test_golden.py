"""Seeded commands write the bytes of the recorded runs.

The gradient-check report, a paired training run's JSON and CSV, a DyT
run (whose scalar alpha gradient goes through the model slots) and five
probe reports (each probe at its defaults, plus a wide drift run and a
small-c ODE run) are pinned by SHA-256. The digests were taken with NumPy 2.4.6, and agree with one and
two BLAS threads; another NumPy may round differently, so the test runs
only under that version.
"""

import hashlib

import numpy as np
import pytest

from seednorm.cli import main

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "gradcheck": (
        ["gradcheck", "--variant", "all", "--trials", "100", "--seed", "7", "--json", "g.json"],
        {"g.json": "af14e45945a90140499570b7ea53030bd87188317532fc5b3d300ebe7fe821cb"},
    ),
    "compare-seednorm-layernorm": (
        ["compare", "--variant-a", "seednorm", "--variant-b", "layernorm", "--steps", "30",
         "--seed", "3", "--json", "c.json", "--csv", "c.csv"],
        {"c.json": "880b27b4e6ea095bede30e3ce049d0a410327f9ad60f8f083dce4ad15af8bfff",
         "c.csv": "22c1d234eaa638182f36817644f5c1dbd15872283a351eb3cbb732800242bb83"},
    ),
    "compare-dyt-mh_seednorm": (
        ["compare", "--variant-a", "dyt", "--variant-b", "mh_seednorm", "--norm-heads", "4",
         "--steps", "20", "--seed", "5", "--json", "d.json"],
        {"d.json": "b499a8fa0222b8e311956d1ad16a1c9b9301c5dd6fb63ccef6780752eef4e4e7"},
    ),
    "probe-scale_insensitivity": (
        ["probe", "--name", "scale_insensitivity", "--json", "s.json"],
        {"s.json": "a8925cfa4c4b3b13c6960031c722e46cdb095d36513b01f1b098da530d699df0"},
    ),
    "probe-dot_variance": (
        ["probe", "--name", "dot_variance", "--json", "v.json"],
        {"v.json": "ee59f0388a5de5e36fee8691374df270d23f62f33ce581e96ddeae3cf94e6250"},
    ),
    "probe-dyt_rmsnorm_ode": (
        ["probe", "--name", "dyt_rmsnorm_ode", "--json", "o.json"],
        {"o.json": "c8fc05e90c52718729f7de91ea2633e5261ae2ebdcd23164ea2f61dbca215239"},
    ),
    "probe-scale_insensitivity-wide": (
        ["probe", "--name", "scale_insensitivity", "--dims", "16", "--trials", "50",
         "--k", "2", "3", "1e6", "--seed", "4", "--json", "s.json"],
        {"s.json": "9e9e44af3c1dc28957574a707af2422825d5e820319e466d99898dca40885c51"},
    ),
    "probe-dyt_rmsnorm_ode-small-c": (
        ["probe", "--name", "dyt_rmsnorm_ode", "--c", "1e-4", "--dims", "9", "--samples", "300",
         "--seed", "2", "--json", "o.json"],
        {"o.json": "1595c77a688ebd244b8b49a0b4a88c53445d7e7843e1b5fadf1ae5f01c2887e2"},
    ),
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were taken with NumPy {NUMPY_VERSION}; this is NumPy {np.__version__}",
)
@pytest.mark.parametrize("run", list(GOLDEN))
def test_seeded_command_writes_the_recorded_bytes(run, tmp_path, monkeypatch, capsys):
    argv, digests = GOLDEN[run]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
    for name, want in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
