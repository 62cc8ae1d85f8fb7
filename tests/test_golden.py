"""Seeded commands write the bytes of the recorded runs.

The gradient-check report, a paired training run's JSON and CSV, and a DyT
run (whose scalar alpha gradient goes through the model slots) are pinned
by SHA-256. The digests were taken with NumPy 2.4.6, and agree with one and
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
