"""Seeded commands write the bytes of the recorded runs.

The gradient-check report, a paired training run's JSON and CSV, a DyT
run (whose scalar alpha gradient goes through the model slots) and five
probe reports (each probe at its defaults, plus a wide drift run and a
small-c ODE run) are pinned by SHA-256. The digests were taken with NumPy
2.4.6, and agree with one and two BLAS threads; another NumPy may round
differently, so the test runs only under that version.

The training digests also depend on NumPy's SIMD dispatch (the step's exp
and log) and on the GEMM kernel OpenBLAS picks, so they are recorded per
configuration: the NumPy version, whether NumPy's AVX-512 loops (X86_V4)
are on, and the OpenBLAS core. On a configuration with no recorded set the
training digests are skipped, naming it; the gradient-check and probe
digests hold on every recorded one. The training commands also run in a
child process whose environment forces the AVX2/Haswell configuration, so
one machine checks both recorded sets.

Run as a script, ``python tests/test_golden.py <command>...`` prints its
configuration on the first line and then runs the command; the child
processes are started that way.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seednorm
from seednorm.cli import main

NUMPY_VERSION = "2.4.6"

RUNS = {
    "gradcheck":
        ["gradcheck", "--variant", "all", "--trials", "100", "--seed", "7", "--json", "g.json"],
    "compare-seednorm-layernorm":
        ["compare", "--variant-a", "seednorm", "--variant-b", "layernorm", "--steps", "30",
         "--seed", "3", "--json", "c.json", "--csv", "c.csv"],
    "compare-dyt-mh_seednorm":
        ["compare", "--variant-a", "dyt", "--variant-b", "mh_seednorm", "--norm-heads", "4",
         "--steps", "20", "--seed", "5", "--json", "d.json"],
    "probe-scale_insensitivity": ["probe", "--name", "scale_insensitivity", "--json", "s.json"],
    "probe-dot_variance": ["probe", "--name", "dot_variance", "--json", "v.json"],
    "probe-dyt_rmsnorm_ode": ["probe", "--name", "dyt_rmsnorm_ode", "--json", "o.json"],
    "probe-scale_insensitivity-wide":
        ["probe", "--name", "scale_insensitivity", "--dims", "16", "--trials", "50",
         "--k", "2", "3", "1e6", "--seed", "4", "--json", "s.json"],
    "probe-dyt_rmsnorm_ode-small-c":
        ["probe", "--name", "dyt_rmsnorm_ode", "--c", "1e-4", "--dims", "9", "--samples", "300",
         "--seed", "2", "--json", "o.json"],
}

# the digests that hold on every recorded configuration
ANY_CONFIGURATION = {
    "gradcheck":
        {"g.json": "af14e45945a90140499570b7ea53030bd87188317532fc5b3d300ebe7fe821cb"},
    "probe-scale_insensitivity":
        {"s.json": "a8925cfa4c4b3b13c6960031c722e46cdb095d36513b01f1b098da530d699df0"},
    "probe-dot_variance":
        {"v.json": "ee59f0388a5de5e36fee8691374df270d23f62f33ce581e96ddeae3cf94e6250"},
    "probe-dyt_rmsnorm_ode":
        {"o.json": "c8fc05e90c52718729f7de91ea2633e5261ae2ebdcd23164ea2f61dbca215239"},
    "probe-scale_insensitivity-wide":
        {"s.json": "9e9e44af3c1dc28957574a707af2422825d5e820319e466d99898dca40885c51"},
    "probe-dyt_rmsnorm_ode-small-c":
        {"o.json": "1595c77a688ebd244b8b49a0b4a88c53445d7e7843e1b5fadf1ae5f01c2887e2"},
}

AVX512_SKYLAKEX = f"NumPy {NUMPY_VERSION}, X86_V4 on, OpenBLAS SkylakeX"
AVX2_HASWELL = f"NumPy {NUMPY_VERSION}, X86_V4 off, OpenBLAS Haswell"
# what an AVX2 machine likely dispatches, forced in a child's environment
AVX2_HASWELL_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                    "OPENBLAS_CORETYPE": "Haswell"}

TRAINING = {
    AVX512_SKYLAKEX: {
        "compare-seednorm-layernorm":
            {"c.json": "880b27b4e6ea095bede30e3ce049d0a410327f9ad60f8f083dce4ad15af8bfff",
             "c.csv": "22c1d234eaa638182f36817644f5c1dbd15872283a351eb3cbb732800242bb83"},
        "compare-dyt-mh_seednorm":
            {"d.json": "b499a8fa0222b8e311956d1ad16a1c9b9301c5dd6fb63ccef6780752eef4e4e7"},
    },
    AVX2_HASWELL: {
        "compare-seednorm-layernorm":
            {"c.json": "d1462dc54418480b55b07445f50d0c87931cf52dc6bf387faea0ff00568a09d7",
             "c.csv": "79d0d0cafb42549d120e688a4f029cc5fe6b23fb5e0593f9244afeb70633ed48"},
        "compare-dyt-mh_seednorm":
            {"d.json": "4e330e161378fa3e8e4803e48745763e5be886158dd9552b55fd610f5d4337a0"},
    },
}

needs_numpy = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were taken with NumPy {NUMPY_VERSION}; this is NumPy {np.__version__}",
)


def configuration() -> str:
    """This process's NumPy version, AVX-512 dispatch and OpenBLAS core.

    The core comes from the OpenBLAS that NumPy bundles; it reads "unknown"
    for any other BLAS, which no recorded set matches.
    """
    from numpy._core._multiarray_umath import __cpu_features__

    core = "unknown"
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    v4 = "on" if __cpu_features__.get("X86_V4") else "off"
    return f"NumPy {np.__version__}, X86_V4 {v4}, OpenBLAS {core}"


def check_digests(run: str, config: str, where: Path) -> None:
    """The files ``run`` wrote in ``where`` have the digests recorded for
    ``config``; a training run under an unrecorded configuration skips."""
    want = ANY_CONFIGURATION.get(run)
    if want is None:
        if config not in TRAINING:
            pytest.skip(f"no training digests recorded for {config}")
        want = TRAINING[config][run]
    for name, digest in want.items():
        got = hashlib.sha256((where / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} under {config}"


@needs_numpy
@pytest.mark.parametrize("run", list(RUNS))
def test_seeded_command_writes_the_recorded_bytes(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(RUNS[run]) == 0, capsys.readouterr().err
    check_digests(run, configuration(), tmp_path)


@needs_numpy
@pytest.mark.parametrize("run", list(TRAINING[AVX2_HASWELL]))
def test_training_run_writes_the_avx2_haswell_bytes(run, tmp_path):
    src = str(Path(seednorm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **AVX2_HASWELL_ENV, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__, *RUNS[run]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    check_digests(run, proc.stdout.splitlines()[0], tmp_path)


if __name__ == "__main__":
    print(configuration(), flush=True)
    sys.exit(main(sys.argv[1:]))
