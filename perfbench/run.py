"""Benchmark of the seednorm library.

Times training steps per norm variant, randomized gradient-oracle trials,
and, with ``--trace 1``, splits each operation into per-layer self times.
Run it from the root of a checkout:

    python3 perfbench/run.py --workload copy-c8 --seed 1 --seconds 30 --trace 0

It imports the library from ``src/`` of the same checkout, prints one line
per metric with its unit, an environment record, and as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 0 means every output check passed, 1 that a check
failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("copy-c8", "bytes-wide", "gradcheck")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> None:
    """One BLAS thread unless set otherwise, and never more than the CPUs.

    The matrices here are at most 1024 x 512, where a second BLAS thread
    buys little and adds run-to-run spread on a shared machine. Must run
    before NumPy is first imported to take effect.
    """
    cpus = _usable_cpus()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, cpus)))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": _usable_cpus(),
        "cpu": _cpu_model(),
    }


def import_library(root: Path):
    """Import seednorm from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "seednorm" / "__init__.py").is_file():
        raise ImportError(f"no seednorm package under {src}")
    sys.path.insert(0, str(src))
    import seednorm

    if Path(seednorm.__file__).resolve().parent != (src / "seednorm").resolve():
        raise ImportError(f"seednorm imported from {seednorm.__file__}, not from {src}")
    return seednorm


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, specs=None) -> int:
    """Run one workload and print its result. ``specs`` overrides the sizes."""
    args = parse_args(argv)
    pin_threads()
    try:
        import_library(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = (specs or workloads.WORKLOADS)[args.workload]
    work_dir = HERE / "out"
    work_dir.mkdir(exist_ok=True)
    runner = (workloads.run_gradcheck if isinstance(spec, workloads.GradcheckSpec)
              else workloads.run_training)
    outcome = runner(spec, args.seed, args.seconds, bool(args.trace), str(work_dir))

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    for note in outcome.notes:
        print(note)
    for target in outcome.missing:
        print(f"warning: {target} not found; the layer metrics that need it are missing",
              file=sys.stderr)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    if outcome.spans_path:
        print(f"spans written to {os.path.relpath(outcome.spans_path, ROOT)}")
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_frac = {fail_frac!r} ({outcome.failed} failed of {outcome.attempted} attempted)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value!r} {unit}")

    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
