"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload copy-c8 bytes-wide gradcheck \
        --seeds 1-10 --out perfbench/out/repeat.json

Runs happen one after another in child processes, each workload over every
seed in turn. For each metric the summary holds the per-run values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the quartile distance as a share of the median. End-to-end spreads
are compared with a third of the bounds in ``BENCHMARK.json``; with
``--trace 1`` the per-layer metrics are summarized instead. The exit code is
3 when a bounded spread is wider than that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return lines, wall


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds,
               "workloads": {}}
    steady = True
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            lines, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            result = json.loads(lines[-1])
            summary.setdefault("env", next((json.loads(line[4:]) for line in lines
                                            if line.startswith("env {")), None))
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s wall", flush=True)
        metrics = {}
        for name, vals in values.items():
            s = metrics[name] = {**summarize(vals), "bound": bounds[name]}
            flag = ""
            if bounds[name] is not None:
                ok = s["spread"] < bounds[name] / 3
                steady &= ok
                flag = "ok" if ok else "WIDE"
            print(f"{workload:10s} {name:24s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bounds[name]} {flag}")
        summary["workloads"][workload] = {"run_wall_s": walls, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
