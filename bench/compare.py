"""Compare two checkouts of mmdvi on the perfbench workloads.

Runs ``perfbench/run.py`` in a parent and a change checkout, alternating which
side runs first, for ``PAIRS`` pairs of every workload in ``BENCHMARK.json``
at its ``run_seconds``; then ``TRACED_RUNS`` traced runs per side and
workload, and a float32 ``fit_batched`` timing at d=15, which no benchmark
workload covers.  Writes one JSON file with each side's median and quartiles,
the pair wins, the traced per-layer medians and every raw value::

    python3 bench/compare.py --parent ../mmdvi-parent --change . --out BENCH_2.json

Each checkout runs its own ``perfbench/`` and its own ``src/``.  Pair ``i``
uses seed ``FIRST_SEED + i`` on both sides, traced run ``j`` seed
``FIRST_SEED + j``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 2001
TRACED_RUNS = 3
MACHINE_KEYS = ("nproc", "cpus_usable", "cpu_model", "python", "numpy", "blas", "blas_threads")

D15_PROBE = """
import sys, time, numpy as np
from mmdvi.kernel import GaussianKernel
from mmdvi.models import ModelSpec
from mmdvi.vi import FitConfig, fit_batched
r, n, d, steps = 25, 200, 15, 4
rng = np.random.default_rng(0)
data = rng.standard_normal((r, n, d))
model = ModelSpec.gaussian(d)
config = FitConfig.benchmark(n, d, n_steps=steps)
times = []
for rep in range(int(sys.argv[1])):
    rngs = [np.random.default_rng(rep * r + i) for i in range(r)]
    t0 = time.perf_counter()
    fit_batched(data, model, GaussianKernel.default_for_dim(d), config, rngs,
                np.zeros((r, d)), np.ones((r, d)), dtype=np.float32)
    times.append((time.perf_counter() - t0) * 1e3 / steps)
print(sorted(times)[len(times) // 2])
"""


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One perfbench run; returns its metric values and its ``# env`` record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=_env(checkout))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: checks failed\n{proc.stdout}")
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return {name: m["value"] for name, m in result["metrics"].items()}, env


def alternating(sides: dict, workload: str, seconds: float, trace: int,
                count: int) -> tuple[dict, dict]:
    """``count`` runs per side, run ``i`` with seed ``FIRST_SEED + i`` on both
    sides and the first side alternating; returns each side's metric values
    and the ``# env`` record of the last run."""
    runs = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, env = run_bench(sides[side], workload, FIRST_SEED + i, seconds, trace)
            runs[side].append(values)
            print(f"{workload} trace={trace} run {i} {side}: steps_per_s "
                  f"{values.get('steps_per_s', math.nan):.1f}", flush=True)
    return runs, env


def d15_ms_per_step(checkout: Path, reps: int) -> float:
    proc = subprocess.run([sys.executable, "-c", D15_PROBE, str(reps)], cwd=checkout,
                          capture_output=True, text=True, env=_env(checkout), check=True)
    return float(proc.stdout.strip())


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
            "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
            "parent_iqr": p["q3"] - p["q1"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {"machine": {"platform": platform.platform()}, "pairs": PAIRS,
              "seconds": seconds, "first_seed": FIRST_SEED, "traced_runs": TRACED_RUNS,
              "end_to_end": {}, "traced": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, env = alternating(sides, workload, seconds, 0, PAIRS)
        report["machine"].update({key: env[key] for key in MACHINE_KEYS})
        report["end_to_end"][workload] = {
            name: compare([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                          better[name])
            for name in runs["parent"][0]
        }
        traced, _ = alternating(sides, workload, seconds, 1, TRACED_RUNS)
        report["traced"][workload] = {
            "median": {side: {name: statistics.median(r[name] for r in side_runs)
                              for name in side_runs[0]}
                       for side, side_runs in traced.items()},
            "runs": traced,
        }
    report["d15_fit_batched_ms_per_step"] = {
        "what": "float32 fit_batched, R=25, n=M=200, d=15, median of 15 calls of 4 steps",
        **{side: d15_ms_per_step(path, 15) for side, path in sides.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
