"""Compare two checkouts of mmdvi on the perfbench workloads.

Runs ``perfbench/run.py`` in a parent and a change checkout, alternating which
side runs first, for ``PAIRS`` pairs of every workload in ``BENCHMARK.json``
at its ``run_seconds``; then ``TRACED_RUNS`` traced runs per side and
workload, and ``PAIRS`` alternating pairs of probes that no benchmark
workload covers: a float32 gauss15d ``run_sweep`` timing (d=15); 1000-step
float32 ``run_sweep`` timings of uniform and gauss1d, where ``s`` collapses to
its floor as in the acceptance sweeps; and a float32 uniform ``fit_batched``
timing with ``s`` held at 20, whose particle clouds are too wide for the
uniform kernel's folded far edge.  Writes one JSON file
with each side's median and quartiles, the pair wins, the traced per-layer
medians, every raw value and each side's ``src_lines`` (the line count of
``src/mmdvi/*.py``, as ``wc -l`` gives it)::

    python3 bench/compare.py --parent ../mmdvi-parent --change . --out BENCH_3.json

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
import sys, time
from mmdvi.harness import run_sweep
steps = 4
times = []
for rep in range(int(sys.argv[1])):
    t0 = time.perf_counter()
    run_sweep("gauss15d", n=200, reps=25, epsilons=(0.0,), master_seed=rep, n_steps=steps, jobs=1)
    times.append((time.perf_counter() - t0) * 1e3 / steps)
print(sorted(times)[len(times) // 2])
"""

COLLAPSED_PROBE = """
import sys, time
from mmdvi.harness import run_sweep
times = []
for rep in range(int(sys.argv[1])):
    t0 = time.perf_counter()
    run_sweep(sys.argv[2], reps=20, epsilons=(0.1,), master_seed=rep, n_steps=1000, jobs=1)
    times.append(time.perf_counter() - t0)
print(sorted(times)[len(times) // 2])
"""

WIDE_PROBE = """
import sys, time
import numpy as np
from mmdvi.harness import PROBLEMS, generate
from mmdvi.kernel import GaussianKernel
from mmdvi.vi import FitConfig, fit_batched
r, n, steps = 24, 200, 4
problem = PROBLEMS["uniform"]
data = np.stack([generate(problem.contamination(0.1), n, np.random.default_rng(i))
                 for i in range(r)])
config = FitConfig.benchmark(n, 1, n_steps=steps, s_bounds=(20.0, 1e3))
times = []
for rep in range(int(sys.argv[1])):
    rngs = [np.random.default_rng((rep, i)) for i in range(r)]
    t0 = time.perf_counter()
    fit_batched(data, problem.model, GaussianKernel(1.0), config, rngs, dtype=np.float32)
    times.append((time.perf_counter() - t0) * 1e6 / (r * steps))
print(sorted(times)[len(times) // 2])
"""


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def src_lines(checkout: Path) -> int:
    """The lines of ``checkout``'s ``src/mmdvi/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src/mmdvi").glob("*.py"))


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


def probe(checkout: Path, source: str, reps: int, *args: str) -> float:
    """The number a probe script prints, run in ``checkout`` with ``reps``
    and ``args`` as its arguments."""
    proc = subprocess.run([sys.executable, "-c", source, str(reps), *args], cwd=checkout,
                          capture_output=True, text=True, env=_env(checkout), check=True)
    return float(proc.stdout.strip())


def alternating_probe(sides: dict, source: str, reps: int, *args: str) -> dict:
    """``PAIRS`` runs of a probe per side, the first side alternating."""
    values = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values[side].append(probe(sides[side], source, reps, *args))
    return values


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
              "src_lines": {side: src_lines(path) for side, path in sides.items()},
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
    d15 = alternating_probe(sides, D15_PROBE, 15)
    report["d15_fit_batched_ms_per_step"] = {
        "what": "float32 run_sweep('gauss15d', n=200, reps=25, one epsilon, 4 steps, jobs=1): "
                "median of 15 calls, ms per step, data generation and baselines included",
        **compare(d15["parent"], d15["change"], "lower"),
    }
    for problem in ("uniform", "gauss1d"):
        runs = alternating_probe(sides, COLLAPSED_PROBE, 5, problem)
        report[f"collapsed_{problem}_run_sweep_s"] = {
            "what": f"float32 run_sweep('{problem}', n=200, reps=20, epsilons=(0.1,), "
                    "n_steps=1000, jobs=1), where s collapses to its floor: median of 5 "
                    "calls, s per call",
            **compare(runs["parent"], runs["change"], "lower"),
        }
    wide = alternating_probe(sides, WIDE_PROBE, 15)
    report["uniform_wide_cloud_us_per_dataset_step"] = {
        "what": "float32 fit_batched of 24 uniform datasets (n=M=200, epsilon 0.1, 4 steps) "
                "with s_bounds (20, 1e3), so every particle cloud is wider than the uniform "
                "kernel's fold bound: median of 15 calls, us per dataset-step",
        **compare(wide["parent"], wide["change"], "lower"),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
