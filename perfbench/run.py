"""The mmdvi benchmark: one workload per run, timed for a fixed wall time.

    python3 perfbench/run.py --workload sweep_gauss1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the run reports the end-to-end metrics, its timings scaled
to the host's speed by a fixed reference computation; with ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the calls into each module (see ``tracing.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when every output
check passed, 1 when one failed (the JSON line is still printed), 2 when the
benchmark could not set up (no JSON line).  ``--smoke`` runs every workload at
a tiny size, in both modes, and checks every metric named in
``BENCHMARK.json`` is printed with its unit.  See ``README.md`` here for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

# numpy is imported inside functions: mmdvi brings it in during the timed
# set-up, so its import cost counts in setup_s.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

N = 200
SETUP_REPEATS = 7  # this process plus six fresh ones; setup_s is their median
CHECK_FROM_EPSILON = 0.05
# Host-speed reference.  On a shared host the whole machine runs 20-30% slower
# for minutes at a time, numpy and pure Python alike, which swamps run-to-run
# comparisons.  A fixed numpy computation shaped like one sweep step (see
# ``reference_seconds``) is timed, in a helper process, right after every
# timed call and every set-up, and that timing is scaled by REF_S / the
# reference's time.  The host's state holds over a call but flips within
# seconds, so only a reference taken next to each call tracks it.  Timings
# then read as on the reference machine running its reference at REF_S; the
# raw timings are kept on the run line and in the result file.
REF_S = 0.016
REF_STEPS = 3
# Tags that keep the seed streams of different purposes apart.
WARMUP, DATA, FIT, CELL = 1, 2, 3, 4

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "fit_p50_ms": "ms",
    "fit_p90_ms": "ms",
    "rmse_mmd": "theta",
    "peak_rss_mb": "MB",
}
SWEEP_LAYERS = {
    "harness.run_sweep.s": "s",
    "harness.generate.ms": "ms",
    "harness.baselines.ms": "ms",
    "vi.fit_batched.ms_per_step": "ms",
    "vi.fit_batched.ns_per_pair": "ns",
    "vi.fit_batched.share": "fraction",
    "vi.fit_batched.calls": "count",
    "vi.fit_batched.f64_ms_per_step": "ms",
}
ESTIMATE_LAYERS = {
    "vi.fit.ms_per_step": "ms",
    "vi.fit.self_ms_per_step": "ms",
    "vi.grad_estimate.us": "us",
    "vi.grad_estimate.calls": "count",
    "vi.grad_estimate.share": "fraction",
    "mmd.mmd2_model_vs_empirical.us": "us",
    "mmd.mmd2_model_vs_empirical.calls": "count",
    "mmd.data_kernel_term.ms": "ms",
    "kernel.point_embedding_inner.us": "us",
    "kernel.gram_sum.ms": "ms",
    "models.uniform_point_expectation.us": "us",
    "csvio.read_samples.ms": "ms",
    "csvio.write_trace_csv.ms": "ms",
    "cli.main.self_ms": "ms",
}
PER_LAYER = {**SWEEP_LAYERS, **ESTIMATE_LAYERS, "trace.overhead_frac": "fraction"}


class SetupError(RuntimeError):
    """The benchmark cannot run here: no mmdvi sources, or a set-up failed."""


@dataclass
class Call:
    """One timed call into mmdvi and what its outputs showed."""

    seconds: float
    ref_s: float  # reference_seconds() right after the call
    steps: int  # variational steps, counted per dataset
    fits: int
    failed: int
    squared_errors: list
    check_failures: list


def load_mmdvi() -> dict:
    """Import mmdvi from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "mmdvi" / "__init__.py").is_file():
        raise SetupError(f"no mmdvi sources under {src}")
    sys.path.insert(0, str(src))
    import mmdvi
    from mmdvi import cli, csvio, harness, mmd, vi

    if Path(mmdvi.__file__).resolve().parent != (src / "mmdvi").resolve():
        raise SetupError(f"imported mmdvi from {mmdvi.__file__}, not from {src}")
    return {"cli": cli, "csvio": csvio, "harness": harness, "mmd": mmd, "vi": vi}


def seed_int(*entropy: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# ---------------------------------------------------------------- sweeps


class SweepWorkload:
    """``run_sweep`` on one problem, one call per cell of the default grid.

    A pass walks the nine cells in order; each call gets its own master seed,
    so every cell of every pass draws fresh data.
    """

    kind = "sweep"

    def __init__(self, problem: str, reps: int, steps: int) -> None:
        self.problem, self.reps, self.steps = problem, reps, steps

    def describe(self) -> dict:
        return {"problem": self.problem, "n": N, "reps": self.reps, "steps": self.steps,
                "jobs": 1, "dtype": "float32", "calls_per_pass": 9}

    def setup(self, mods: dict, seed: int, workdir: Path) -> None:
        self.mods, self.seed = mods, seed
        harness = mods["harness"]
        self.grid = [float(e) for e in harness.DEFAULT_EPSILONS]
        self.baselines = harness.PROBLEMS[self.problem].baselines
        self._sweep(self.grid[0], seed_int(seed, WARMUP), use_float32=True)

    def _sweep(self, epsilon: float, master_seed: int, use_float32: bool):
        return self.mods["harness"].run_sweep(
            self.problem, n=N, reps=self.reps, epsilons=(epsilon,), master_seed=master_seed,
            n_steps=self.steps, jobs=1, use_float32=use_float32,
        )

    def run_pass(self, index: int, recorder, reference, use_float32: bool = True) -> list[Call]:
        import numpy as np

        calls = []
        for cell, epsilon in enumerate(self.grid):
            master = seed_int(self.seed, CELL, index, cell)
            span = recorder.span("harness.run_sweep") if recorder else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    result = self._sweep(epsilon, master, use_float32)
            except Exception as exc:  # a raising call counts as failed fits
                calls.append(Call(time.perf_counter() - start, reference(), 0, self.reps, self.reps, [],
                                  [f"eps={epsilon}: run_sweep raised {exc!r}"]))
                continue
            seconds = time.perf_counter() - start
            ref_s = reference()
            sq = result.squared_errors["mmd"][0]
            finite = np.isfinite(sq)
            problems = []
            if epsilon >= CHECK_FROM_EPSILON - 1e-12:
                rmse = float(result.rmse("mmd")[0])
                for name in ("mean", "midrange"):
                    if name in self.baselines:
                        other = float(result.rmse(name)[0])
                        if not rmse < other:
                            problems.append(f"eps={epsilon}: mmd rmse {rmse} >= {name} rmse {other}")
            calls.append(Call(seconds, ref_s, self.reps * self.steps, self.reps, int((~finite).sum()),
                              sq[finite].tolist(), problems))
        return calls

    def hook_targets(self) -> list:
        h = self.mods["harness"]
        targets = [(h, "generate", "harness.generate"), (h, "fit_batched", "vi.fit_batched")]
        targets += [(h.BASELINES, name, "harness.baselines") for name in self.baselines]
        return targets

    def layer_metrics(self, plain: dict, f64: dict | None) -> dict:
        top_calls, top_ns, _ = plain.get("harness.run_sweep", (0, 0, 0))
        fb_calls, fb_ns, _ = plain.get("vi.fit_batched", (0, 0, 0))
        step_calls = fb_calls * self.steps
        out = {
            "harness.run_sweep.s": _div(top_ns, top_calls) / 1e9,
            "harness.generate.ms": _div(plain.get("harness.generate", (0, 0))[1], top_calls) / 1e6,
            "harness.baselines.ms": _div(plain.get("harness.baselines", (0, 0))[1], top_calls) / 1e6,
            "vi.fit_batched.ms_per_step": _div(fb_ns, step_calls) / 1e6,
            "vi.fit_batched.ns_per_pair": _div(fb_ns, step_calls * self.reps * N * N),
            "vi.fit_batched.share": _div(fb_ns, top_ns),
            "vi.fit_batched.calls": _div(fb_calls, top_calls),
            "vi.fit_batched.f64_ms_per_step": 0.0,
        }
        if f64 is not None:
            calls64, ns64, _ = f64.get("vi.fit_batched", (0, 0, 0))
            out["vi.fit_batched.f64_ms_per_step"] = _div(ns64, calls64 * self.steps) / 1e6
        return out


# -------------------------------------------------------------- estimate


MODELS = (("gaussian", "gauss1d"), ("uniform", "uniform"))  # (--model, problem making its data)


class EstimateWorkload:
    """Sequential in-process ``mmdvi estimate --data`` calls, alternating models.

    Setup writes ``replicates`` datasets per (model, grid cell); pass ``k`` fits
    replicate ``k`` of every cell with both models, so every pass holds the
    same mix of work.
    """

    kind = "estimate"

    def __init__(self, steps: int, replicates: int) -> None:
        self.steps, self.replicates = steps, replicates

    def describe(self) -> dict:
        return {"models": [m for m, _ in MODELS], "n": N, "steps": self.steps,
                "replicates": self.replicates, "dtype": "float64", "calls_per_pass": 18}

    def setup(self, mods: dict, seed: int, workdir: Path) -> None:
        import numpy as np

        self.mods, self.seed = mods, seed
        harness = mods["harness"]
        self.grid = [float(e) for e in harness.DEFAULT_EPSILONS]
        self.theta0 = {m: float(harness.PROBLEMS[p].theta0[0]) for m, p in MODELS}
        data_dir = workdir / "data"
        data_dir.mkdir(parents=True)
        self.out_dir = workdir / "fit"
        self.paths = {}
        for rep in range(self.replicates):
            for cell, epsilon in enumerate(self.grid):
                for k, (model, problem) in enumerate(MODELS):
                    spec = harness.PROBLEMS[problem].contamination(epsilon)
                    rng = np.random.default_rng(np.random.SeedSequence((seed, DATA, rep, cell, k)))
                    x = harness.generate(spec, N, rng)
                    path = data_dir / f"{model}-e{cell}-r{rep}.csv"
                    write_samples(path, x)
                    self.paths[rep, cell, model] = path
        for model, _ in MODELS:
            self._estimate(self.paths[0, 0, model], model, seed_int(seed, WARMUP))

    def _estimate(self, path: Path, model: str, fit_seed: int) -> int:
        argv = ["estimate", "--data", str(path), "--model", model, "--steps", str(self.steps),
                "--seed", str(fit_seed), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return self.mods["cli"].main(argv)
            except SystemExit as exc:  # argparse rejects bad argv by exiting
                return exc.code if isinstance(exc.code, int) else 1

    def run_pass(self, index: int, recorder, reference, use_float32: bool = True) -> list[Call]:
        rep = index % self.replicates
        trace_csv = self.out_dir / "trace.csv"
        calls = []
        for cell in range(len(self.grid)):
            for k, (model, _) in enumerate(MODELS):
                trace_csv.unlink(missing_ok=True)
                fit_seed = seed_int(self.seed, FIT, rep, cell, k)
                span = recorder.span("cli.main") if recorder else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        code = self._estimate(self.paths[rep, cell, model], model, fit_seed)
                    problem = None if code == 0 else f"exit code {code}"
                except Exception as exc:  # a raising call counts as a failed fit
                    problem = f"raised {exc!r}"
                seconds = time.perf_counter() - start
                ref_s = reference()
                m = final_m(trace_csv) if problem is None else math.nan
                if problem is None and not math.isfinite(m):
                    problem = f"trace.csv final m is {m!r}"
                if problem is None:
                    calls.append(Call(seconds, ref_s, self.steps, 1, 0, [(m - self.theta0[model]) ** 2], []))
                else:
                    calls.append(Call(seconds, ref_s, 0, 1, 1, [], [f"{model} cell {cell}: {problem}"]))
        return calls

    def hook_targets(self) -> list:
        cli, csvio, mmd, vi = (self.mods[k] for k in ("cli", "csvio", "mmd", "vi"))
        return [
            (cli, "fit", "vi.fit"),
            (vi, "grad_estimate", "vi.grad_estimate"),
            (vi, "mmd2_model_vs_empirical", "mmd.mmd2_model_vs_empirical"),
            (vi, "data_kernel_term", "mmd.data_kernel_term"),
            (mmd, "gram_sum", "kernel.gram_sum"),
            (mmd, "point_embedding_inner", "kernel.point_embedding_inner"),
            (mmd, "uniform_point_expectation", "models.uniform_point_expectation"),
            (csvio, "read_samples", "csvio.read_samples"),
            (csvio, "write_trace_csv", "csvio.write_trace_csv"),
        ]

    def layer_metrics(self, plain: dict, f64: dict | None) -> dict:
        def per_call(name: str, scale: float) -> float:
            calls, ns, _ = plain.get(name, (0, 0, 0))
            return _div(ns, calls) / scale

        fit_calls, fit_ns, fit_self = plain.get("vi.fit", (0, 0, 0))
        fit_steps = fit_calls * self.steps
        main_calls, _, main_self = plain.get("cli.main", (0, 0, 0))
        grad_calls, grad_ns, _ = plain.get("vi.grad_estimate", (0, 0, 0))
        return {
            "vi.fit.ms_per_step": _div(fit_ns, fit_steps) / 1e6,
            "vi.fit.self_ms_per_step": _div(fit_self, fit_steps) / 1e6,
            "vi.grad_estimate.us": _div(grad_ns, grad_calls) / 1e3,
            "vi.grad_estimate.calls": _div(grad_calls, fit_calls),
            "vi.grad_estimate.share": _div(grad_ns, fit_ns),
            "mmd.mmd2_model_vs_empirical.us": per_call("mmd.mmd2_model_vs_empirical", 1e3),
            "mmd.mmd2_model_vs_empirical.calls": _div(
                plain.get("mmd.mmd2_model_vs_empirical", (0,))[0], fit_calls),
            "mmd.data_kernel_term.ms": per_call("mmd.data_kernel_term", 1e6),
            "kernel.point_embedding_inner.us": per_call("kernel.point_embedding_inner", 1e3),
            "kernel.gram_sum.ms": per_call("kernel.gram_sum", 1e6),
            "models.uniform_point_expectation.us": per_call("models.uniform_point_expectation", 1e3),
            "csvio.read_samples.ms": per_call("csvio.read_samples", 1e6),
            "csvio.write_trace_csv.ms": per_call("csvio.write_trace_csv", 1e6),
            "cli.main.self_ms": _div(main_self, main_calls) / 1e6,
        }


def write_samples(path: Path, x) -> None:
    """Numeric rows as ``read_samples`` accepts them; the header is a comment."""
    header = "# " + ",".join(f"x_{j}" for j in range(x.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in x)
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def final_m(trace_csv: Path) -> float:
    """``m_0`` of the last row of an estimate trace, NaN if unreadable."""
    try:
        lines = trace_csv.read_text().splitlines()
        column = lines[0].split(",").index("m_0")
        return float(lines[-1].split(",")[column])
    except (OSError, ValueError, IndexError):
        return math.nan


# Step counts are sized so a 30 s run holds about 150 calls or more, even when
# the host runs slow; ``tiny`` is the smoke-test size.
WORKLOADS = {
    "sweep_gauss1d": lambda tiny: SweepWorkload("gauss1d", reps=100, steps=1 if tiny else 4),
    "sweep_uniform": lambda tiny: SweepWorkload("uniform", reps=100, steps=1 if tiny else 4),
    "estimate_1d": lambda tiny: EstimateWorkload(steps=5 if tiny else 100,
                                                 replicates=1 if tiny else 24),
}


# ------------------------------------------------------------ measuring


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def throughput(calls: list[Call]) -> float:
    return _div(sum(c.steps for c in calls), sum(c.seconds for c in calls))


def environment(workload: str, seed: int, spec: dict, seconds: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, **spec,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_name, "blas_threads": blas_threads(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | str:
    """Threads of numpy's bundled OpenBLAS, asked through its C API."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"


def reference_seconds() -> float:
    """Seconds per step of a fixed float32 kernel over a (100, 200, 200)
    stack: broadcast difference, ``exp``, product and reduction, as in a sweep
    step, averaged over REF_STEPS steps.  It never changes with mmdvi, so it
    measures only how fast the host runs."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 200)).astype(np.float32)
    p = rng.standard_normal((100, 200)).astype(np.float32)
    start = time.perf_counter()
    for _ in range(REF_STEPS):
        d = x[:, :, None] - p[:, None, :]
        (np.exp(d * d * np.float32(-0.5)) * d).sum(axis=(1, 2))
    return (time.perf_counter() - start) / REF_STEPS


class Reference:
    """``reference_seconds`` run in a helper process, so that the reference's
    16 MB arrays touch neither the peak memory nor the allocator state of the
    process being measured."""

    def __enter__(self) -> "Reference":
        cmd = [sys.executable, str(Path(__file__).resolve()), "--reference-server"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"the reference process ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reference_server() -> int:
    """Answer each line on standard input with one ``reference_seconds``."""
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)
    return 0


def child_setup(args) -> tuple[float, float]:
    """``(set-up seconds, reference seconds)`` from a fresh interpreter, so
    import and first-call costs are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["ref_s"])


def run(args) -> int:
    workload = WORKLOADS[args.workload](args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        start = time.perf_counter()
        mods = load_mmdvi()
        workload.setup(mods, args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_s": reference_seconds()}))
            return 0
        with Reference() as reference:
            return measure(args, workload, (setup_s, reference.seconds()), reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup: tuple[float, float], reference: Reference) -> int:
    env = environment(args.workload, args.seed, workload.describe(), args.seconds)
    # Untraced runs time every pass plainly.  Traced runs rotate through the
    # schedule so the traced and untraced passes see the same machine state.
    schedule = ["plain"]
    if args.trace:
        schedule = ["plain", "traced"] + (["traced_f64"] if workload.kind == "sweep" else [])
    recorders = {mode: tracing.Recorder() for mode in schedule[1:]}
    hooks = {mode: tracing.Hooks(rec, workload.hook_targets()) for mode, rec in recorders.items()}

    passes: list[tuple[str, list[Call]]] = []
    start = time.perf_counter()
    while len(passes) < len(schedule) or time.perf_counter() - start < args.seconds:
        mode = schedule[len(passes) % len(schedule)]
        if mode == "plain":
            calls = workload.run_pass(len(passes), None, reference.seconds)
        else:
            with hooks[mode].active():
                calls = workload.run_pass(len(passes), recorders[mode], reference.seconds,
                                          mode != "traced_f64")
        passes.append((mode, calls))
    timed_s = time.perf_counter() - start

    def scaled(mode: str) -> list[Call]:
        return [dataclasses.replace(c, seconds=c.seconds * REF_S / c.ref_s)
                for m, calls in passes if m == mode for c in calls]

    all_calls = [c for _, calls in passes for c in calls]
    plain = scaled("plain")
    attempted = sum(c.fits for c in all_calls)
    failed = sum(c.failed for c in all_calls)
    problems = [p for c in all_calls for p in c.check_failures]
    sq = [e for c in all_calls for e in c.squared_errors]
    correct = failed == 0 and not problems and attempted > 0

    info = {"passes": len(passes), "calls": len(all_calls), "plain_calls": len(plain),
            "timed_s": timed_s, "fail_rate": _div(failed, attempted),
            "failed_checks": len(problems)}
    if args.trace:
        rates = {mode: throughput(scaled(mode)) for mode in schedule}
        summaries = {mode: rec.summary() for mode, rec in recorders.items()}
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(workload.layer_metrics(summaries["traced"], summaries.get("traced_f64")))
        metrics["trace.overhead_frac"] = 1.0 - _div(rates["traced"], rates["plain"])
        info["missing_hooks"] = sorted({m for h in hooks.values() for m in h.missing})
        units = PER_LAYER
        for mode, rec in recorders.items():
            rec.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{mode}.csv")
    else:
        latencies_ms = [c.seconds * 1e3 for c in plain]
        deciles = statistics.quantiles(latencies_ms, n=10)
        setups = [setup] + [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "setup_s": statistics.median(raw * REF_S / ref for raw, ref in setups),
            # Steps over the whole timed call time.  On a shared host it spreads
            # less between runs than a median of per-pass rates does.
            "steps_per_s": throughput(plain),
            "fit_p50_ms": deciles[4],
            "fit_p90_ms": deciles[8],
            "rmse_mmd": math.sqrt(sum(sq) / len(sq)) if sq else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw_ms = [c.seconds * 1e3 for c in all_calls]
        raw_deciles = statistics.quantiles(raw_ms, n=10)
        info.update(setup_samples_s=[raw for raw, _ in setups],
                    setup_ref_s=[ref for _, ref in setups],
                    latency_samples=len(latencies_ms),
                    beyond_p90=sum(v > deciles[8] for v in latencies_ms), fits_in_rmse=len(sq),
                    raw={"setup_s": statistics.median(raw for raw, _ in setups),
                         "steps_per_s": throughput(all_calls),
                         "fit_p50_ms": raw_deciles[4], "fit_p90_ms": raw_deciles[8]})
        units = END_TO_END

    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print("# env " + json.dumps(env))
    print("# run " + json.dumps(info))
    for name, unit in units.items():
        print(f"# {name:40s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"# {'fail_rate':40s} {info['fail_rate']:.6g} fraction  ({failed} of {attempted} fits)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {**result, "env": env, "run": info, "check_failures": problems,
              "passes": [{"mode": mode, "call_seconds": [c.seconds for c in calls],
                          "ref_seconds": [c.ref_s for c in calls]} for mode, calls in passes]}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; every metric named in
    BENCHMARK.json must come back with its unit, and every check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = result["metrics"]
                errors = [f"{m['name']}: missing or unit is not {m['unit']}" for m in wanted[trace]
                          if got.get(m["name"], {}).get("unit") != m["unit"]]
                errors += [f"extra metric {name}" for name in
                           set(got) - {m["name"] for m in wanted[trace]}]
                errors += [f"{name} is not finite" for name, v in got.items()
                           if not math.isfinite(v["value"])]
                if not result["correct"] or proc.returncode != 0:
                    errors.append(f"correct={result['correct']} exit={proc.returncode}")
            except (IndexError, KeyError, ValueError):
                errors = [f"no result line, exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            ok &= not errors
            print(f"{workload} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the metric names")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-server", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.reference_server:
            return reference_server()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
