"""Command-line entry point.

Subcommands: ``estimate`` (one variational fit of one dataset), ``sweep``
(the contamination benchmark), ``theory`` (prior-mass calculators), and
``verify`` (empirical convergence and contamination-criterion checks).

Configuration can come from a flat JSON file (``--config``) whose keys are
the subcommand's long flags, dashes written as underscores; unknown keys are
rejected, and explicit flags win over file values.  ``estimate`` rejects an
option, flag or key, that its data source and model never read.  Exit codes:
0 success (all checks passed for ``verify``), 1 invalid configuration or
input or failed verification, 2 malformed input CSV.  :func:`main` reports
every ``ValueError`` and ``OSError`` as one ``error:`` line on stderr.
Argument-syntax errors exit with the usual argparse status.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import csvio, svg
from .harness import DEFAULT_EPSILONS, PROBLEMS, generate, run_sweep
from .kernel import GaussianKernel
from .mmd import (
    ContaminatedGaussianSpec,
    check_empirical_convergence,
    kl_contaminated_criterion,
    minimize_criterion,
    mmd2_contaminated_criterion,
)
from .models import ModelSpec, _check_int
from .theory import certificate_row, extended_prior_mass_construction, prior_mass_lower_bound
from .vi import DEFAULT_SEED, FitConfig, fit


def _load_config_file(path: str, allowed: frozenset) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a flat JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in doc.items():
        if isinstance(value, (dict, list)):
            raise ValueError(f"{path}: key {key!r} must be a scalar")
    return doc


def _merge(args: argparse.Namespace) -> dict:
    """File values under explicit flags; unset keys become None.  The keys
    are the destinations of the subcommand's flags."""
    flags = {k: v for k, v in vars(args).items() if k not in ("cmd", "func", "config")}
    file_values = _load_config_file(args.config, frozenset(flags)) if args.config else {}
    return {k: file_values.get(k) if v is None else v for k, v in flags.items()}


def _reject_unread(opts: dict, keys: str, reason: str) -> None:
    """Refuse options that are set but that nothing reads in this run."""
    unread = [key for key in keys.split() if opts[key] is not None]
    if unread:
        raise ValueError(f"{', '.join(unread)} not read {reason}")


def _as_int(value, key: str, default: int | None = None) -> int | None:
    """An integer option; a bool or a non-integral number (``2.7`` from a
    config file) is rejected rather than truncated."""
    if value is None:
        return default
    message = f"{key} must be an integer, got {value!r}"
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(message)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(message) from None


def _seed(opts: dict) -> int:
    seed = _as_int(opts["seed"], "seed", DEFAULT_SEED)
    _check_int("seed", seed, 0)
    return seed


def _as_float(value, key: str, default: float | None = None) -> float | None:
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _as_bool(value, key: str) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be a boolean, got {value!r}")


def _available_cores() -> int:
    """CPUs this process may run on (its affinity mask, which ``taskset``
    and CPU-limited containers narrow); all the host's where the platform
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _out_dir(value) -> str:
    out = str(value) if value is not None else "."
    os.makedirs(out, exist_ok=True)
    return out


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in np.atleast_1d(v))


def cmd_estimate(opts: dict) -> int:
    seed = _seed(opts)
    out = _out_dir(opts["out"])
    if opts["data"] is not None and opts["problem"] is not None:
        raise ValueError("give either data or problem, not both")

    if opts["data"] is not None:
        _reject_unread(opts, "epsilon n", "with a data file")
        x = csvio.read_samples(str(opts["data"]))
        d = x.shape[1]
        kind = str(opts["model"] or "gaussian")
        if kind == "gaussian":
            _reject_unread(opts, "half_width", "by the gaussian model")
            model = ModelSpec.gaussian(d, sigma2=_as_float(opts["sigma2"], "sigma2", 1.0))
        elif kind == "uniform":
            _reject_unread(opts, "sigma2", "by the uniform model")
            model = ModelSpec.uniform(d, half_width=_as_float(opts["half_width"], "half_width", 0.5))
        else:
            raise ValueError(f"unknown model {kind!r}")
        rng_fit = np.random.default_rng(np.random.SeedSequence(seed))
    elif opts["problem"] is not None:
        _reject_unread(opts, "model sigma2 half_width", "with a problem, which fixes its model")
        name = str(opts["problem"])
        if name not in PROBLEMS:
            raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
        problem = PROBLEMS[name]
        model = problem.model
        epsilon = _as_float(opts["epsilon"], "epsilon", 0.0)
        n = _as_int(opts["n"], "n", 200)
        ss_data, ss_fit = np.random.SeedSequence(seed).spawn(2)
        x = generate(problem.contamination(epsilon), n, np.random.default_rng(ss_data))
        rng_fit = np.random.default_rng(ss_fit)
    else:
        raise ValueError("estimate needs a data file or a problem name")

    n, d = x.shape
    gamma2 = _as_float(opts["gamma2"], "gamma2")
    kernel = GaussianKernel(gamma2) if gamma2 is not None else GaussianKernel.default_for_dim(d)
    overrides = {}
    if opts["beta_log"] is not None:
        overrides["beta_log"] = _as_float(opts["beta_log"], "beta_log")
    if opts["particles"] is not None:
        overrides["n_particles"] = _as_int(opts["particles"], "particles")
    if opts["steps"] is not None:
        overrides["n_steps"] = _as_int(opts["steps"], "steps")
    if opts["step_scale"] is not None:
        overrides["step_scale"] = _as_float(opts["step_scale"], "step_scale")
    config = FitConfig.benchmark(n, d, **overrides)
    result = fit(x, model, kernel, config, rng=rng_fit)

    trace_path = os.path.join(out, "trace.csv")
    csvio.write_trace_csv(trace_path, result.trace)
    print(
        f"estimate: n={n} d={d} m={_fmt_vec(result.q.m)} s={_fmt_vec(result.q.s)} "
        f"objective={csvio.fmt(result.trace.objective[-1])} trace={trace_path}"
    )
    return 0


def _parse_epsilons(value) -> tuple:
    if value is None:
        return DEFAULT_EPSILONS
    try:
        eps = tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"invalid grid: cannot parse epsilons {value!r}") from None
    if not eps:
        raise ValueError("invalid grid: empty epsilon list")
    for e in eps:
        if not 0.0 <= e < 0.5:
            raise ValueError(f"invalid grid: epsilon {e} outside [0, 0.5)")
    return eps


def cmd_sweep(opts: dict) -> int:
    name = opts["problem"]
    if name is None:
        raise ValueError("sweep needs a problem name")
    name = str(name)
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    epsilons = _parse_epsilons(opts["epsilons"])
    reps = _as_int(opts["reps"], "reps", 100)
    n = _as_int(opts["n"], "n", 200)
    steps = _as_int(opts["steps"], "steps", 1000)
    step_scale = _as_float(opts["step_scale"], "step_scale", 1.0)
    jobs = _as_int(opts["jobs"], "jobs", _available_cores())
    seed = _seed(opts)
    out = _out_dir(opts["out"])
    result = run_sweep(
        name,
        n=n,
        reps=reps,
        epsilons=epsilons,
        master_seed=seed,
        n_steps=steps,
        step_scale=step_scale,
        jobs=jobs,
        use_float32=not _as_bool(opts["float64"], "float64"),
    )

    rmse_path = os.path.join(out, "rmse.csv")
    trials_path = os.path.join(out, "trials.csv")
    csvio.write_rmse_csv(rmse_path, result)
    csvio.write_trials_csv(trials_path, result)
    written = [rmse_path, trials_path]
    if _as_bool(opts["svg"], "svg"):
        series = {m: (result.epsilons, result.rmse(m)) for m in result.methods}
        chart = svg.line_chart(
            series,
            title=f"{name}: RMSE vs contamination rate",
            xlabel="contamination rate",
            ylabel="RMSE",
        )
        svg_path = os.path.join(out, "sweep.svg")
        csvio.atomic_write(svg_path, chart)
        written.append(svg_path)
    print(f"sweep {name}: n={n} reps={reps} wrote {' '.join(written)}")
    return 0


def cmd_theory(opts: dict) -> int:
    if (opts["theta_star"] is None) == (opts["theta_star_norm"] is None):
        raise ValueError("theory needs exactly one of theta_star or theta_star_norm")
    if opts["theta_star"] is not None:
        try:
            theta_star = np.array([float(tok) for tok in str(opts["theta_star"]).split(",")])
        except ValueError:
            raise ValueError(f"cannot parse theta_star {opts['theta_star']!r}") from None
        if opts["dim"] is not None and _as_int(opts["dim"], "dim") != theta_star.size:
            raise ValueError("dim disagrees with the length of theta_star")
    else:
        norm = _as_float(opts["theta_star_norm"], "theta_star_norm")
        if not 0.0 <= norm < np.inf:
            raise ValueError(f"theta_star_norm must be finite and >= 0, got {norm}")
        dim = _as_int(opts["dim"], "dim", 1)
        _check_int("dim", dim, 1)
        theta_star = np.array([norm] + [0.0] * (dim - 1))
    n = _as_int(opts["n"], "n", 200)
    sigma2 = _as_float(opts["sigma2"], "sigma2", 1.0)
    gamma2 = _as_float(opts["gamma2"], "gamma2", float(theta_star.size))
    report = prior_mass_lower_bound(theta_star, n, sigma2, gamma2)
    extended = extended_prior_mass_construction(theta_star, n, sigma2, gamma2)

    for key, value in certificate_row(report, extended).items():
        print(f"{key} = {value!r}")
    if opts["out"] is not None:
        path = os.path.join(_out_dir(opts["out"]), "theory.csv")
        csvio.write_theory_csv(path, report, extended)
        print(f"wrote {path}")
    return 0


def cmd_verify(opts: dict) -> int:
    trials = _as_int(opts["trials"], "trials", 1000)
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    seed = _seed(opts)
    all_passed = True

    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel.default_for_dim(1)
    rng = np.random.default_rng(seed)
    for n in (10, 100, 1000):
        rep = check_empirical_convergence(kernel, model, np.zeros(1), n, trials, rng)
        all_passed &= rep.passed
        print(
            f"convergence n={n} trials={trials} mean={rep.mean_mmd2:.6g} "
            f"bound={rep.bound:.6g} stderr={rep.stderr:.3g} "
            f"{'PASS' if rep.passed else 'FAIL'}"
        )

    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.2, sigma2=1.0
    )
    crit_kernel = GaussianKernel(1.0)
    mmd_argmin = minimize_criterion(
        lambda g: mmd2_contaminated_criterion(crit_kernel, spec, g[:, None]), -5.0, 25.0
    )
    ok = abs(mmd_argmin - 2.0) < 1e-3
    all_passed &= ok
    print(f"contamination-mmd argmin={mmd_argmin:.9f} target=2.0 {'PASS' if ok else 'FAIL'}")

    kl_argmin = minimize_criterion(
        lambda g: kl_contaminated_criterion(spec, g[:, None]), -5.0, 25.0
    )
    target = 0.8 * 2.0 + 0.2 * 20.0
    ok = abs(kl_argmin - target) < 1e-6
    all_passed &= ok
    print(f"contamination-kl argmin={kl_argmin:.9f} target={target} {'PASS' if ok else 'FAIL'}")

    return 0 if all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`main` call; ``parse_args`` does not change it, and no caller may."""
    parser = argparse.ArgumentParser(
        prog="mmdvi", description="Robust location estimation with the MMD posterior."
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("estimate", help="fit one dataset and write the optimizer trace")
    p.add_argument("--data", help="input CSV of samples (rows = observations)")
    p.add_argument("--problem", help=f"generate data from a problem: {sorted(PROBLEMS)}")
    p.add_argument("--epsilon", type=float, help="contamination rate for --problem")
    p.add_argument("--n", type=int, help="sample size for --problem (default 200)")
    p.add_argument("--model", choices=("gaussian", "uniform"), help="model for --data")
    p.add_argument("--sigma2", type=float, help="gaussian model variance (default 1)")
    p.add_argument("--half-width", dest="half_width", type=float,
                   help="uniform model half width (default 0.5)")
    p.add_argument("--gamma2", type=float, help="kernel bandwidth^2 (default: dim)")
    p.add_argument("--beta-log", dest="beta_log", type=float,
                   help="log inverse temperature; inf disables the prior term")
    p.add_argument("--particles", type=int, help="gradient particles per step (default n)")
    p.add_argument("--steps", type=int, help="gradient steps (default 1000)")
    p.add_argument("--step-scale", dest="step_scale", type=float,
                   help="step size multiplier for 1/sqrt(t) (default 1)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="run the contamination benchmark")
    p.add_argument("--problem", help=f"one of {sorted(PROBLEMS)}")
    p.add_argument("--epsilons", help="comma-separated contamination rates in [0, 0.5)")
    p.add_argument("--reps", type=int, help="repetitions per rate (default 100)")
    p.add_argument("--n", type=int, help="sample size (default 200)")
    p.add_argument("--steps", type=int, help="gradient steps per fit (default 1000)")
    p.add_argument("--step-scale", dest="step_scale", type=float)
    p.add_argument("--float64", action="store_true", default=None,
                   help="batched kernel arithmetic in double precision")
    p.add_argument("--svg", action="store_true", default=None,
                   help="also write an RMSE-vs-rate line chart")
    p.add_argument("--jobs", type=int, help="worker processes (default: available cores)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("theory", help="prior-mass reports for the Gaussian model")
    p.add_argument("--theta-star", dest="theta_star",
                   help="comma-separated coordinates of the target parameter")
    p.add_argument("--theta-star-norm", dest="theta_star_norm", type=float,
                   help="norm of the target parameter (with --dim)")
    p.add_argument("--dim", type=int)
    p.add_argument("--n", type=int, help="sample size (default 200)")
    p.add_argument("--sigma2", type=float, help="model variance (default 1)")
    p.add_argument("--gamma2", type=float, help="kernel bandwidth^2 (default: dim)")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("verify", help="convergence and contamination-criterion checks")
    p.add_argument("--trials", type=int, help="datasets per sample size (default 1000)")
    p.set_defaults(func=cmd_verify)

    for name, p in sub.choices.items():
        p.add_argument("--config", help="flat JSON config file; flags override")
        if name != "theory":  # theory draws nothing
            p.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
        if name != "verify":
            p.add_argument("--out", help="output directory (default: current)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge(args)
        return args.func(opts)
    except csvio.CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
