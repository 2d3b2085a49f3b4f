"""Contamination benchmark: robustness sweeps over the contamination rate.

Each sweep repeatedly generates a contaminated sample, runs the variational
MMD fit plus a set of classical baselines, and records the squared estimation
error per trial.  Three stock problems are registered:

* ``gauss1d``   - N(2, 1) data with standard Cauchy outliers,
* ``gauss15d``  - N(2 * ones(15), I) data with Cauchy outliers per coordinate,
* ``uniform``   - Uniform(0.5, 1.5) data with N(20, 1) outliers.

Reproducibility contract: trial (eps_index, rep) draws everything from
``SeedSequence((master_seed, eps_index, rep))``, so results depend only on the
master seed and the grid position, never on scheduling.  Cells of the grid are
independent, which is what ``jobs`` parallelises over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .kernel import GaussianKernel
from .models import ModelSpec, sample, standard_cauchy
from .vi import FitConfig, fit_batched

MMD_METHOD = "mmd"

CAUCHY_STD = "cauchy_std"
GAUSSIAN_FIXED = "gaussian_fixed"

DEFAULT_EPSILONS = tuple(np.linspace(0.0, 0.2, 9))


@dataclass(frozen=True)
class OutlierSpec:
    """Contaminating distribution, drawn i.i.d. per coordinate.

    ``cauchy_std`` ignores ``mean`` and ``variance``; ``gaussian_fixed`` is
    ``N(mean, variance)`` in every coordinate.
    """

    kind: str
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (CAUCHY_STD, GAUSSIAN_FIXED):
            raise ValueError(f"unknown outlier kind {self.kind!r}")
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def sample(self, dim: int, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == CAUCHY_STD:
            return standard_cauchy(rng, (size, dim))
        return self.mean + math.sqrt(self.variance) * rng.standard_normal((size, dim))


@dataclass(frozen=True, eq=False)
class ContaminationSpec:
    """A clean model at ``theta0`` with a fraction ``epsilon`` of rows replaced."""

    model: ModelSpec
    theta0: np.ndarray
    epsilon: float
    outliers: OutlierSpec

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta0", np.atleast_1d(np.asarray(self.theta0, dtype=float))
        )
        if self.theta0.size != self.model.dim:
            raise ValueError(
                f"theta0 has dimension {self.theta0.size}, model has dim {self.model.dim}"
            )
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in [0, 0.5), got {self.epsilon}")


def n_outliers(epsilon: float, n: int) -> int:
    """``floor(epsilon * n)``, nudged so grid rates that are exact in decimal
    (0.075 * 200 = 15) are not floored down by binary rounding."""
    return int(math.floor(epsilon * n + 1e-9))


def generate(spec: ContaminationSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a contaminated sample of ``n`` rows.

    The last ``floor(epsilon * n)`` clean rows are replaced by outlier draws,
    then the rows are shuffled so contamination sits at random positions.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = sample(spec.model, spec.theta0, n, rng)
    m_out = n_outliers(spec.epsilon, n)
    if m_out:
        x[n - m_out:] = spec.outliers.sample(spec.model.dim, m_out, rng)
    return x[rng.permutation(n)]


def estimate_mean(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=-2)


def estimate_median(x: np.ndarray) -> np.ndarray:
    return np.median(x, axis=-2)


def estimate_midrange(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x.min(axis=-2) + x.max(axis=-2))


BASELINES = {
    "mean": estimate_mean,
    "median": estimate_median,
    "midrange": estimate_midrange,
}


@dataclass(frozen=True, eq=False)
class Problem:
    """A named benchmark problem: model, truth, outliers, and baselines."""

    name: str
    model: ModelSpec
    theta0: np.ndarray
    outliers: OutlierSpec
    baselines: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta0", np.atleast_1d(np.asarray(self.theta0, dtype=float))
        )
        for b in self.baselines:
            if b not in BASELINES:
                raise ValueError(f"unknown baseline {b!r}")

    def contamination(self, epsilon: float) -> ContaminationSpec:
        return ContaminationSpec(
            model=self.model, theta0=self.theta0, epsilon=epsilon, outliers=self.outliers
        )


PROBLEMS = {
    "gauss1d": Problem(
        name="gauss1d",
        model=ModelSpec.gaussian(1),
        theta0=np.array([2.0]),
        outliers=OutlierSpec(kind=CAUCHY_STD),
        baselines=("mean", "median"),
    ),
    "gauss15d": Problem(
        name="gauss15d",
        model=ModelSpec.gaussian(15),
        theta0=np.full(15, 2.0),
        outliers=OutlierSpec(kind=CAUCHY_STD),
        baselines=("mean", "median"),
    ),
    "uniform": Problem(
        name="uniform",
        model=ModelSpec.uniform(1),
        theta0=np.array([1.0]),
        outliers=OutlierSpec(kind=GAUSSIAN_FIXED, mean=20.0, variance=1.0),
        baselines=("midrange", "mean"),
    ),
}


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Squared errors per (method, epsilon, rep) plus run metadata."""

    problem: str
    n: int
    reps: int
    epsilons: np.ndarray
    methods: tuple[str, ...]
    squared_errors: dict[str, np.ndarray]  # method -> (n_eps, reps)
    master_seed: int
    n_steps: int
    step_scale: float

    def rmse(self, method: str) -> np.ndarray:
        return np.sqrt(self.squared_errors[method].mean(axis=1))

    def rmse_stderr(self, method: str) -> np.ndarray:
        """Delta-method standard error of the RMSE; NaN with fewer than 2 reps."""
        sq = self.squared_errors[method]
        if self.reps < 2:
            return np.full(sq.shape[0], math.nan)
        rmse = np.sqrt(sq.mean(axis=1))
        se_mean = sq.std(axis=1, ddof=1) / math.sqrt(self.reps)
        out = np.full(sq.shape[0], math.nan)
        pos = rmse > 0.0
        out[pos] = se_mean[pos] / (2.0 * rmse[pos])
        return out


def trial_rng(master_seed: int, eps_index: int, rep: int) -> np.random.Generator:
    """The generator owning every random draw of one trial."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(master_seed, eps_index, rep))
    )


def _run_cell(args) -> tuple[int, dict[str, np.ndarray]]:
    """All reps of one epsilon value; returns (eps_index, method -> (reps,) errors)."""
    (problem_name, n, reps, eps_index, epsilon, master_seed, n_steps, step_scale,
     use_float32) = args
    problem = PROBLEMS[problem_name]
    model = problem.model
    d = model.dim
    kernel = GaussianKernel.default_for_dim(d)
    config = FitConfig.benchmark(n, d, n_steps=n_steps, step_scale=step_scale)
    spec = problem.contamination(epsilon)

    rngs = [trial_rng(master_seed, eps_index, rep) for rep in range(reps)]
    data = np.stack([generate(spec, n, rng) for rng in rngs])  # (reps, n, d)

    errors = {name: ((BASELINES[name](data) - problem.theta0) ** 2).sum(axis=1)
              for name in problem.baselines}

    m_final, _ = fit_batched(data, model, kernel, config, rngs,
                             dtype=np.float32 if use_float32 else np.float64)
    errors[MMD_METHOD] = ((m_final - problem.theta0) ** 2).sum(axis=1)
    return eps_index, errors


def run_sweep(
    problem: str,
    n: int = 200,
    reps: int = 100,
    epsilons=DEFAULT_EPSILONS,
    master_seed: int = 0,
    n_steps: int = 1000,
    step_scale: float = 1.0,
    jobs: int = 1,
    use_float32: bool = True,
) -> SweepResult:
    """Run the full contamination sweep for the problem registered in
    :data:`PROBLEMS` under the name ``problem``.

    Every epsilon cell is an independent unit of work seeded from
    ``(master_seed, eps_index, rep)``, so the output is identical whatever
    ``jobs`` is.  ``use_float32`` runs the batched kernel arithmetic in single
    precision, which is faster than float64.
    """
    if not isinstance(problem, str) or problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; choose from {sorted(PROBLEMS)}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size < 1:
        raise ValueError("need at least one epsilon")

    cells = [
        (problem, n, reps, i, float(eps[i]), master_seed, n_steps, step_scale, use_float32)
        for i in range(eps.size)
    ]
    if jobs == 1:
        results = [_run_cell(c) for c in cells]
    else:
        with Pool(processes=min(jobs, len(cells))) as pool:
            results = pool.map(_run_cell, cells)

    methods = (MMD_METHOD, *PROBLEMS[problem].baselines)
    squared = {m: np.empty((eps.size, reps)) for m in methods}
    for eps_index, errors in results:
        for m in methods:
            squared[m][eps_index] = errors[m]
    return SweepResult(
        problem=problem,
        n=n,
        reps=reps,
        epsilons=eps,
        methods=methods,
        squared_errors=squared,
        master_seed=master_seed,
        n_steps=n_steps,
        step_scale=step_scale,
    )
