"""Squared maximum mean discrepancy estimators and population criteria.

For a kernel ``k`` with mean embedding ``mu_P = E_{X~P} k(X, .)``, the squared
MMD is ``||mu_P - mu_Q||^2``, expanded into three expectation terms.  This
module provides the empirical V- and U-statistics, the exact squared MMD
between a location model (Gaussian or uniform, each by its one closed form)
and an empirical measure, the population criterion under Huber
contamination, and the empirical-convergence check ``E[MMD^2(P_hat_n, P)] <=
1/n``.

Every estimator returns a plain float; only :func:`mmd2_model_vs_empirical`
also takes a (T, d) stack of locations, for which it returns a (T,) array.
Samples are (n, d) arrays, a 1-D array being n scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    GaussianKernel,
    _as_points,
    _gaussian_pair,
    gaussian_embedding_inner,
    gram_sum,
    point_embedding_inner,
)
from .models import (
    GAUSSIAN,
    ModelSpec,
    sample,
    uniform_pair_expectation,
    uniform_point_expectation,
)

# A V-statistic is a squared RKHS norm; only floating-point cancellation can
# push it below zero, and never by more than this.
ZERO_TOL = 1e-12


def _two_samples(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = _as_points(x, "x"), _as_points(y, "y")
    if x.size == 0 or y.size == 0:
        raise ValueError("samples must be non-empty")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}")
    return x, y


def mmd2_vstat(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Biased (V-statistic) estimate of the squared MMD between two samples.

    ``(1/n^2) sum k(x_i, x_j) - (2/nm) sum k(x_i, y_j) + (1/m^2) sum k(y_i,
    y_j)``, including diagonal terms.  Nonnegative up to floating-point
    cancellation of order :data:`ZERO_TOL`.
    """
    x, y = _two_samples(x, y)
    n, m = x.shape[0], y.shape[0]
    return (
        gram_sum(kernel, x, x) / (n * n)
        - 2.0 * gram_sum(kernel, x, y) / (n * m)
        + gram_sum(kernel, y, y) / (m * m)
    )


def mmd2_ustat(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased (U-statistic) estimate of the squared MMD.

    Within-sample sums exclude the diagonal and are divided by ``n(n-1)``.
    Unlike the V-statistic the result can be negative, in particular when the
    two distributions coincide.  Requires at least two points per sample.
    """
    x, y = _two_samples(x, y)
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError(f"the U-statistic needs at least 2 points per sample, got {n} and {m}")
    # k(x, x) = 1 for the Gaussian kernel, so the diagonal sum is just n.
    sxx = gram_sum(kernel, x, x) - n
    syy = gram_sum(kernel, y, y) - m
    sxy = gram_sum(kernel, x, y)
    return sxx / (n * (n - 1)) - 2.0 * sxy / (n * m) + syy / (m * (m - 1))


def mmd2_gaussian_closed(
    kernel: GaussianKernel,
    theta: np.ndarray,
    theta_prime: np.ndarray,
    sigma2: float,
) -> float:
    """Exact squared MMD between ``N(theta, sigma2 I)`` and ``N(theta', sigma2 I)``.

    Expanding ``||mu - mu'||^2`` with the closed-form embedding inner products
    gives

        2 (gamma2 / (4 sigma2 + gamma2))^(d/2)
          * (1 - exp(-||theta - theta'||^2 / (4 sigma2 + gamma2))).
    """
    const, exponent = _gaussian_pair(kernel, theta, theta_prime, sigma2)
    return 2.0 * const * float(-np.expm1(exponent))


def data_kernel_term(kernel: GaussianKernel, data: np.ndarray) -> float:
    """The data-only term ``(1/n^2) sum_{i,j} k(X_i, X_j)``.

    Constant in the model parameter, so callers evaluating the model-vs-data
    MMD on a grid of parameters should compute it once and pass it through.
    """
    data = _as_points(data, "data")
    n = data.shape[0]
    return gram_sum(kernel, data, data) / (n * n)


def mmd2_model_vs_empirical(
    kernel: GaussianKernel,
    model: ModelSpec,
    theta: np.ndarray,
    data: np.ndarray,
    data_term: float | None = None,
) -> float | np.ndarray:
    """Exact squared MMD between the model ``P_theta`` and the empirical measure.

    The two model-side expectation terms are closed forms: the Gaussian
    embedding inner products of :mod:`.kernel` for the Gaussian model, the erf
    forms of :mod:`.models` for the uniform model.  The pair term is
    location-free, so it is computed once per call.  The data-data term is
    exact too; pass ``data_term`` to reuse a cached value.  ``theta`` is one
    location (d,), giving a float, or a stack (T, d), giving a (T,) array
    whose rows have the bits of T single calls.
    """
    data = _as_points(data, "data")
    if data.size == 0:
        raise ValueError("data must be non-empty")
    if data.shape[1] != model.dim:
        raise ValueError(f"data has dimension {data.shape[1]}, model has dim {model.dim}")
    if data_term is None:
        data_term = data_kernel_term(kernel, data)
    if model.kind == GAUSSIAN:
        origin = np.zeros(model.dim)
        pair = gaussian_embedding_inner(kernel, origin, origin, model.sigma2)
        cross = point_embedding_inner(kernel, data, theta, model.sigma2)
    else:
        pair = uniform_pair_expectation(kernel, model)
        cross = uniform_point_expectation(kernel, model, theta, data)
    value = pair - 2.0 * np.mean(cross, axis=1) + data_term
    return float(value[0]) if np.ndim(theta) <= 1 else value


@dataclass(frozen=True, eq=False)
class ContaminatedGaussianSpec:
    """Huber contamination of a Gaussian location model.

    ``P0 = (1 - epsilon) N(theta0, sigma2 I) + epsilon N(theta_c, sigma2 I)``
    with contamination level ``epsilon`` in ``[0, 1/2)``.
    """

    theta0: np.ndarray
    theta_c: np.ndarray
    epsilon: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta0", np.atleast_1d(np.asarray(self.theta0, dtype=float)))
        object.__setattr__(self, "theta_c", np.atleast_1d(np.asarray(self.theta_c, dtype=float)))
        if self.theta0.shape != self.theta_c.shape:
            raise ValueError("theta0 and theta_c must have the same shape")
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in [0, 0.5), got {self.epsilon}")
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")

    @property
    def dim(self) -> int:
        return self.theta0.size


def _sq_dists(spec: ContaminatedGaussianSpec, theta: np.ndarray) -> list[np.ndarray]:
    """Squared distances of an (m, d) grid ``theta``, a (d,) parameter one
    row, to ``spec.theta0`` and to ``spec.theta_c``; two (m,) arrays."""
    grid = np.atleast_2d(np.asarray(theta, dtype=float))
    if grid.shape[1] != spec.dim:
        raise ValueError(f"theta must have dimension {spec.dim}, got {grid.shape[1]}")
    return [np.einsum("ij,ij->i", diff, diff) for diff in (grid - spec.theta0, grid - spec.theta_c)]


def mmd2_contaminated_criterion(
    kernel: GaussianKernel,
    spec: ContaminatedGaussianSpec,
    theta: np.ndarray,
) -> np.ndarray:
    """Population squared MMD between the contaminated ``P0`` and ``N(theta, sigma2 I)``.

    Expanding the mixture embedding against the model embedding gives, with
    ``C = (gamma2 / (4 sigma2 + gamma2))^(d/2)`` and ``A = 4 sigma2 + gamma2``:

        2 (1 - eps) C (1 - exp(-||theta - theta0||^2 / A))
        + 2 eps C (1 - exp(-||theta - theta_c||^2 / A))
        - 2 eps (1 - eps) C (1 - exp(-||theta0 - theta_c||^2 / A)).

    Minimising this over ``theta`` is equivalent to maximising the weighted
    sum of the two Gaussian bumps centred at ``theta0`` and ``theta_c``.
    ``theta`` is an (m, d) grid, a (d,) parameter one row; returns (m,).
    """
    dist0, dist_c = _sq_dists(spec, theta)
    eps = spec.epsilon
    denom = 4.0 * spec.sigma2 + kernel.gamma2
    const, cross = _gaussian_pair(kernel, spec.theta0, spec.theta_c, spec.sigma2)
    term0 = -np.expm1(-dist0 / denom)
    term_c = -np.expm1(-dist_c / denom)
    term_cross = -math.expm1(cross)
    return 2.0 * const * ((1.0 - eps) * term0 + eps * term_c - eps * (1.0 - eps) * term_cross)


def kl_contaminated_criterion(
    spec: ContaminatedGaussianSpec,
    theta: np.ndarray,
) -> np.ndarray:
    """The theta-dependent part of the KL criterion under the same contamination.

    Up to an additive constant, minimising ``KL(P0 || N(theta, sigma2 I))``
    over ``theta`` minimises ``(1-eps) ||theta - theta0||^2 + eps ||theta -
    theta_c||^2``, whose minimiser is the mixture mean ``(1-eps) theta0 + eps
    theta_c``: the KL fit tracks the contamination linearly, while the MMD
    criterion above stays anchored near ``theta0``.  ``theta`` is an (m, d)
    grid, a (d,) parameter one row; returns (m,).
    """
    dist0, dist_c = _sq_dists(spec, theta)
    return (1.0 - spec.epsilon) * dist0 + spec.epsilon * dist_c


@dataclass(frozen=True)
class EmpiricalConvergenceReport:
    """Outcome of the mean-MMD^2 convergence check over repeated samples."""

    n: int
    trials: int
    mean_mmd2: float
    stderr: float
    bound: float
    passed: bool


def check_empirical_convergence(
    kernel: GaussianKernel,
    model: ModelSpec,
    theta0: np.ndarray,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> EmpiricalConvergenceReport:
    """Verify ``E[MMD^2(P_hat_n, P_theta0)] <= 1/n`` by simulation.

    Draws ``trials`` datasets of size ``n`` from ``P_theta0`` and evaluates
    the exact squared MMD between each empirical measure and the generating
    model.  Passes when the sample mean does not exceed ``1/n`` by more than
    three standard errors.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    values = np.empty(trials)
    for t in range(trials):
        data = sample(model, theta0, n, rng)
        values[t] = mmd2_model_vs_empirical(kernel, model, theta0, data)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    bound = 1.0 / n
    return EmpiricalConvergenceReport(
        n=n,
        trials=trials,
        mean_mmd2=mean,
        stderr=stderr,
        bound=bound,
        passed=mean <= bound + 3.0 * stderr,
    )


def minimize_criterion(
    fn,
    lo: float,
    hi: float,
    grid_points: int = 4097,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Global minimiser of a smooth scalar criterion on ``[lo, hi]``.

    ``fn`` maps a 1-D grid of parameter values to criterion values.  The
    contamination criteria can be multimodal (one basin per mixture
    component), so a dense scan localises the global basin first and ternary
    search refines inside the two bracketing cells down to ``tol``.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, grid_points)
    vals = np.asarray(fn(grid), dtype=float)
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid_points - 1)]
    for _ in range(max_iter):
        if b - a <= tol:
            break
        third = (b - a) / 3.0
        probe = np.array([a + third, b - third])
        v = np.asarray(fn(probe), dtype=float)
        if v[0] <= v[1]:
            b = probe[1]
        else:
            a = probe[0]
    return 0.5 * (a + b)
