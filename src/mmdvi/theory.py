"""Prior-mass certificates for the MMD posterior under a standard Gaussian prior.

The concentration analysis of the pseudo-posterior needs lower bounds on the
prior mass of the MMD ball ``B_n = {theta : MMD(P_theta, P_theta*) <= n^(-1/2)}``
around the true parameter, and (for the variational guarantee) a smoothed
variant built from an explicit Gaussian ``rho_n`` centred at ``theta*``.  Both
certificates are computed here in closed form, entirely in log space so they
remain finite for dimensions well beyond 50.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import _check_int

__all__ = [
    "PriorMassReport",
    "ExtendedMassReport",
    "ball_radius",
    "exact_ball_radius",
    "prior_mass_lower_bound",
    "extended_prior_mass_construction",
    "certificate_row",
]


def _check_inputs(n: int, sigma2: float, gamma2: float, dim: int) -> None:
    _check_int("n", n, 1)
    _check_int("dim", dim, 1)
    for name, value in (("sigma2", sigma2), ("gamma2", gamma2)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_theta_star(theta_star, n: int, sigma2: float, gamma2: float) -> tuple[np.ndarray, int]:
    """The checked ``theta_star`` as a 1-D float array, and its dimension."""
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if not np.isfinite(theta_star).all():
        raise ValueError(f"theta_star must be finite, got {theta_star}")
    _check_inputs(n, sigma2, gamma2, theta_star.size)
    return theta_star, theta_star.size


def ball_radius(n: int, sigma2: float, gamma2: float, dim: int) -> float:
    """Euclidean radius ``s_n`` whose ball is contained in the MMD ball ``B_n``.

    Inverting the closed-form Gaussian MMD with the linear bound
    ``exp(-x) >= 1 - x`` gives the sufficient radius

        s_n = sqrt((4 sigma2 + gamma2) / (2n)) * (1 + 4 sigma2 / gamma2)^(dim/4).

    Any ``theta`` within ``s_n`` of ``theta*`` satisfies
    ``MMD^2(P_theta, P_theta*) <= 1/n``.
    """
    _check_inputs(n, sigma2, gamma2, dim)
    a4 = 4.0 * sigma2 + gamma2
    return math.sqrt(a4 / (2.0 * n)) * (1.0 + 4.0 * sigma2 / gamma2) ** (dim / 4.0)


def exact_ball_radius(n: int, sigma2: float, gamma2: float, dim: int) -> float:
    """Exact Euclidean radius of ``B_n``, from inverting the closed-form MMD.

    Solves ``2 C (1 - exp(-r^2 / A)) = 1/n`` with ``A = 4 sigma2 + gamma2``
    and ``C = (gamma2 / A)^(dim/2)``.  Always at least :func:`ball_radius`
    (which uses the linearised inversion); returns ``inf`` when even remote
    parameters stay within ``n^(-1/2)`` of ``theta*`` (possible in high
    dimension, where ``C`` is tiny).
    """
    _check_inputs(n, sigma2, gamma2, dim)
    a4 = 4.0 * sigma2 + gamma2
    c = (gamma2 / a4) ** (dim / 2.0)
    x = 1.0 / (2.0 * n * c)
    if x >= 1.0:
        return math.inf
    return math.sqrt(-a4 * math.log1p(-x))


@dataclass(frozen=True)
class PriorMassReport:
    """Prior-mass certificate ``pi(B_n) >= mass_lower_bound`` and the implied
    minimal inverse temperature ``beta_min = n * (f - log L)``."""

    n: int
    dim: int
    sigma2: float
    gamma2: float
    theta_star_norm: float
    s_n: float
    f_theta_star: float
    log_mass_lower_bound: float
    mass_lower_bound: float
    beta_min: float


def prior_mass_lower_bound(
    theta_star: np.ndarray,
    n: int,
    sigma2: float,
    gamma2: float,
) -> PriorMassReport:
    """Lower-bound the standard Gaussian prior mass of the MMD ball at ``theta_star``.

    Bounds ``pi(B_n)`` below by the mass of the Euclidean ball of radius
    ``s_n``, which is itself bounded by volume times the minimal density on
    the ball:

        pi(B_n) >= (2 pi)^(-d/2) exp(-f) * vol_d(s_n),
        f = (||theta_star|| + s_n)^2 / 2,

    all assembled in log space (``log vol_d(r) = (d/2) log pi + d log r -
    log Gamma(d/2 + 1)``).  ``beta_min`` is the smallest inverse temperature
    for which the prior-mass condition ``beta >= n (f - log L)`` holds, where
    ``L`` is the density-volume prefactor.
    """
    theta_star, dim = _check_theta_star(theta_star, n, sigma2, gamma2)
    norm = float(np.linalg.norm(theta_star))
    s_n = ball_radius(n, sigma2, gamma2, dim)
    f = 0.5 * (norm + s_n) ** 2
    # log L = log[ vol_d(s_n) * (2 pi)^(-d/2) ] = d log s_n - (d/2) log 2 - log Gamma(d/2+1)
    log_l = dim * math.log(s_n) - 0.5 * dim * math.log(2.0) - math.lgamma(dim / 2.0 + 1.0)
    log_mass = log_l - f
    return PriorMassReport(
        n=n,
        dim=dim,
        sigma2=float(sigma2),
        gamma2=float(gamma2),
        theta_star_norm=norm,
        s_n=s_n,
        f_theta_star=f,
        log_mass_lower_bound=log_mass,
        mass_lower_bound=math.exp(log_mass),
        beta_min=n * (f - log_l),
    )


@dataclass(frozen=True)
class ExtendedMassReport:
    """Smoothed prior-mass construction around ``theta_star``: the four
    quantities it adds to the :class:`PriorMassReport` of the same inputs.

    ``rho_variance`` is the per-coordinate variance of the explicit Gaussian
    ``rho_n = N(theta_star, rho_variance * I)``; ``kl_value`` its KL divergence
    to the standard Gaussian prior; ``mmd_integral_bound`` the exact value of
    ``int MMD^2(P_theta, P_theta*) rho_n(dtheta)``, which is at most ``1/n``
    by construction; and ``beta_min_extended = n * kl_value`` the inverse
    temperature above which the smoothed mass condition holds.
    """

    rho_variance: float
    kl_value: float
    mmd_integral_bound: float
    beta_min_extended: float


def extended_prior_mass_construction(
    theta_star: np.ndarray,
    n: int,
    sigma2: float,
    gamma2: float,
) -> ExtendedMassReport:
    """Evaluate the smoothed prior-mass certificate at ``theta_star``.

    The smoothing variance is chosen so the averaged squared MMD stays below
    ``1/n``:

        rho_variance = (4 sigma2 + gamma2) / (2 d n) * (1 + 4 sigma2 / gamma2)^(d/2).

    Averaging the closed-form squared MMD over ``rho_n`` is a Gaussian
    integral, giving

        2 C (1 - (1 + 2 rho_variance / (4 sigma2 + gamma2))^(-d/2)),

    and the generalised Bernoulli inequality collapses the upper bound to
    exactly ``1/n`` because ``C`` cancels the variance inflation factor.  The
    KL to the prior is the diagonal-Gaussian closed form
    ``(||theta_star||^2 + d rho_variance - d log rho_variance - d) / 2``.
    """
    theta_star, dim = _check_theta_star(theta_star, n, sigma2, gamma2)
    norm2 = float(np.dot(theta_star, theta_star))
    a4 = 4.0 * sigma2 + gamma2
    half_d = dim / 2.0
    log_inflation = half_d * math.log1p(4.0 * sigma2 / gamma2)  # log (1+4s/g)^(d/2)
    rho_variance = a4 / (2.0 * dim * n) * math.exp(log_inflation)
    kl_value = 0.5 * (norm2 + dim * rho_variance - dim * math.log(rho_variance) - dim)
    log_c = half_d * (math.log(gamma2) - math.log(a4))
    x = math.exp(log_inflation - math.log(dim * n))  # 2 rho_variance / a4
    mmd_integral = -2.0 * math.exp(log_c) * math.expm1(-half_d * math.log1p(x))
    return ExtendedMassReport(rho_variance=rho_variance, kl_value=kl_value,
                              mmd_integral_bound=mmd_integral, beta_min_extended=n * kl_value)


def certificate_row(report: PriorMassReport, extended: ExtendedMassReport) -> dict:
    """The fields of ``report`` then of ``extended``, by name and in order: the
    one row that ``mmdvi theory`` prints and writes as ``theory.csv``."""
    return {**asdict(report), **asdict(extended)}
