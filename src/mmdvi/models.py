"""Location models (Gaussian and uniform), sampling, and the uniform model's
kernel expectations.

Both models are generative location families: ``P_theta`` is ``N(theta,
sigma2 * I_d)`` or the product uniform ``U([theta - a, theta + a])^d``.  The
Gaussian kernel expectations of the Gaussian model live in :mod:`.kernel`;
those of the uniform model are the erf closed forms here (Briol et al.,
arXiv 1906.05944).  Gradients in the location come from differentiating
``E_{X ~ P_theta}[k(x, X)]`` in ``theta``, which the variational fit does for
both models.  :func:`uniform_point_expectation` takes a (T, d) stack of
locations and an (n, d) sample (1-D: n scalars) and returns a (T, n) array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernel import GaussianKernel, _as_points

GAUSSIAN = "gaussian_location"
UNIFORM = "uniform_location"

# Elementwise complementary error function; keeps the runtime numpy-only.
_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class ModelSpec:
    """Parametric location model.

    ``kind`` is one of :data:`GAUSSIAN` (isotropic Gaussian with variance
    ``sigma2``) or :data:`UNIFORM` (componentwise uniform with half-width
    ``half_width``).  ``dim`` is the ambient dimension of the location
    parameter.
    """

    kind: str
    dim: int
    sigma2: float = 1.0
    half_width: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, UNIFORM):
            raise ValueError(f"unknown model kind {self.kind!r}")
        _check_int("dim", self.dim, 1)
        if self.kind == GAUSSIAN and not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.kind == UNIFORM and not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @classmethod
    def gaussian(cls, dim: int = 1, sigma2: float = 1.0) -> "ModelSpec":
        return cls(kind=GAUSSIAN, dim=dim, sigma2=sigma2)

    @classmethod
    def uniform(cls, dim: int = 1, half_width: float = 0.5) -> "ModelSpec":
        return cls(kind=UNIFORM, dim=dim, half_width=half_width)


def _check_int(name: str, value, lo: int) -> None:
    """Reject a ``value`` of the integer field ``name`` that is not an
    integer of at least ``lo``; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def _check_theta(model: ModelSpec, theta: np.ndarray) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.dim,):
        raise ValueError(f"theta must have shape ({model.dim},), got {theta.shape}")
    return theta


def sample(model: ModelSpec, theta: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. observations from ``P_theta``; returns shape (n, dim).

    Draws are a deterministic function of the generator state, so repeated
    runs under the same seed reproduce the same sample.
    """
    theta = _check_theta(model, theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if model.kind == GAUSSIAN:
        return theta + np.sqrt(model.sigma2) * rng.standard_normal((n, model.dim))
    a = model.half_width
    return theta + a * (2.0 * rng.random((n, model.dim)) - 1.0)


def standard_cauchy(rng: np.random.Generator, size) -> np.ndarray:
    """Standard Cauchy draws via the inverse CDF ``tan(pi (u - 1/2))``.

    Implemented explicitly (rather than via the library sampler) so the
    stream of underlying uniforms, and hence every downstream experiment, is
    pinned to a single documented transformation.
    """
    u = rng.random(size)
    return np.tan(np.pi * (u - 0.5))


def uniform_point_expectation(
    kernel: GaussianKernel,
    model: ModelSpec,
    theta: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """``E_{X ~ U([theta-a, theta+a])^d}[k(x_i, X)]`` in closed form.

    The product kernel factorises over coordinates, and each factor is

        (1/2a) int_{theta_j - a}^{theta_j + a} exp(-(x_j - t)^2 / gamma2) dt
          = (sqrt(pi) gamma / 4a) [erf(hi) - erf(lo)],

    with ``hi = (theta_j + a - x_j) / gamma`` and ``lo = (theta_j - a - x_j) /
    gamma``.  The difference is taken as ``erfc(lo) - erfc(hi)`` on the side
    of zero where both arguments mostly lie (mirrored when ``hi + lo < 0``), so
    a point far in either tail keeps its relative accuracy instead of
    cancelling to 0.  ``theta`` is a (T, d) stack of locations, a (d,)
    ``theta`` being one row, and ``x`` an (n, d) sample; returns (T, n).
    """
    if model.kind != UNIFORM:
        raise ValueError("uniform_point_expectation requires a uniform model")
    stack = np.atleast_2d(np.asarray(theta, dtype=float))
    if stack.ndim > 2 or stack.shape[1] != model.dim:
        raise ValueError(
            f"theta must have shape ({model.dim},) or (T, {model.dim}), got {np.shape(theta)}"
        )
    x = _as_points(x, "x")
    if x.shape[1] != model.dim:
        raise ValueError(f"x must have dimension {model.dim}, got {x.shape[1]}")
    a = model.half_width
    gamma = math.sqrt(kernel.gamma2)
    with np.errstate(over="ignore"):  # a far point's bounds may overflow to +-inf
        hi = (stack[:, None, :] + a - x) / gamma
        lo = (stack[:, None, :] - a - x) / gamma
        sgn = np.where(hi + lo < 0.0, -1.0, 1.0)
    diff = sgn * (_erfc(sgn * lo) - _erfc(sgn * hi)).astype(float)
    return np.prod(math.sqrt(math.pi) * gamma / (4.0 * a) * diff, axis=-1)


def uniform_pair_expectation(kernel: GaussianKernel, model: ModelSpec) -> float:
    """``E_{X, X' ~ P_theta}[k(X, X')]`` for the uniform model, in closed form.

    Location-free: per coordinate ``X - X'`` has the triangular density
    ``(L - |u|) / L^2`` on ``[-L, L]`` with ``L = 2a``, and integrating the
    kernel against it gives

        (gamma sqrt(pi) L erf(L / gamma) + gamma2 expm1(-L^2 / gamma2)) / L^2,

    raised to the ``dim`` power.
    """
    if model.kind != UNIFORM:
        raise ValueError("uniform_pair_expectation requires a uniform model")
    length = 2.0 * model.half_width
    gamma = math.sqrt(kernel.gamma2)
    one_dim = (gamma * math.sqrt(math.pi) * length * math.erf(length / gamma)
               + kernel.gamma2 * math.expm1(-length**2 / kernel.gamma2)) / length**2
    return one_dim**model.dim
