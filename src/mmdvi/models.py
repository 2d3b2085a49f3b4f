"""Location models (Gaussian and uniform) and their sampling / gradient helpers.

Both models are generative location families: ``P_theta`` is ``N(theta,
sigma2 * I_d)`` or the product uniform ``U([theta - a, theta + a])^d``.  The
Gaussian family has a differentiable log-density, so score-function gradient
estimators apply; the uniform family does not, and gradient information is
instead obtained by differentiating the kernel expectation
``E_{X ~ P_theta}[k(x, X)]`` directly with respect to the location.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernel import GaussianKernel

GAUSSIAN = "gaussian_location"
UNIFORM = "uniform_location"

# Gauss-Legendre node count for uniform-model kernel expectations.  64 nodes
# are far beyond what the smooth Gaussian integrand needs at the bandwidths
# used here; the cost is negligible.
QUAD_NODES = 64


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
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
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


def score(model: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ``log p_theta(x)`` with respect to ``theta``.

    Defined only for the Gaussian model, where it is ``(x - theta) / sigma2``.
    ``x`` may be one point (dim,) or a batch (n, dim); the result has the same
    shape.  The uniform model has no differentiable log-density: use
    :func:`uniform_expectation_grad` instead.
    """
    if model.kind != GAUSSIAN:
        raise ValueError(
            "score is undefined for the uniform model (non-differentiable log-density); "
            "use uniform_expectation_grad for location gradients"
        )
    theta = _check_theta(model, theta)
    x = np.asarray(x, dtype=float)
    return (x - theta) / model.sigma2


def standard_cauchy(rng: np.random.Generator, size) -> np.ndarray:
    """Standard Cauchy draws via the inverse CDF ``tan(pi (u - 1/2))``.

    Implemented explicitly (rather than via the library sampler) so the
    stream of underlying uniforms, and hence every downstream experiment, is
    pinned to a single documented transformation.
    """
    u = rng.random(size)
    return np.tan(np.pi * (u - 0.5))


@lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def uniform_point_expectation(
    kernel: GaussianKernel,
    model: ModelSpec,
    theta: np.ndarray,
    x: np.ndarray,
    nodes: int = QUAD_NODES,
) -> np.ndarray | float:
    """``E_{X ~ U([theta-a, theta+a])^d}[k(x, X)]`` by Gauss-Legendre quadrature.

    The product kernel factorises over coordinates, so each factor is a 1-D
    integral ``(1/2a) * int_{theta_j - a}^{theta_j + a} exp(-(x_j - t)^2 /
    gamma2) dt`` evaluated on ``nodes`` Legendre nodes.  ``x`` may be (d,) or
    (n, d); a batch returns shape (n,).
    """
    if model.kind != UNIFORM:
        raise ValueError("uniform_point_expectation requires a uniform model")
    theta = _check_theta(model, theta)
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x.astype(float))
    if pts.shape[1] != model.dim:
        raise ValueError(f"x must have dimension {model.dim}, got {pts.shape[1]}")
    u, w = _leggauss(nodes)
    a = model.half_width
    out = np.ones(pts.shape[0])
    for j in range(model.dim):
        t = theta[j] + a * u  # (nodes,)
        diff = pts[:, j][:, None] - t[None, :]
        # (1/2a) * a * sum_i w_i f(t_i) = 0.5 * sum_i w_i f(t_i); a square
        # that overflows to inf gives the intended weight exactly 0
        with np.errstate(over="ignore"):
            out *= 0.5 * (np.exp(-diff * diff / kernel.gamma2) @ w)
    return float(out[0]) if single else out


@lru_cache(maxsize=8)
def uniform_pair_expectation(
    kernel: GaussianKernel,
    model: ModelSpec,
    nodes: int = QUAD_NODES,
) -> float:
    """``E_{X, X' ~ P_theta}[k(X, X')]`` for the uniform model.

    Location-free: substituting ``X = theta + a U`` shows the double integral
    depends only on the half-width.  Computed per coordinate on a tensor
    Legendre grid, raised to the ``dim`` power, and cached: a fit asks for it
    on every step, and the frozen kernel and model hash by value.
    """
    if model.kind != UNIFORM:
        raise ValueError("uniform_pair_expectation requires a uniform model")
    u, w = _leggauss(nodes)
    a = model.half_width
    diff = a * (u[:, None] - u[None, :])
    one_dim = 0.25 * float(w @ np.exp(-diff * diff / kernel.gamma2) @ w)
    return one_dim**model.dim


class UniformGrad(NamedTuple):
    d_dm: float | np.ndarray
    d_ds: float | np.ndarray


def uniform_expectation_grad(
    kernel: GaussianKernel,
    model: ModelSpec,
    m: float,
    s: float,
    particle: float,
    x: np.ndarray | float,
) -> UniformGrad:
    """Location gradients of ``int_{theta-a}^{theta+a} K(t - x) dt`` at
    ``theta = m + s * particle`` for the 1-D uniform model.

    With ``K(u) = exp(-u^2 / gamma2)`` the fundamental theorem of calculus
    gives

        d/dm = K(m + s*particle + a - x) - K(m + s*particle - a - x),

    and the chain rule through ``theta = m + s * particle`` gives
    ``d/ds = particle * d/dm``.  These are derivatives of the *unnormalised*
    interval integral; the uniform density carries an extra ``1/(2a)`` factor,
    which is 1 at the conventional half-width ``a = 1/2`` and is applied by
    the variational-fit layer otherwise.  ``x`` may be a scalar or an array of
    data points.
    """
    if model.kind != UNIFORM:
        raise ValueError("uniform_expectation_grad requires a uniform model")
    if model.dim != 1:
        raise ValueError(f"uniform_expectation_grad supports dim=1 only, got dim={model.dim}")
    theta = m + s * particle
    a = model.half_width
    x = np.asarray(x, dtype=float)
    up = theta + a - x
    lo = theta - a - x
    d_dm = np.exp(-up * up / kernel.gamma2) - np.exp(-lo * lo / kernel.gamma2)
    d_ds = particle * d_dm
    if d_dm.ndim == 0:
        return UniformGrad(float(d_dm), float(d_ds))
    return UniformGrad(d_dm, d_ds)
