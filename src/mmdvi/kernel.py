"""Gaussian kernel, Gram blocks, and closed-form mean-embedding inner products.

The only kernel family used anywhere in this package is the Gaussian kernel

    k(x, y) = exp(-||x - y||^2 / gamma2),

which is bounded by 1, characteristic, and admits closed forms for the inner
products of kernel mean embeddings of Gaussian location models.  Those closed
forms are what make exact MMD computations (and the fit's exact gradients)
possible without Monte Carlo.

A sample is an (n, d) array throughout the package, and a 1-D array is read
as n scalars (:func:`_as_points`).  :func:`point_embedding_inner` takes a
(T, d) stack of locations and returns a (T, n) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Row-block edge for streamed Gram accumulation.  Bounds peak memory at
# O(GRAM_BLOCK^2) while keeping numpy calls large enough to amortise overhead.
GRAM_BLOCK = 2048


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel ``k(x, y) = exp(-||x - y||^2 / gamma2)``.

    Parameters
    ----------
    gamma2 : float
        Squared bandwidth, strictly positive.  The conventional default for a
        ``d``-dimensional problem is ``gamma2 = d`` (see :func:`default_for_dim`).
    """

    gamma2: float

    def __post_init__(self) -> None:
        if not (self.gamma2 > 0.0) or not math.isfinite(self.gamma2):
            raise ValueError(f"gamma2 must be a positive finite float, got {self.gamma2}")

    @classmethod
    def default_for_dim(cls, dim: int) -> "GaussianKernel":
        """Kernel with the dimension-matched bandwidth ``gamma2 = dim``."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls(gamma2=float(dim))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """Evaluate ``k(x, y)`` for two points of equal dimension."""
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: x has shape {x.shape}, y has shape {y.shape}")
        diff = x - y
        return float(np.exp(-np.dot(diff, diff) / self.gamma2))


def _as_points(x: np.ndarray, name: str) -> np.ndarray:
    """Coerce a sample to a 2-D (n, d) float array; 1-D input is read as n
    scalars.  Every sample input of the package goes through here."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 1-D or 2-D array, got ndim={x.ndim}")
    return x


def _gram_block(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel values for (n, d) ``x`` against (m, d) ``y``.

    The squared distance is summed from per-coordinate differences
    ``(x_j - y_j)^2``, which cannot cancel and stay finite-or-inf for any
    finite input, so ``k(x, x)`` is exactly 1 however far ``x`` lies.  A
    distance overflowing to inf gives exactly 0, silently, as intended.
    """
    with np.errstate(over="ignore"):
        sq = x[:, :1] - y[:, 0]
        np.square(sq, out=sq)
        for j in range(1, x.shape[1]):
            diff = x[:, j : j + 1] - y[:, j]
            sq += np.square(diff, out=diff)
    np.divide(sq, -kernel.gamma2, out=sq)
    return np.exp(sq, out=sq)


def self_sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis of ``x``."""
    return np.einsum("...j,...j->...", x, x)


def gram_sum(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Sum of all Gram entries, streamed in row blocks.

    Blocks of at most ``GRAM_BLOCK`` rows are materialised at a time, each
    block is reduced with numpy's pairwise summation, and the per-block
    partial sums are combined with ``math.fsum`` so the final accumulation is
    compensated.  Handles samples up to ~1e4 points without blowing memory.
    """
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}")
    return math.fsum(
        float(_gram_block(kernel, x[lo : lo + GRAM_BLOCK], y).sum())
        for lo in range(0, x.shape[0], GRAM_BLOCK)
    )


def _gaussian_pair(kernel: GaussianKernel, theta, theta_prime, sigma2) -> tuple[float, float]:
    """The checked constant ``(gamma2 / A)^(d/2)`` and exponent ``-||theta -
    theta'||^2 / A``, ``A = 4 sigma2 + gamma2``, of the closed forms between
    ``N(theta, sigma2 I)`` and ``N(theta', sigma2 I)``."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta_prime = np.atleast_1d(np.asarray(theta_prime, dtype=float))
    if theta.shape != theta_prime.shape:
        raise ValueError(f"dimension mismatch: theta has shape {theta.shape}, "
                         f"theta_prime has shape {theta_prime.shape}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    denom = 4.0 * sigma2 + kernel.gamma2
    diff = theta - theta_prime
    return (kernel.gamma2 / denom) ** (theta.size / 2.0), -np.dot(diff, diff) / denom


def gaussian_embedding_inner(
    kernel: GaussianKernel,
    theta: np.ndarray,
    theta_prime: np.ndarray,
    sigma2: float,
) -> float:
    """Inner product of the kernel mean embeddings of two isotropic Gaussians.

    For ``P_t = N(t, sigma2 * I_d)`` and the Gaussian kernel with bandwidth
    ``gamma2``,

        <mu_theta, mu_theta'> = (gamma2 / (4 sigma2 + gamma2))^(d/2)
                                * exp(-||theta - theta'||^2 / (4 sigma2 + gamma2)),

    obtained by integrating the kernel against both Gaussians (the moment
    generating function of a noncentral chi-square evaluated at a negative
    argument).

    Parameters
    ----------
    theta, theta_prime : array-like, shape (d,)
        Means of the two Gaussians.
    sigma2 : float
        Common isotropic variance, strictly positive.
    """
    const, exponent = _gaussian_pair(kernel, theta, theta_prime, sigma2)
    return const * float(np.exp(exponent))


def point_embedding_inner(
    kernel: GaussianKernel,
    x: np.ndarray,
    theta: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Expectations ``E_{X ~ N(theta, sigma2 I)}[k(x_i, X)]`` in closed form.

    Each equals ``(gamma2 / (2 sigma2 + gamma2))^(d/2)
    * exp(-||x_i - theta||^2 / (2 sigma2 + gamma2))``: the inner product of
    the feature map at ``x_i`` with the embedding of the Gaussian.  ``x`` is
    an (n, d) sample and ``theta`` a (T, d) stack of locations, a (d,)
    ``theta`` being one row; returns (T, n).
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    x = _as_points(x, "x")
    stack = np.atleast_2d(np.asarray(theta, dtype=float))
    if stack.ndim > 2:
        raise ValueError(f"theta must be (d,) or (T, d), got shape {np.shape(theta)}")
    d = stack.shape[1]
    if x.shape[1] != d:
        raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, theta has d={d}")
    denom = 2.0 * sigma2 + kernel.gamma2
    diff = x - stack[:, None, :]
    return (kernel.gamma2 / denom) ** (d / 2.0) * np.exp(-self_sq(diff) / denom)
