"""Gaussian kernel, Gram blocks, and closed-form mean-embedding inner products.

The only kernel family used anywhere in this package is the Gaussian kernel

    k(x, y) = exp(-||x - y||^2 / gamma2),

which is bounded by 1, characteristic, and admits closed forms for the inner
products of kernel mean embeddings of Gaussian location models.  Those closed
forms are what make exact MMD computations (and fast gradient estimators)
possible without Monte Carlo.
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
    """Coerce input to a 2-D (n, d) float array; 1-D input is read as n scalars."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 1-D or 2-D array, got ndim={x.ndim}")
    return x


def gram(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full Gram matrix ``K[i, j] = k(x_i, y_j)``.

    ``x`` is (n, d) and ``y`` is (m, d); 1-D inputs are treated as scalar
    samples.  The matrix is materialised, so use :func:`gram_sum` when only
    the sum of entries is needed for a large sample.
    """
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}")
    sq = self_sq(x)[:, None] + self_sq(y)[None, :] - 2.0 * (x @ y.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / kernel.gamma2)


def self_sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of ``x``."""
    return np.einsum("ij,ij->i", x, x)


def gram_sum(kernel: GaussianKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Sum of all Gram entries, streamed in row blocks.

    Blocks of at most ``GRAM_BLOCK`` rows are materialised at a time, each
    block is reduced with numpy's pairwise summation, and the per-block
    partial sums are combined with ``math.fsum`` so the final accumulation is
    compensated.  Handles samples up to ~1e4 points without blowing memory.
    The squared distance is summed from per-coordinate differences
    ``(x_j - y_j)^2``, which cannot cancel and stay finite-or-inf for any
    finite input.
    """
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}")
    parts = []
    for lo in range(0, x.shape[0], GRAM_BLOCK):
        xb = x[lo : lo + GRAM_BLOCK]
        sq = xb[:, :1] - y[:, 0]
        np.square(sq, out=sq)
        for j in range(1, x.shape[1]):
            diff = xb[:, j : j + 1] - y[:, j]
            sq += np.square(diff, out=diff)
        np.divide(sq, -kernel.gamma2, out=sq)
        np.exp(sq, out=sq)
        parts.append(float(sq.sum()))
    return math.fsum(parts)


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
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta_prime = np.atleast_1d(np.asarray(theta_prime, dtype=float))
    if theta.shape != theta_prime.shape:
        raise ValueError(
            f"dimension mismatch: theta has shape {theta.shape}, theta_prime has shape {theta_prime.shape}"
        )
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    d = theta.size
    denom = 4.0 * sigma2 + kernel.gamma2
    diff = theta - theta_prime
    return (kernel.gamma2 / denom) ** (d / 2.0) * float(np.exp(-np.dot(diff, diff) / denom))


def point_embedding_inner(
    kernel: GaussianKernel,
    x: np.ndarray,
    theta: np.ndarray,
    sigma2: float,
) -> np.ndarray | float:
    """Expectation ``E_{X ~ N(theta, sigma2 I)}[k(x, X)]`` in closed form.

    Equals ``(gamma2 / (2 sigma2 + gamma2))^(d/2)
    * exp(-||x - theta||^2 / (2 sigma2 + gamma2))``: the inner product of the
    feature map at ``x`` with the embedding of the Gaussian.  ``x`` may be a
    single point (d,) or a batch (n, d); a batch returns shape (n,).
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_1d(x)[None, :] if single else _as_points(x, "x")
    if pts.shape[1] != theta.size:
        raise ValueError(f"dimension mismatch: x has d={pts.shape[1]}, theta has d={theta.size}")
    d = theta.size
    denom = 2.0 * sigma2 + kernel.gamma2
    diff = pts - theta[None, :]
    vals = (kernel.gamma2 / denom) ** (d / 2.0) * np.exp(-self_sq(diff) / denom)
    return float(vals[0]) if single else vals
