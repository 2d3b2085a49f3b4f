"""Mean-field Gaussian variational fit of the MMD posterior by projected SGD.

The pseudo-posterior proportional to ``exp(-beta * MMD^2(P_theta, P_hat_n)) *
pi(theta)`` is approximated within the family ``N(m, diag(s^2))`` under a
standard Gaussian prior.  Up to a data-only constant the objective is

    R(m, s) = int MMD^2(P_theta, P_hat_n) N(dtheta | m, diag(s^2))
              + (1 / 2 beta) * sum_j (m_j^2 + s_j^2 - log s_j^2 - 1),

minimised by projected stochastic gradient descent on ``(m, s)`` with steps
``eta_t = step_scale / sqrt(t)`` and box projections keeping ``s`` positive.
The loop is :func:`fit_batched`: it fits a stack of datasets, optionally in
float32, each from its componentwise median with ``s = 1``.  :func:`fit` runs
it on one dataset in float64 with a recorder storing the path, then fills the
trace objective once over the whole path.
Each step centres the data at the current mean ``m`` in float64; the
closed-form kernels see ``x - m`` and the offsets ``s * z`` and build each
exponent ``-c |a - b|^2`` as one matmul ``[a, 1, |a|^2] @ [2c b; -c|b|^2; -c]``
whose rounding, after centring, is small for the pairs with kernel weight.

The one gradient estimator is reparameterised: it draws particles ``theta_k =
m + s * z_k`` and differentiates the kernel expectation ``E_{X ~
P_theta}[k(X_i, X)]`` exactly in ``theta`` at each (Gaussian model: the
embedding closed form; uniform model: endpoint kernel differences).  It needs
no synthetic sample and is unbiased.  It costs O(n M) per step, except at d = 1
once a fit's particle cloud has collapsed (at the benchmark ``beta``, ``s``
runs to its floor): then the kernel sums come from O(n + M) weighted moments
of a Taylor expansion whose truncation is below the kernel dtype's rounding.
:func:`objective_exact` integrates the particles out in closed form for both
models; it is the reference the gradient is finite-difference checked against.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import GaussianKernel, _as_points
from .mmd import data_kernel_term, mmd2_model_vs_empirical
from .models import (GAUSSIAN, UNIFORM, ModelSpec, uniform_pair_expectation,
                     uniform_point_expectation)

DEFAULT_SEED = 12345
DEFAULT_M_BOUNDS = (-1e6, 1e6)
DEFAULT_S_BOUNDS = (1e-6, 1e3)


@dataclass(frozen=True, eq=False)
class MeanFieldGaussian:
    """Diagonal Gaussian ``N(m, diag(s^2))`` with strictly positive scales."""

    m: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", np.atleast_1d(np.asarray(self.m, dtype=float)))
        object.__setattr__(self, "s", np.atleast_1d(np.asarray(self.s, dtype=float)))
        if self.m.shape != self.s.shape:
            raise ValueError(f"m and s must share a shape, got {self.m.shape} and {self.s.shape}")
        if not np.all(self.s > 0.0):
            raise ValueError("all components of s must be strictly positive")

    @property
    def dim(self) -> int:
        return self.m.size


def _kl_rows(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``0.5 * sum_j (m_j^2 + s_j^2 - log s_j^2 - 1)`` along the last axis."""
    return 0.5 * np.sum(m**2 + s**2 - np.log(s**2) - 1.0, axis=-1)


def kl_to_standard_prior(q: MeanFieldGaussian) -> float:
    """``KL(N(m, diag(s^2)) || N(0, I))`` in closed form.

    Equals ``0.5 * sum_j (m_j^2 + s_j^2 - log s_j^2 - 1)``; zero exactly at
    the prior itself.
    """
    return float(_kl_rows(q.m, q.s))


@dataclass(frozen=True)
class FitConfig:
    """Configuration of the projected stochastic gradient fit.

    ``beta_log`` is ``log(beta)``; ``math.inf`` is the documented sentinel for
    the unregularised limit, in which every regulariser contribution is
    exactly zero (``1/beta = exp(-beta_log)`` underflows).  ``n_particles``
    defaults to the sample size at fit time, mirroring the benchmark setting.
    """

    beta_log: float = math.inf
    n_particles: int | None = None
    n_steps: int = 1000
    step_scale: float = 1.0
    m_bounds: tuple[float, float] = DEFAULT_M_BOUNDS
    s_bounds: tuple[float, float] = DEFAULT_S_BOUNDS

    def __post_init__(self) -> None:
        if math.isnan(self.beta_log):
            raise ValueError("beta_log must not be NaN")
        if self.n_particles is not None and self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 <= self.step_scale < math.inf:
            raise ValueError(f"step_scale must be finite and >= 0, got {self.step_scale}")
        if not self.m_bounds[0] <= self.m_bounds[1]:
            raise ValueError(f"empty m_bounds box {self.m_bounds}")
        if not 0.0 < self.s_bounds[0] <= self.s_bounds[1]:
            raise ValueError(f"s_bounds must satisfy 0 < lo <= hi, got {self.s_bounds}")

    @classmethod
    def benchmark(cls, n: int, dim: int, **overrides) -> "FitConfig":
        """The contamination-benchmark defaults: ``beta = exp(n * dim)``,
        ``M = n``, ``T = 1000``, ``eta_t = 1 / sqrt(t)``."""
        return cls(**{"beta_log": float(n * dim), "n_particles": n, **overrides})

    @property
    def inv_beta(self) -> float:
        return 0.0 if math.isinf(self.beta_log) else math.exp(-self.beta_log)


class GradEstimate(NamedTuple):
    g_m: np.ndarray
    g_s: np.ndarray


# Upper bound on one block's workspace in :func:`fit_batched`: small enough to
# stay in a core's L2 cache across the passes of a step.
BLOCK_BYTES = 1 << 20
# Upper bound on the (path row, data point) pairs of one block of the trace
# objective in :func:`fit`; bounds the uniform model's erfc object arrays.
TRACE_BLOCK_PAIRS = 4096
# Largest ``4a / gamma2 * max_k |p_k|`` (particle offsets ``p_k``) for which
# the uniform kernel folds the far edge into its reduction: the factors
# ``exp(+-30)`` lie far inside float32's range.  See
# :func:`_uniform_closed_grad_stack`.
FOLD_BOUND = 30.0
# Taylor order J of the moment path: ``exp(2c v p)`` is summed to ``(2c v
# p)^J / J!``.  See :func:`_moment_grad_stack`.
MOMENT_ORDER = 4
# Per kernel dtype, the largest ``tau >= |2c v p|`` at which the moment path's
# truncation ``tau^(J+1) / (J+1)! e^tau`` stays below the unit roundoff: the
# root of ``tau^5 / 120 e^tau = u`` (0.0918158 for u = 2^-24, 0.00167793 for
# u = 2^-53), rounded down.
MOMENT_TAU = {np.dtype(np.float32): 0.091815, np.dtype(np.float64): 0.0016779}
# ``exp(-EXP_UNDERFLOW)`` is 0 in float64: a point with ``c v^2`` beyond it
# has kernel weight exactly 0.
EXP_UNDERFLOW = 745.2


def _workspace(kind: str, r: int, n: int, m_particles: int, dtype) -> np.ndarray:
    """Scratch for one stacked kernel call, n * M entries per dataset: (R, n,
    M) for the Gaussian model, (R, M, n) for the uniform model."""
    if kind == GAUSSIAN:
        return np.empty((r, n, m_particles), dtype)
    return np.empty((r, m_particles, n), dtype)


def _block_size(kind: str, n: int, m_particles: int, dtype) -> int:
    """Datasets per block of :func:`fit_batched`: as many as fit their
    :func:`_workspace` into ``BLOCK_BYTES``, and at least one."""
    return max(1, BLOCK_BYTES // _workspace(kind, 1, n, m_particles, dtype).nbytes)


def _lift(a: np.ndarray) -> np.ndarray:
    """The (R, k, d+2) left operand ``[a, 1, |a|^2]`` of a lifted squared
    distance; ``a`` is (R, k, d)."""
    d = a.shape[2]
    out = np.empty(a.shape[:2] + (d + 2,), a.dtype)
    out[..., :d] = a
    out[..., d] = 1.0
    np.einsum("rkd,rkd->rk", a, a, out=out[..., d + 1])
    return out


def _right(b: np.ndarray, c: float) -> np.ndarray:
    """The (R, d+2, k) right operand ``[2c b; -c |b|^2; -c]`` of a lifted
    squared distance; ``b`` is (R, k, d).

    ``np.matmul(_lift(a), _right(b, c))`` is ``-c |a_i - b_j|^2`` for every
    pair, expanded as ``2c a.b - c|b|^2 - c|a|^2``.  Each entry is within
    about ``(2d + 6) u c (|a| + |b|)^2`` of exact (``u`` the unit roundoff),
    so the callers centre both sides at ``m``.  It is finite when ``c <= 1/2``
    and every entry lies within ``+-sqrt(finfo.max / (4 d))``.
    """
    r, k, d = b.shape
    out = np.empty((r, d + 2, k), b.dtype)
    np.multiply(b.transpose(0, 2, 1), 2.0 * c, out=out[:, :d])
    np.einsum("rkd,rkd->rk", b, b, out=out[:, d])
    out[:, d] *= -c
    out[:, d + 1] = -c
    return out


def _gauss_closed_grad_stack(x: np.ndarray, particles: np.ndarray, z: np.ndarray, sigma2: float,
                             gamma2: float, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked closed-form data-term gradients for the Gaussian model.

    ``x`` is (R, n, d); ``particles`` and ``z`` are (R, M, d).  Returns
    float64 ``(g_m, g_s)`` of shape (R, d), the gradients of ``-(2/n) sum_i
    int E[k(X_i, X)] dq`` on the particle set.  Only ``x - particles``
    enters, so :func:`_grads` passes ``x - m`` and the offsets ``s * z``.

    ``work`` is the (R, n, M) buffer from :func:`_workspace`, never read on
    entry.  Three passes over it, at every ``d``: the exponent ``-|x_i -
    theta_k|^2 / a2`` as one :func:`_lift` @ :func:`_right` matmul, ``exp``
    in place, and one matmul ``e^T [x, 1]`` giving ``e^T x`` and the column
    sums together.
    """
    n, d = x.shape[1:]
    m_particles = particles.shape[1]
    a2 = 2.0 * sigma2 + gamma2
    c2 = (gamma2 / a2) ** (d / 2.0)
    left = _lift(x)
    np.matmul(left, _right(particles, 1.0 / a2), out=work)
    e = np.exp(work, out=work)  # (R, n, M), scaled by c2 at the end
    v = np.matmul(e.transpose(0, 2, 1), left[..., : d + 1])  # (R, M, d+1): e^T x, column sums
    per_particle = v[..., :d] - v[..., d:] * particles  # ~ grad wrt theta summed over i
    scale = -c2 * (2.0 / a2) * 2.0 / (n * m_particles)
    g_m = scale * per_particle.sum(axis=1, dtype=np.float64)
    g_s = scale * np.einsum("rmd,rmd->rd", per_particle, z, dtype=np.float64)
    return g_m, g_s


def _edge_sums(particles: np.ndarray, v: np.ndarray, c: float, weights: np.ndarray,
               work: np.ndarray) -> np.ndarray:
    """``exp(-c (p_k - v_i)^2)`` for every particle ``p_k`` and point ``v_i``
    of an (R, M) and an (R, n) stack, as one :func:`_lift` @ :func:`_right`
    matmul and ``exp`` in place in the (R, M, n) ``work``, reduced against the
    (R, n, j) or (n, j) ``weights``; returns (R, M, j)."""
    np.matmul(_lift(particles[:, :, None]), _right(v[:, :, None], c), out=work)
    return np.matmul(np.exp(work, out=work), weights)


def _folded_edge_sums(x: np.ndarray, particles: np.ndarray, gamma2: float, half_width: float,
                      work: np.ndarray) -> np.ndarray:
    """The (R, M) ``sum_i K(p_k + a - u_i) - K(p_k - a - u_i)`` of
    :func:`_uniform_closed_grad_stack` with one ``exp`` per pair, for
    datasets whose ``4a / gamma2 * max_k |p_k|`` is at most ``FOLD_BOUND``.

    With ``sigma_i = sign(u_i)`` and ``v_i = u_i - a sigma_i`` (``|v_i| <=
    max(|u_i|, a)``), :func:`_edge_sums` gives ``b_ik``, the kernel at point
    ``i``'s nearer edge.  The far edge is ``b_ik exp(+-k4 p_k) q_i`` with
    ``k4 = 4a / gamma2`` and ``q_i = exp(-k4 |u_i|) <= 1``, so one reduction
    against ``[sigma, q [sigma > 0], q [sigma < 0]]`` gives both; the factors
    ``exp(+-k4 p_k)`` stay below ``exp(FOLD_BOUND)``.
    """
    k4 = 4.0 * half_width / gamma2
    sign = np.copysign(np.ones_like(x), x)
    q = np.exp(-k4 * np.abs(x))
    weights = np.empty(x.shape + (3,), x.dtype)
    weights[..., 0] = sign
    np.multiply(q, sign > 0, out=weights[..., 1])
    np.subtract(q, weights[..., 1], out=weights[..., 2])
    sums = _edge_sums(particles, x - half_width * sign, 1.0 / gamma2, weights, work)
    kp = k4 * particles
    return sums[..., 0] - np.exp(kp) * sums[..., 1] + np.exp(-kp) * sums[..., 2]


def _uniform_closed_grad_stack(x: np.ndarray, particles: np.ndarray, z: np.ndarray, gamma2: float,
                               half_width: float, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked closed-form data-term gradients for the 1-D uniform model.

    ``x`` is (R, n); ``particles`` and ``z`` are (R, M), centred as in
    :func:`_gauss_closed_grad_stack`: the points ``u_i`` and the offsets
    ``p_k``.  Uses the endpoint kernel differences ``K(p_k + a - u_i) -
    K(p_k - a - u_i)`` normalised by the uniform density
    ``1/(2a)``.  Returns float64 (R, 1) gradients.  ``work`` is the (R, M, n)
    buffer from :func:`_workspace`, never read on entry.

    A dataset with ``4a / gamma2 * max_k |p_k|`` at most ``FOLD_BOUND`` takes
    one ``exp`` per pair (:func:`_folded_edge_sums`); a wider one takes both
    edges' ``exp``, each reduced against a ones column.  The choice is made
    per dataset, so a dataset's result does not depend on the others in its
    stack.
    """
    n = x.shape[1]
    m_particles = particles.shape[1]
    is_wide = 4.0 * half_width / gamma2 * np.abs(particles).max(axis=1) > FOLD_BOUND
    fold, wide = np.flatnonzero(~is_wide), np.flatnonzero(is_wide)
    per_particle = np.empty_like(particles)
    if fold.size:
        b = _rows(fold)
        per_particle[b] = _folded_edge_sums(x[b], particles[b], gamma2, half_width,
                                            work[: fold.size])
    if wide.size:
        b, ones = _rows(wide), np.ones((n, 1), x.dtype)
        upper = _edge_sums(particles[b], x[b] - half_width, 1.0 / gamma2, ones, work[: wide.size])
        lower = _edge_sums(particles[b], x[b] + half_width, 1.0 / gamma2, ones, work[: wide.size])
        per_particle[b] = upper[..., 0] - lower[..., 0]
    scale = -2.0 / (n * m_particles * 2.0 * half_width)
    g_m = scale * per_particle.sum(axis=1, dtype=np.float64)
    g_s = scale * np.einsum("rm,rm->r", per_particle, z, dtype=np.float64)
    return g_m[:, None], g_s[:, None]


def _moment_c(model: ModelSpec, gamma2: float) -> float:
    """The ``c`` of the d = 1 kernel ``exp(-c (v - p)^2)`` that the data term's
    gradient sums over (point, particle) pairs."""
    if model.kind == GAUSSIAN:
        return 1.0 / (2.0 * model.sigma2 + gamma2)
    return 1.0 / gamma2


def _collapsed(s: np.ndarray, z: np.ndarray, c: float, dtype) -> np.ndarray:
    """Which datasets of a d = 1 stack take :func:`_moment_grad_stack`.

    A dataset's points farther than ``sqrt(EXP_UNDERFLOW / c)`` from ``m``
    have kernel weight 0, so ``tau = 2c s max_k |z_k| sqrt(EXP_UNDERFLOW /
    c)`` bounds ``|2c v p|`` over every pair with weight.  The moment path is
    taken when ``tau <= MOMENT_TAU`` of the kernel dtype.  The rule reads only
    the dataset's own ``s`` (R, 1) and draws ``z`` (R, M, 1), not its data.
    """
    reach = 2.0 * math.sqrt(EXP_UNDERFLOW * c)
    return s[:, 0] * np.abs(z[:, :, 0]).max(axis=1) <= MOMENT_TAU[np.dtype(dtype)] / reach


def _moment_shape(kind: str, r: int, n: int, m_particles: int) -> tuple[int, int, int]:
    """The float64 scratch of :func:`_moment_grad_stack`: a row of points and
    offsets, then one row per power, each holding ``edges * n + M`` entries
    for each of ``r`` datasets (one edge for the Gaussian model, two for the
    uniform one)."""
    if kind == GAUSSIAN:
        return MOMENT_ORDER + 3, r, n + m_particles
    return MOMENT_ORDER + 2, r, 2 * n + m_particles


@functools.lru_cache(maxsize=8)
def _taylor_form(kind: str, c: float) -> np.ndarray:
    """The (rows, rows) bilinear form ``C`` of :func:`_moment_grad_stack`,
    ``sum_k per_particle_k = S^T C Q``, from ``a_j = (2c)^j / j!``."""
    a = np.array([(2.0 * c) ** j / math.factorial(j) for j in range(MOMENT_ORDER + 1)])
    j = np.arange(MOMENT_ORDER + 1)
    if kind == GAUSSIAN:  # sum_j a_j (S_{j+1} Q_j - S_j Q_{j+1})
        form = np.zeros((MOMENT_ORDER + 2,) * 2)
        form[j + 1, j] = a
        form[j, j + 1] = -a
    else:  # sum_j a_j T_j Q_j
        form = np.diag(a)
    form.setflags(write=False)
    return form


def _moment_grad_stack(x: np.ndarray, particles: np.ndarray, z: np.ndarray, model: ModelSpec,
                       gamma2: float, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The data-term gradients of :func:`_gauss_closed_grad_stack` (d = 1) or
    :func:`_uniform_closed_grad_stack` for collapsed particle clouds, from
    weighted moments.

    ``x`` is the (R, n) stack of centred points ``u_i``, ``particles`` and
    ``z`` the (R, M) offsets ``p_k`` and draws, all float64; returns float64
    (R, 1) ``(g_m, g_s)``.  Both kernels sum ``exp(-c (v_i - p_k)^2) =
    e^{-c v_i^2} e^{-c p_k^2} exp(2c v_i p_k)`` over pairs, with ``v_i =
    u_i`` (Gaussian, ``c = 1 / (2 sigma2 + gamma2)``) or the two edges ``v_i
    = u_i -+ a`` (uniform, ``c = 1 / gamma2``).  ``exp(2c v p)`` is replaced
    by its Taylor sum to order ``J = MOMENT_ORDER``, so with the point moments
    ``S_j = sum_i e^{-c v_i^2} v_i^j`` (uniform: ``T_j = S+_j - S-_j``) and
    the particle moments ``Q_j = sum_k e^{-c p_k^2} p_k^j`` (and ``Q^z_j``,
    weighted by ``z_k``), ``sum_k per_particle_k`` is ``sum_j (2c)^j / j!
    (S_{j+1} Q_j - S_j Q_{j+1})`` (Gaussian) or ``sum_j (2c)^j / j! T_j Q_j``
    (uniform).  That is O((n + M) J) work and one ``exp`` per point, edge and
    particle.  The truncation is below the kernel dtype's rounding where
    :func:`_collapsed` selects the path.

    Points beyond ``sqrt(EXP_UNDERFLOW / c)`` are clipped to it, where their
    weight is exactly 0, before any power is taken.  The powers go into
    ``work``'s memory when it holds :func:`_moment_shape`, else into a fresh
    buffer; ``work`` is never read on entry.  Every reduction is per dataset.
    """
    r, n = x.shape
    m_particles = particles.shape[1]
    c = _moment_c(model, gamma2)
    shape = _moment_shape(model.kind, r, n, m_particles)
    need = math.prod(shape) * 8
    if work.nbytes >= need:
        buf = work.reshape(-1).view(np.uint8)[:need].view(np.float64).reshape(shape)
    else:
        buf = np.empty(shape)
    base, powers = buf[0], buf[1:]
    points = shape[2] - m_particles
    if model.kind == GAUSSIAN:
        base[:, :n] = x
    else:
        np.subtract(x, model.half_width, out=base[:, :n])
        np.add(x, model.half_width, out=base[:, n:points])
    reach = math.sqrt(EXP_UNDERFLOW / c)
    np.clip(base[:, :points], -reach, reach, out=base[:, :points])
    base[:, points:] = particles
    np.square(base, out=powers[0])
    powers[0] *= -c
    np.exp(powers[0], out=powers[0])
    for j in range(1, len(powers)):
        np.multiply(powers[j - 1], base, out=powers[j])
    edges = powers[..., :points].reshape(len(powers), r, points // n, n).sum(axis=-1)
    moments = edges[..., 0] if model.kind == GAUSSIAN else edges[..., 0] - edges[..., 1]
    clouds = powers[..., points:]
    weighted = np.concatenate(  # (R, rows, 2): Q_j and Q^z_j
        (clouds.sum(axis=-1).T[..., None], np.matmul(clouds.transpose(1, 0, 2), z[:, :, None])),
        axis=-1)
    g = np.matmul(np.matmul(moments.T[:, None, :], _taylor_form(model.kind, c)), weighted)[:, 0]
    if model.kind == GAUSSIAN:
        a2 = 1.0 / c
        scale = -math.sqrt(gamma2 / a2) * (2.0 / a2) * 2.0 / (n * m_particles)
    else:
        scale = -2.0 / (n * m_particles * 2.0 * model.half_width)
    return scale * g[:, :1], scale * g[:, 1:]


def _n_particles(model: ModelSpec, config: FitConfig, n: int) -> int:
    """``M`` for data of ``n`` points; rejects the uniform model beyond d=1,
    which has no closed-form gradient here."""
    if model.kind == UNIFORM and model.dim != 1:
        raise ValueError("closed-form uniform gradients support dim=1 only")
    m_particles = config.n_particles if config.n_particles is not None else n
    if m_particles < 2:
        raise ValueError("need at least 2 particles")
    return m_particles


def _check_stack(x: np.ndarray, model: ModelSpec) -> None:
    """Reject an (R, n, d) data stack that is empty, has another dimension
    than ``model``, or holds a non-finite row.  The row is named with its
    dataset when ``R > 1``."""
    r, n, d = x.shape
    if r * n == 0:
        raise ValueError("data must be non-empty")
    if d != model.dim:
        raise ValueError(f"data has dimension {d}, model has dim {model.dim}")
    bad = np.argwhere(~np.isfinite(x).all(axis=2))
    if bad.size:
        where = f"dataset {bad[0, 0]}, " if r > 1 else ""
        raise ValueError(f"{where}data row {bad[0, 1]} is not finite")


def _check_q_data(q: MeanFieldGaussian, data: np.ndarray, model: ModelSpec) -> np.ndarray:
    """``data`` as (n, d) points, checked as :func:`_check_stack` checks a
    stack, for a ``q`` whose dimension must be the model's."""
    data = _as_points(data, "data")
    _check_stack(data[None], model)
    if q.dim != model.dim:
        raise ValueError(f"q has dimension {q.dim}, model has dim {model.dim}")
    return data


def _rows(index: np.ndarray) -> np.ndarray | slice:
    """A sorted index array as a slice when it is a run, so that indexing
    with it copies nothing."""
    if index[-1] - index[0] == index.size - 1:
        return slice(index[0], index[-1] + 1)
    return index


def _grads(x, m, s, model, kernel, config, rngs, work, z, g_m, g_s) -> None:
    """One stochastic gradient of the objective per dataset of a float64
    (R, n, d) stack ``x``, written into the rows of the float64 (R, d)
    ``g_m`` and ``g_s``.  Each dataset draws its particles' normals from its
    own generator into its row of the float64 (R, M, d) ``z``.

    At d = 1, the datasets whose particle cloud has collapsed (see
    :func:`_collapsed`) take :func:`_moment_grad_stack`, in float64, as many
    at a time as its powers fit into ``work``'s memory.  The rest take the
    closed-form kernels, in the dtype of ``work`` (from :func:`_workspace`), a
    block of as many datasets as it holds at a time.  No reduction crosses
    datasets, and the choice reads only a dataset's own ``s`` and draws, so
    neither blocking nor the rest of the stack changes a result.  Each block
    is centred in float64 before the cast: the kernels see ``x - m``, clipped
    to ``+-sqrt(finfo(dtype).max / (4 d))``, and the offsets ``s * z``, so
    the lifted exponent (see :func:`_right`) loses no location digits, and a
    clipped row gets a kernel weight of exactly 0, its exponent no NaN.  The
    regulariser gradients ``m / beta`` and ``(s - 1/s) / beta`` are added
    last.
    """
    r, n, d = x.shape
    for rng, z_row in zip(rngs, z):
        rng.standard_normal(out=z_row)
    direct = np.arange(r)
    if d == 1:
        collapsed = _collapsed(s, z, _moment_c(model, kernel.gamma2), work.dtype)
        if collapsed.any():
            taylor, direct = direct[collapsed], direct[~collapsed]
            per = math.prod(_moment_shape(model.kind, 1, n, z.shape[1])) * 8
            chunk = max(1, work.nbytes // per)
            for lo in range(0, taylor.size, chunk):
                b = _rows(taylor[lo:lo + chunk])
                zb = z[b, :, 0]
                g_m[b], g_s[b] = _moment_grad_stack(x[b, :, 0] - m[b], s[b] * zb, zb, model,
                                                    kernel.gamma2, work)
    big = math.sqrt(float(np.finfo(work.dtype).max) / (4 * d))
    for lo in range(0, direct.size, len(work)):
        rows = direct[lo:lo + len(work)]
        b, k = _rows(rows), rows.size
        xc = np.clip(x[b] - m[b, None, :], -big, big).astype(work.dtype, copy=False)
        offsets = (s[b, None, :] * z[b]).astype(work.dtype, copy=False)
        zb = z[b].astype(work.dtype, copy=False)
        if model.kind == GAUSSIAN:
            g_m[b], g_s[b] = _gauss_closed_grad_stack(
                xc, offsets, zb, model.sigma2, kernel.gamma2, work[:k]
            )
        else:
            g_m[b], g_s[b] = _uniform_closed_grad_stack(
                xc[..., 0], offsets[..., 0], zb[..., 0], kernel.gamma2,
                model.half_width, work[:k],
            )
    inv_beta = config.inv_beta
    if inv_beta != 0.0:
        g_m += inv_beta * m
        g_s += inv_beta * (s - 1.0 / s)


def grad_estimate(
    q: MeanFieldGaussian,
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    config: FitConfig,
    rng: np.random.Generator,
) -> GradEstimate:
    """One stochastic gradient of the variational objective at ``q``.

    Draws ``M = config.n_particles`` (default: the sample size) standard
    normal particles, differentiates the kernel expectations exactly at each,
    and adds the regulariser gradients.  Consumes the generator; call with a
    fresh seeded generator for reproducible draws.  This is one step's gradient of the
    loop :func:`fit_batched`, with a workspace of its own.  Data that
    :func:`fit` would reject raise the same ``ValueError``.
    """
    x = _check_q_data(q, data, model)[None]
    _, n, d = x.shape
    m_particles = _n_particles(model, config, n)
    work = _workspace(model.kind, 1, n, m_particles, np.float64)
    z, g_m, g_s = np.empty((1, m_particles, d)), np.empty((1, d)), np.empty((1, d))
    _grads(x, q.m[None], q.s[None], model, kernel, config, [rng], work, z, g_m, g_s)
    return GradEstimate(g_m[0], g_s[0])


def objective_exact(
    q: MeanFieldGaussian,
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    beta_log: float = math.inf,
) -> float:
    """Exact value of the variational objective, with no particles drawn.

    The particle average of the cross term has a closed form for both models.
    Gaussian model: integrating the embedding cross term over ``theta ~ N(m,
    diag(s^2))`` merely widens each coordinate variance by ``2 s_j^2``.  1-D
    uniform model: the point expectation is a difference of ``erf((theta + c)
    / gamma)`` terms, and ``E erf((theta + c) / gamma) = erf((m + c) / w)``
    with ``w^2 = gamma2 + 2 s^2``, so the average is ``gamma / w`` times the
    point expectation at ``m`` under the kernel of bandwidth ``w^2``.  This is
    the reference the stochastic gradient is finite-difference checked
    against.  Data that :func:`fit` would reject raise the same ``ValueError``.
    """
    data = _check_q_data(q, data, model)
    inv_beta = 0.0 if math.isinf(beta_log) else math.exp(-beta_log)
    dterm = data_kernel_term(kernel, data)
    if model.kind == GAUSSIAN:
        a4 = 4.0 * model.sigma2 + kernel.gamma2
        pair = (kernel.gamma2 / a4) ** (model.dim / 2.0)
        a2 = 2.0 * model.sigma2 + kernel.gamma2
        widened = a2 + 2.0 * q.s**2  # (d,)
        diff = data - q.m[None, :]
        cross_each = np.prod(
            np.sqrt(kernel.gamma2 / widened)[None, :] * np.exp(-(diff**2) / widened[None, :]),
            axis=1,
        )
        cross = float(cross_each.mean())
    else:
        if model.dim != 1:
            raise ValueError("objective_exact supports the uniform model in dimension 1 only")
        pair = uniform_pair_expectation(kernel, model)
        widened = GaussianKernel(kernel.gamma2 + 2.0 * q.s[0] ** 2)
        point = uniform_point_expectation(widened, model, q.m, data)
        cross = math.sqrt(kernel.gamma2 / widened.gamma2) * float(np.mean(point))
    value = pair - 2.0 * cross + dterm
    return value + inv_beta * kl_to_standard_prior(q)


@dataclass
class FitTrace:
    """Per-step history of the fit: row ``t`` is the state after ``t`` updates.

    ``objective[t]`` is a cheap deterministic diagnostic: the plug-in
    objective at the current mean, ``MMD^2(P_{m_t}, P_hat_n) + KL(q_t)/beta``
    (not the particle-averaged objective, which would cost a full extra
    gradient per step).  :func:`fit` fills it once the loop is done, for the
    whole path at once.  ``grad_norm_*[t]`` are the norms of the stochastic
    gradient applied at step ``t``; row 0 holds NaN there.
    """

    t: np.ndarray
    m: np.ndarray
    s: np.ndarray
    objective: np.ndarray
    grad_norm_m: np.ndarray
    grad_norm_s: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class FitResult:
    q: MeanFieldGaussian
    trace: FitTrace


def fit_batched(
    data_stack: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    config: FitConfig,
    rngs: list[np.random.Generator],
    dtype=np.float64,
    *,
    record=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The projected SGD loop: independent fits of a stack of datasets.

    ``data_stack`` is (R, n, d) with one generator per dataset; returns the
    final (R, d) ``(m, s)``.  Each fit starts at its dataset's componentwise
    median with ``s = 1``, both projected into the boxes.  Particle draws
    come from each dataset's own stream, so every fit is identical to running
    it alone, while the kernel arithmetic is batched across the stack
    (optionally in float32: rounding there is orders of magnitude below the
    Monte Carlo noise of the gradient).  Empty data, a dimension other than
    the model's and non-finite rows raise ``ValueError``, as does a
    ``dtype`` other than float32 and float64.

    The data stay in float64; each step centres them at ``m`` before the
    cast, so a float32 fit moves with a shift of the data to ~1e-10 even at
    shifts of 1e5, and far outliers are clipped (see :func:`_grads`).  Each
    step walks the stack in blocks of as many datasets as fit their
    :func:`_workspace` into ``BLOCK_BYTES`` (1 MiB), so the one block-sized
    workspace and the (R, M, d) draw buffer, allocated once per call and
    overwritten every step, stay in a core's L2 cache.  No reduction crosses
    datasets, so blocking changes no result.  At d = 1, a dataset whose ``s``
    has collapsed (at the benchmark ``beta``, ``s`` runs to its floor) takes
    its step's gradient from O(n + M) weighted moments in float64 instead
    (:func:`_moment_grad_stack`), with a truncation below the rounding of
    ``dtype``.

    ``record(t, m, s, g_m, g_s)``, if given, sees the (R, d) state after
    ``t`` updates and the gradient applied at step ``t`` (``None`` at t=0);
    :func:`fit` stores its trace this way.  One ``RuntimeWarning`` counts the
    projections (the start's included) that moved ``m``, naming the first
    dataset so clamped in a stack.
    """
    if np.dtype(dtype) not in MOMENT_TAU:
        raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
    x = np.asarray(data_stack, dtype=float)
    _check_stack(x, model)
    r, n, d = x.shape
    if len(rngs) != r:
        raise ValueError("need one generator per dataset")
    m_particles = _n_particles(model, config, n)
    m_lo, m_hi = config.m_bounds
    start = np.median(x, axis=1)
    m = np.clip(start, m_lo, m_hi)
    clamps = (m != start).any(axis=1).astype(int)
    s = np.clip(np.ones((r, d)), *config.s_bounds)

    block = _block_size(model.kind, n, m_particles, dtype)
    work = _workspace(model.kind, min(block, r), n, m_particles, dtype)
    z, g_m, g_s = np.empty((r, m_particles, d)), np.empty((r, d)), np.empty((r, d))
    if record is not None:
        record(0, m, s, None, None)

    for t in range(1, config.n_steps + 1):
        _grads(x, m, s, model, kernel, config, rngs, work, z, g_m, g_s)
        eta = config.step_scale / math.sqrt(t)
        step = m - eta * g_m
        m = np.clip(step, m_lo, m_hi)
        clamps += (m != step).any(axis=1)
        s = np.clip(s - eta * g_s, *config.s_bounds)
        if record is not None:
            record(t, m, s, g_m, g_s)
    hit = np.flatnonzero(clamps)
    if hit.size:
        where = f"in {hit.size} of {r} datasets, first dataset {hit[0]} " if r > 1 else ""
        warnings.warn(
            f"m_bounds {config.m_bounds} clamped m {where}on {clamps[hit[0]]} of "
            f"{config.n_steps + 1} projections (the start's included); "
            "the estimate may sit on the box edge",
            RuntimeWarning,
            stacklevel=2,
        )
    return m, s


def fit(
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel | None = None,
    config: FitConfig | None = None,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Run the projected stochastic gradient fit and return the final
    variational Gaussian plus the full trace.

    Defaults: dimension-matched kernel bandwidth, and a generator seeded with
    ``DEFAULT_SEED``.  ``m`` starts at the componentwise median of the data
    (a cheap robust start) and ``s`` at one.  With the same data, config and
    generator seed the trace is reproduced bit for bit.

    The loop is :func:`fit_batched` on a float64 stack of this one dataset,
    with a recorder storing each step's ``m``, ``s`` and gradient norms.  The
    trace objective is then computed over the whole path, in blocks of at
    most ``TRACE_BLOCK_PAIRS`` (row, data point) pairs: the data term once per
    fit and the location-free pair term once per block, not once per step.
    A ``RuntimeWarning`` says when the m-box clamped ``m``.
    """
    data = _as_points(data, "data")
    d = data.shape[1]
    kernel = kernel or GaussianKernel.default_for_dim(d)
    config = config or FitConfig()
    rng = rng or np.random.default_rng(DEFAULT_SEED)

    rows = config.n_steps + 1
    trace = FitTrace(t=np.arange(rows), m=np.empty((rows, d)), s=np.empty((rows, d)),
                     objective=np.empty(rows), grad_norm_m=np.full(rows, math.nan),
                     grad_norm_s=np.full(rows, math.nan))

    def record(t, m, s, g_m, g_s):
        trace.m[t], trace.s[t] = m[0], s[0]
        if g_m is not None:
            trace.grad_norm_m[t] = float(np.linalg.norm(g_m[0]))
            trace.grad_norm_s[t] = float(np.linalg.norm(g_s[0]))

    m, s = fit_batched(data[None], model, kernel, config, [rng], record=record)
    dterm = data_kernel_term(kernel, data)
    block = max(1, TRACE_BLOCK_PAIRS // data.shape[0])
    for lo in range(0, rows, block):
        b = slice(lo, lo + block)
        mmd2 = mmd2_model_vs_empirical(kernel, model, trace.m[b], data, data_term=dterm)
        trace.objective[b] = mmd2 + config.inv_beta * _kl_rows(trace.m[b], trace.s[b])
    return FitResult(q=MeanFieldGaussian(m=m[0], s=s[0]), trace=trace)
