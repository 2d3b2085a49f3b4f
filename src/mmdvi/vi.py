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

The one gradient estimator is reparameterised: it draws particles ``theta_k =
m + s * z_k`` and differentiates the kernel expectation ``E_{X ~
P_theta}[k(X_i, X)]`` exactly in ``theta`` at each (Gaussian model: the
embedding closed form; uniform model: endpoint kernel differences).  It needs
no synthetic sample and is unbiased.  For both models it reduces one kernel
matrix ``exp(-c |v_i - p_k|^2)``, between points centred at ``m`` and particle
offsets ``s * z_k``, against model weights (:func:`_data_grads`), by one of
two evaluators: directly in O(n M), or at d = 1, once a fit's particle cloud
has collapsed (at the benchmark ``beta``, ``s`` runs to its floor), through a
rank-(J+1) Taylor factorisation in O(n + M) whose truncation is below the
kernel dtype's rounding.  :func:`objective_exact` integrates the particles out
in closed form for both models; it is the reference the gradient is
finite-difference checked against.
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
from .models import (GAUSSIAN, UNIFORM, ModelSpec, _check_int, uniform_pair_expectation,
                     uniform_point_expectation)

DEFAULT_SEED = 12345
DEFAULT_M_BOUNDS = (-1e6, 1e6)
DEFAULT_S_BOUNDS = (1e-6, 1e3)
_MIN_BETA_LOG = -math.log(np.finfo(float).max)  # about -709.78


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
    exactly zero (``1/beta = exp(-beta_log)`` underflows).  A ``beta_log`` whose
    ``1/beta`` is no finite float (NaN, ``-inf``, below about -709.78) is
    rejected.  ``n_particles``
    defaults to the sample size at fit time, mirroring the benchmark setting.
    """

    beta_log: float = math.inf
    n_particles: int | None = None
    n_steps: int = 1000
    step_scale: float = 1.0
    m_bounds: tuple[float, float] = DEFAULT_M_BOUNDS
    s_bounds: tuple[float, float] = DEFAULT_S_BOUNDS

    def __post_init__(self) -> None:
        if not self.beta_log >= _MIN_BETA_LOG:  # NaN, -inf, or 1/beta past the largest float
            raise ValueError(f"beta_log must be inf or >= {_MIN_BETA_LOG:.2f}, got {self.beta_log}")
        if self.n_particles is not None:
            _check_int("n_particles", self.n_particles, 2)
        _check_int("n_steps", self.n_steps, 1)
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
# the uniform model folds the far edge into the reduction: the factors
# ``exp(+-30)`` lie far inside float32's range.  See :func:`_data_grads`.
FOLD_BOUND = 30.0
# Taylor order J of the moment evaluator: ``exp(2c v p)`` is summed to ``(2c
# v p)^J / J!``.  See :func:`_moment_sums`.
MOMENT_ORDER = 4
# Per kernel dtype, the largest ``tau >= |2c v p|`` at which the moment
# evaluator's truncation ``tau^(J+1) / (J+1)! e^tau`` stays below the unit
# roundoff: the root of ``tau^5 / 120 e^tau = u`` (0.0918158 for u = 2^-24,
# 0.00167793 for u = 2^-53), rounded down.
MOMENT_TAU = {np.dtype(np.float32): 0.091815, np.dtype(np.float64): 0.0016779}
# ``exp(-EXP_UNDERFLOW)`` is 0 in float64: a point with ``c v^2`` beyond it
# has kernel weight exactly 0.
EXP_UNDERFLOW = 745.2


def _block_size(n: int, m_particles: int, dtype) -> int:
    """Datasets per block of :func:`fit_batched`: as many as fit their (n, M)
    kernel matrix into ``BLOCK_BYTES``, and at least one."""
    return max(1, BLOCK_BYTES // (n * m_particles * np.dtype(dtype).itemsize))


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


def _kernel_sums(points: np.ndarray, weights: np.ndarray | None, particles: np.ndarray, c: float,
                 work: np.ndarray, particle_rows: bool) -> np.ndarray:
    """``E^T W`` for the kernel matrix ``E_ik = exp(-c |v_i - p_k|^2)`` of
    (R, n, d) ``points`` and (R, M, d) ``particles``, against (R, n, A) or (n,
    A) point ``weights`` (``None``: ``[v, 1]``); returns (R, M, A).  ``E`` is
    one :func:`_lift` @ :func:`_right` matmul and an in-place ``exp`` in
    ``work`` (R (n, M) blocks or more, never read on entry), with points or
    (``particle_rows``) particles as rows.  Float32 pays for subnormal
    ``exp`` outputs per vector op that meets one, so they cost least filling
    whole rows: far points do in point rows, a wide cloud's far particles in
    particle rows.
    """
    e = work[: len(points)]
    if particle_rows:
        e = e.reshape(len(points), particles.shape[1], points.shape[1])
        np.matmul(_lift(particles), _right(points, c), out=e)
    else:
        left = _lift(points)
        weights = left[..., :-1] if weights is None else weights
        e = np.matmul(left, _right(particles, c), out=e).transpose(0, 2, 1)
    return np.matmul(np.exp(e, out=e), weights)


def _direct_sums(slabs, particles, factors, z, c, work):
    """The kernel sums ``sum_k f_k [1, z_k]``, two (R, d) arrays, in the
    inputs' dtype with float64 reductions over particles: the ``slabs``'
    (points and weights) :func:`_kernel_sums` add up to ``V`` (R, M, A), and
    ``f = V[..., :d] - sum_t V[..., d + t] factors[t]``.  Only the uniform
    model's two edges have no factors; they come here for wide clouds only,
    so they take particle rows.
    """
    d = particles.shape[2]
    v = _kernel_sums(*slabs[0], particles, c, work, not factors)
    for points, weights in slabs[1:]:
        v += _kernel_sums(points, weights, particles, c, work, not factors)
    per_particle = v[..., :d]
    for t, factor in enumerate(factors):
        per_particle = per_particle - v[..., d + t : d + t + 1] * factor
    return (per_particle.sum(axis=1, dtype=np.float64),
            np.einsum("rmd,rmd->rd", per_particle, z, dtype=np.float64))


@functools.lru_cache(maxsize=8)
def _taylor_coefficients(c: float) -> np.ndarray:
    """The read-only (J+1, 1) column ``(2c)^j / j!``, ``j = 0 .. MOMENT_ORDER``."""
    a = np.array([[(2.0 * c) ** j / math.factorial(j)] for j in range(MOMENT_ORDER + 1)])
    a.setflags(write=False)
    return a


def _moment_sums(slabs, particles, factors, z, c, work):
    """The sums of :func:`_direct_sums` at d = 1 in float64, from the
    truncated fast Gauss transform (Greengard and Strain, 1991): ``exp(-c (v
    - p)^2) = sum_j [(2c)^j / j! p^j e^{-c p^2}] [v^j e^{-c v^2}]`` to ``j =
    J = MOMENT_ORDER``, a rank-(J+1) factorisation of the kernel matrix.  The
    point moments ``S_ja = sum_i W_ia v_i^j e^{-c v_i^2}`` and the particle
    moments ``Q_jab = sum_k p_k^j e^{-c p_k^2} phi_ka [1, z_k]_b``, ``phi =
    [1, -factors]``, are matmuls per dataset, then ``sum_ja (2c)^j / j! S_ja
    Q_jab``: O((n + M) J) work.  The truncation is below the kernel dtype's
    rounding where :func:`_collapsed` selects it.  Points beyond
    ``sqrt(EXP_UNDERFLOW / c)``, of weight exactly 0, are clipped to it
    before any power is taken; ``None`` weights are ``[v, 1]`` of the clipped
    points.  The (J + 2) (points + M) float64 entries per dataset go into
    ``work``'s memory when it holds them; it is never read on entry.
    """
    r, m_particles = particles.shape[:2]
    points = sum(v.shape[1] for v, _ in slabs)
    shape = (MOMENT_ORDER + 2, r, points + m_particles)
    fits = work.nbytes >= math.prod(shape) * 8
    buf = np.ndarray(shape, buffer=work) if fits else np.empty(shape)
    base, powers = buf[0], buf[1:]
    np.concatenate([v[..., 0] for v, _ in slabs] + [particles[..., 0]], axis=1, out=base)
    reach = math.sqrt(EXP_UNDERFLOW / c)
    base[:, :points].clip(-reach, reach, out=base[:, :points])
    np.square(base, out=powers[0])
    powers[0] *= -c
    np.exp(powers[0], out=powers[0])
    for j in range(1, len(powers)):
        np.multiply(powers[j - 1], base, out=powers[j])
    weights = slabs[0][1]
    if weights is None:
        weights = np.ones((r, 2, points))
        weights[:, 0] = base[:, :points]
        weights = weights.transpose(0, 2, 1)
    elif len(slabs) > 1:
        weights = np.concatenate([w for _, w in slabs], axis=-2)
    moments = np.matmul(powers[..., :points].transpose(1, 0, 2), weights)
    moments *= _taylor_coefficients(c)
    cols = np.empty((len(factors) + 1, 2, r, m_particles))  # phi_ka [1, z_k]_b
    cols[0, 0], cols[0, 1] = 1.0, z[..., 0]
    for t, factor in enumerate(factors):
        np.negative(factor[..., 0], out=cols[t + 1, 0])
        np.multiply(cols[t + 1, 0], z[..., 0], out=cols[t + 1, 1])
    clouds = np.matmul(powers[..., points:].transpose(1, 0, 2),
                       cols.reshape(-1, r, m_particles).transpose(1, 2, 0))
    g = np.matmul(moments.reshape(r, 1, -1), clouds.reshape(r, -1, 2))[:, 0]
    return g[:, :1], g[:, 1:]


def _kernel_c(model: ModelSpec, gamma2: float) -> float:
    """The ``c`` of the kernel ``exp(-c |v - p|^2)`` that both models'
    data-term gradients sum over (point, particle) pairs."""
    if model.kind == GAUSSIAN:
        return 1.0 / (2.0 * model.sigma2 + gamma2)
    return 1.0 / gamma2


def _collapsed(spread: np.ndarray, c: float, dtype) -> np.ndarray:
    """Which datasets of a d = 1 stack take :func:`_moment_sums`: those with
    ``tau = 2c s max_k |z_k| sqrt(EXP_UNDERFLOW / c) <= MOMENT_TAU`` of the
    kernel dtype.  Points farther than ``sqrt(EXP_UNDERFLOW / c)`` from ``m``
    have kernel weight 0, so ``tau`` bounds ``|2c v p|`` over every pair with
    weight.  The rule reads only the (R,) cloud spreads ``s max_k |z_k|``.
    """
    reach = 2.0 * math.sqrt(EXP_UNDERFLOW * c)
    return spread <= MOMENT_TAU[np.dtype(dtype)] / reach


def _data_grads(model: ModelSpec, gamma2: float, u: np.ndarray, p: np.ndarray, z: np.ndarray,
                evaluate, work: np.ndarray, fold: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The data-term gradients ``(g_m, g_s)``, (R, d) float64, of ``-(2/n)
    sum_i int E[k(X_i, X)] dq`` on the particles, for (R, n, d) points ``u``
    centred at ``m``, (R, M, d) offsets ``p = s * z`` and draws ``z``, by
    ``evaluate`` (:func:`_direct_sums` or :func:`_moment_sums`).  Both models
    sum ``e_ik = exp(-c |v_i - p_k|^2)`` (:func:`_kernel_c`).  Gaussian: ``v
    = u``, weights ``[u, 1]``, factor ``p``: ``f_k = sum_i e_ik (u_i - p_k)``.
    Uniform (d = 1): the endpoint differences ``K(p_k + a - u_i) - K(p_k - a
    - u_i)`` times the density ``1/(2a)``, both edges ``v = u -+ a`` with
    weights ``+-1``; or, with ``fold`` (for ``4a / gamma2 * max_k |p_k| <=
    FOLD_BOUND``), the nearer edge ``v = u - a sign(u)`` alone: the far one
    is ``e_ik exp(+-k4 p_k) q_i``, ``k4 = 4a / gamma2``, ``q_i = exp(-k4
    |u_i|) <= 1``, so weights ``[sign, q [sign > 0], -q [sign < 0]]`` and
    factors ``exp(+-k4 p)`` give both edges from one ``exp`` per pair.
    """
    (n, d), m_particles = u.shape[1:], p.shape[1]
    if model.kind == GAUSSIAN:
        a2 = 2.0 * model.sigma2 + gamma2
        scale = -((gamma2 / a2) ** (d / 2.0)) * (2.0 / a2) * 2.0 / (n * m_particles)
        slabs, factors = [(u, None)], [p]
    else:
        a = model.half_width
        scale = -2.0 / (n * m_particles * 2.0 * a)
        if fold:
            k4 = 4.0 * a / gamma2
            sign = np.copysign(np.ones_like(u), u)
            q = np.exp(-k4 * np.abs(u))
            weights = np.concatenate((sign, q * (sign > 0), -q * (sign < 0)), axis=2)
            slabs, factors = [(u - a * sign, weights)], [np.exp(k4 * p), np.exp(-k4 * p)]
        else:
            ones = np.ones((n, 1), u.dtype)
            slabs, factors = [(u - a, ones), (u + a, -ones)], []
    g_m, g_s = evaluate(slabs, p, factors, z, _kernel_c(model, gamma2), work)
    return scale * g_m, scale * g_s


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

    At d = 1, datasets whose particle cloud has collapsed (:func:`_collapsed`)
    take :func:`_moment_sums` in float64, as many at a time as its powers of
    both uniform edges fit into ``work``'s memory; the rest take
    :func:`_direct_sums` in the dtype of the (B, n, M) ``work``, B at a time,
    uniform ones within ``FOLD_BOUND`` folded.  No reduction crosses datasets
    and each choice reads only the dataset's own ``s`` and draws, so neither
    blocking nor the rest of the stack changes a result.  The evaluators see
    ``x - m``, centred in float64 before the cast so the lifted exponent
    (:func:`_right`) loses no location digits, and on the direct path clipped
    to ``+-sqrt(finfo(dtype).max / (4 d))``, where a row gets kernel weight
    exactly 0 and no NaN.  Regulariser gradients are added last.
    """
    r, n, d = x.shape
    for rng, z_row in zip(rngs, z):
        rng.standard_normal(out=z_row)
    taylor = np.zeros(r, bool)
    if d == 1:
        spread = s[:, 0] * np.abs(z[:, :, 0]).max(axis=1)
        taylor = _collapsed(spread, _kernel_c(model, kernel.gamma2), work.dtype)
    wide, fold = ~taylor, np.zeros(r, bool)
    if model.kind == UNIFORM and wide.any():
        fold = wide & (4.0 * model.half_width / kernel.gamma2 * spread <= FOLD_BOUND)
        wide ^= fold
    chunk = max(1, work.nbytes // ((MOMENT_ORDER + 2) * (2 * n + z.shape[1]) * 8))
    big = math.sqrt(float(np.finfo(work.dtype).max) / (4 * d))
    for rows, evaluate, size, dtype, folded in (
            (taylor.nonzero()[0], _moment_sums, chunk, np.float64, False),
            (fold.nonzero()[0], _direct_sums, len(work), work.dtype, True),
            (wide.nonzero()[0], _direct_sums, len(work), work.dtype, False)):
        for lo in range(0, rows.size, size):
            b = _rows(rows[lo:lo + size])
            u = x[b] - m[b, None, :]
            if evaluate is _direct_sums:
                u.clip(-big, big, out=u)
            u = u.astype(dtype, copy=False)
            p = (s[b, None, :] * z[b]).astype(dtype, copy=False)
            g_m[b], g_s[b] = _data_grads(model, kernel.gamma2, u, p,
                                         z[b].astype(dtype, copy=False), evaluate, work, folded)
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
    work = np.empty((1, n, m_particles))
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
    inv_beta = FitConfig(beta_log=beta_log).inv_beta  # FitConfig's rule for beta_log
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
    step walks the stack in blocks of as many datasets as fit their (n, M)
    kernel matrices into ``BLOCK_BYTES`` (1 MiB), so the one workspace and
    the (R, M, d) draw buffer, allocated once per call, stay in a core's L2
    cache.  No reduction crosses datasets, so blocking changes no result.  At
    d = 1, a dataset whose ``s`` has collapsed takes its step's gradient from
    the O(n + M) :func:`_moment_sums` in float64 instead, with a truncation
    below the rounding of ``dtype``.

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

    work = np.empty((min(_block_size(n, m_particles, dtype), r), n, m_particles), dtype)
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
