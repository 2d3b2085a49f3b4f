"""Mean-field Gaussian variational fit of the MMD posterior by projected SGD.

The pseudo-posterior proportional to ``exp(-beta * MMD^2(P_theta, P_hat_n)) *
pi(theta)`` is approximated within the family ``N(m, diag(s^2))`` under a
standard Gaussian prior.  Up to a data-only constant the objective is

    R(m, s) = int MMD^2(P_theta, P_hat_n) N(dtheta | m, diag(s^2))
              + (1 / 2 beta) * sum_j (m_j^2 + s_j^2 - log s_j^2 - 1),

minimised by projected stochastic gradient descent on ``(m, s)`` with steps
``eta_t = step_scale / sqrt(t)`` and box projections keeping ``s`` positive.

Two gradient estimators are provided, both using reparameterised particles
``theta_k = m + s * z_k``:

* ``"closed_form"``: differentiates the kernel expectation
  ``E_{X ~ P_theta}[k(X_i, X)]`` exactly in ``theta`` (Gaussian model: the
  embedding closed form; uniform model: endpoint kernel differences).  No
  synthetic sample is needed, the estimator is unbiased, and per-step cost is
  O(n M).  This is the default.
* ``"score"``: the log-derivative-trick estimator built from a synthetic
  sample ``Y_1..Y_M``, with U-statistic kernel weights.  ``sample_mode``
  selects where the synthetic sample comes from: ``"per_particle"`` draws a
  fresh ``Y`` set from each ``P_theta_k`` (unbiased, O(M^3) per step), while
  ``"shared"`` draws a single set from ``P_m`` reused across particles
  (cheaper, and the historical formulation, but biased: with contaminated
  data the shared-sample scale gradient systematically inflates ``s``, which
  in turn destabilises the mean updates; see the gradient comparison tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .kernel import GaussianKernel, gaussian_embedding_inner, point_embedding_inner, self_sq
from .mmd import data_kernel_term, mmd2_model_vs_empirical
from .models import (
    GAUSSIAN,
    UNIFORM,
    ModelSpec,
    sample,
    uniform_pair_expectation,
    uniform_point_expectation,
)

CLOSED_FORM = "closed_form"
SCORE = "score"
PER_PARTICLE = "per_particle"
SHARED = "shared"

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


def kl_to_standard_prior(q: MeanFieldGaussian) -> float:
    """``KL(N(m, diag(s^2)) || N(0, I))`` in closed form.

    Equals ``0.5 * sum_j (m_j^2 + s_j^2 - log s_j^2 - 1)``; zero exactly at
    the prior itself.
    """
    return 0.5 * float(np.sum(q.m**2 + q.s**2 - np.log(q.s**2) - 1.0))


def project_box(v: np.ndarray, lo, hi) -> np.ndarray:
    """Euclidean projection of ``v`` onto the box ``[lo, hi]`` (componentwise clamp)."""
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some component")
    return np.clip(v, lo, hi)


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
    seed: int = DEFAULT_SEED
    estimator: str = CLOSED_FORM
    sample_mode: str = PER_PARTICLE

    def __post_init__(self) -> None:
        if math.isnan(self.beta_log):
            raise ValueError("beta_log must not be NaN")
        if self.n_particles is not None and self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.step_scale < 0.0:
            raise ValueError(f"step_scale must be >= 0, got {self.step_scale}")
        if not self.m_bounds[0] <= self.m_bounds[1]:
            raise ValueError(f"empty m_bounds box {self.m_bounds}")
        if not 0.0 < self.s_bounds[0] <= self.s_bounds[1]:
            raise ValueError(f"s_bounds must satisfy 0 < lo <= hi, got {self.s_bounds}")
        if self.estimator not in (CLOSED_FORM, SCORE):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.sample_mode not in (PER_PARTICLE, SHARED):
            raise ValueError(f"unknown sample_mode {self.sample_mode!r}")

    @classmethod
    def benchmark(cls, n: int, dim: int, **overrides) -> "FitConfig":
        """The contamination-benchmark defaults: ``beta = exp(n * dim)``,
        ``M = n``, ``T = 1000``, ``eta_t = 1 / sqrt(t)``."""
        cfg = cls(beta_log=float(n * dim), n_particles=n)
        return replace(cfg, **overrides) if overrides else cfg

    @property
    def inv_beta(self) -> float:
        return 0.0 if math.isinf(self.beta_log) else math.exp(-self.beta_log)


class GradEstimate(NamedTuple):
    g_m: np.ndarray
    g_s: np.ndarray


def _regularizer_grads(q: MeanFieldGaussian, inv_beta: float) -> GradEstimate:
    """KL-term gradients ``m / beta`` and ``(s - 1/s) / beta``; exact zeros at
    the infinite-beta sentinel."""
    return GradEstimate(inv_beta * q.m, inv_beta * (q.s - 1.0 / q.s))


def _workspace(
    kind: str, r: int, n: int, m_particles: int, dtype
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Scratch for one stacked kernel call: an (R, n, M) buffer for the
    Gaussian model, a pair of (R, M, n) buffers for the uniform model."""
    if kind == GAUSSIAN:
        return np.empty((r, n, m_particles), dtype)
    return np.empty((r, m_particles, n), dtype), np.empty((r, m_particles, n), dtype)


def _gauss_closed_grad_stack(
    x: np.ndarray,
    particles: np.ndarray,
    z: np.ndarray,
    sigma2: float,
    gamma2: float,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked closed-form data-term gradients for the Gaussian model.

    ``x`` is (R, n, d); ``particles`` and ``z`` are (R, M, d) with
    ``particles = m + s * z``.  Returns float64 ``(g_m, g_s)`` of shape
    (R, d), the gradients of ``-(2/n) sum_i int E[k(X_i, X)] dq`` estimated
    on the particle set.

    ``work`` is the (R, n, M) buffer from :func:`_workspace` that receives
    the squared distances and then the kernel values; its contents on entry
    are never read, so one buffer serves every step of a fit.  For d=1 the
    distance is the difference ``(x - theta)^2``, which cannot cancel; for
    d>1 it is the norm expansion ``|x|^2 + |theta|^2 - 2 x.theta`` clamped
    at zero.
    """
    n, d = x.shape[1:]
    m_particles = particles.shape[1]
    a2 = 2.0 * sigma2 + gamma2
    c2 = (gamma2 / a2) ** (d / 2.0)
    pt = particles.transpose(0, 2, 1)  # (R, d, M)
    if d == 1:
        np.subtract(x, pt, out=work)
        np.square(work, out=work)
    else:
        np.matmul(x, pt, out=work)
        work *= -2.0
        work += np.einsum("rnd,rnd->rn", x, x)[:, :, None]
        work += np.einsum("rmd,rmd->rm", particles, particles)[:, None, :]
        np.maximum(work, 0.0, out=work)
    work *= -1.0 / a2
    e = np.exp(work, out=work)  # (R, n, M), scaled by c2 at the end
    col = e.sum(axis=1)  # (R, M)
    v = np.matmul(e.transpose(0, 2, 1), x)  # (R, M, d)
    per_particle = v - col[:, :, None] * particles  # ~ grad wrt theta summed over i
    scale = -c2 * (2.0 / a2) * 2.0 / (n * m_particles)
    g_m = scale * per_particle.sum(axis=1, dtype=np.float64)
    g_s = scale * np.einsum("rmd,rmd->rd", per_particle, z, dtype=np.float64)
    return g_m, g_s


def _uniform_closed_grad_stack(
    x: np.ndarray,
    particles: np.ndarray,
    z: np.ndarray,
    gamma2: float,
    half_width: float,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked closed-form data-term gradients for the 1-D uniform model.

    ``x`` is (R, n); ``particles`` and ``z`` are (R, M).  Uses the endpoint
    kernel differences ``K(theta + a - x) - K(theta - a - x)`` normalised by
    the uniform density ``1/(2a)``.  Returns float64 (R, 1) gradients.

    ``work`` is the pair of (R, M, n) buffers from :func:`_workspace`; their
    contents on entry are never read.
    """
    n = x.shape[1]
    m_particles = particles.shape[1]
    up, lo = work
    np.subtract(particles[:, :, None] + half_width, x[:, None, :], out=up)
    np.subtract(up, 2.0 * half_width, out=lo)
    np.square(up, out=up)
    np.square(lo, out=lo)
    up *= -1.0 / gamma2
    lo *= -1.0 / gamma2
    g = np.exp(up, out=up)
    g -= np.exp(lo, out=lo)  # (R, M, n)
    per_particle = g.sum(axis=2)  # (R, M)
    scale = -2.0 / (n * m_particles * 2.0 * half_width)
    g_m = scale * per_particle.sum(axis=1, dtype=np.float64)
    g_s = scale * np.einsum("rm,rm->r", per_particle, z, dtype=np.float64)
    return g_m[:, None], g_s[:, None]


def _score_weights(
    kernel: GaussianKernel, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """U-statistic kernel weights ``(1/(M-1)) sum_{l != j} k(Y_j, Y_l) -
    (1/n) sum_i k(X_i, Y_j)`` for a synthetic sample ``y`` of shape (M, d)."""
    m = y.shape[0]
    ysq = self_sq(y)
    sq = ysq[:, None] + ysq[None, :] - 2.0 * (y @ y.T)
    np.maximum(sq, 0.0, out=sq)
    kyy = np.exp(-sq / kernel.gamma2)
    within = (kyy.sum(axis=1) - 1.0) / (m - 1)
    sq = self_sq(x)[:, None] + ysq[None, :] - 2.0 * (x @ y.T)
    np.maximum(sq, 0.0, out=sq)
    kxy = np.exp(-sq / kernel.gamma2)
    return within - kxy.mean(axis=0)


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
    normal particles, applies the configured estimator, and adds the
    regulariser gradients.  Consumes the generator; call with a fresh seeded
    generator for reproducible draws.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    if d != model.dim or q.dim != model.dim:
        raise ValueError("data, model, and q must agree on the dimension")
    m_particles = config.n_particles if config.n_particles is not None else n
    if m_particles < 2:
        raise ValueError("need at least 2 particles")
    z = rng.standard_normal((m_particles, d))
    particles = q.m + q.s * z

    if config.estimator == CLOSED_FORM:
        work = _workspace(model.kind, 1, n, m_particles, np.float64)
        if model.kind == GAUSSIAN:
            g_m, g_s = _gauss_closed_grad_stack(
                data[None], particles[None], z[None], model.sigma2, kernel.gamma2, work
            )
        else:
            if model.dim != 1:
                raise ValueError("closed-form uniform gradients support dim=1 only")
            g_m, g_s = _uniform_closed_grad_stack(
                data[None, :, 0], particles[None, :, 0], z[None, :, 0],
                kernel.gamma2, model.half_width, work,
            )
        g_m, g_s = g_m[0], g_s[0]
    else:  # score estimator
        if model.kind != GAUSSIAN:
            raise ValueError(
                "the score estimator needs a differentiable log-density; "
                "use the closed_form estimator for the uniform model"
            )
        sigma2 = model.sigma2
        if config.sample_mode == SHARED:
            y = q.m + math.sqrt(sigma2) * rng.standard_normal((m_particles, d))
            w = _score_weights(kernel, data, y)
            sw = w.sum()
            z_sum = z.sum(axis=0)
            z_sq_sum = (z * z).sum(axis=0)
            wy = w @ (y - q.m)  # (d,)
            c = 2.0 / (m_particles**2 * sigma2)
            g_m = c * (m_particles * wy - sw * (q.s * z_sum))
            g_s = c * (z_sum * wy - sw * (q.s * z_sq_sum))
        else:  # per-particle synthetic samples
            g_m = np.zeros(d)
            g_s = np.zeros(d)
            for k in range(m_particles):
                y = particles[k] + math.sqrt(sigma2) * rng.standard_normal((m_particles, d))
                w = _score_weights(kernel, data, y)
                contrib = w @ (y - particles[k])
                g_m += contrib
                g_s += z[k] * contrib
            c = 2.0 / (m_particles**2 * sigma2)
            g_m *= c
            g_s *= c

    reg = _regularizer_grads(q, config.inv_beta)
    return GradEstimate(g_m + reg.g_m, g_s + reg.g_s)


def objective_mc(
    q: MeanFieldGaussian,
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    config: FitConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of the variational objective at ``q``.

    Averages the exact model-vs-data squared MMD over ``M`` reparameterised
    particles and adds the regulariser.  Unbiased in the particle draw; the
    inner expectations are exact (closed form or quadrature).  Deterministic
    under ``config.seed`` when no generator is supplied.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    if rng is None:
        rng = np.random.default_rng(config.seed)
    m_particles = config.n_particles if config.n_particles is not None else n
    z = rng.standard_normal((m_particles, q.dim))
    particles = q.m + q.s * z
    dterm = data_kernel_term(kernel, data)
    if model.kind == GAUSSIAN:
        pair = gaussian_embedding_inner(kernel, np.zeros(q.dim), np.zeros(q.dim), model.sigma2)
        cross = np.empty(m_particles)
        for k in range(m_particles):
            cross[k] = float(np.mean(point_embedding_inner(kernel, data, particles[k], model.sigma2)))
    else:
        pair = uniform_pair_expectation(kernel, model)
        cross = np.empty(m_particles)
        for k in range(m_particles):
            cross[k] = float(np.mean(uniform_point_expectation(kernel, model, particles[k], data)))
    value = pair - 2.0 * float(cross.mean()) + dterm
    return value + config.inv_beta * kl_to_standard_prior(q)


def objective_exact(
    q: MeanFieldGaussian,
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    beta_log: float = math.inf,
) -> float:
    """Deterministic high-precision value of the variational objective.

    For the Gaussian model the particle average has a closed form: integrating
    the embedding cross term over ``theta ~ N(m, diag(s^2))`` merely widens
    each coordinate variance by ``2 s_j^2``.  For the 1-D uniform model the
    location integral is done by Gauss-Hermite quadrature on 128 nodes.  This
    is the reference the stochastic gradient estimators are finite-difference
    checked against.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
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
        nodes, weights = np.polynomial.hermite.hermgauss(128)
        thetas = q.m[0] + math.sqrt(2.0) * q.s[0] * nodes
        pair = uniform_pair_expectation(kernel, model)
        vals = np.empty(nodes.size)
        for i, theta in enumerate(thetas):
            vals[i] = float(np.mean(uniform_point_expectation(kernel, model, np.array([theta]), data)))
        cross = float((weights @ vals) / math.sqrt(math.pi))
    value = pair - 2.0 * cross + dterm
    return value + inv_beta * kl_to_standard_prior(q)


@dataclass
class FitTrace:
    """Per-step history of the fit: row ``t`` is the state after ``t`` updates.

    ``objective[t]`` is a cheap deterministic diagnostic: the plug-in
    objective at the current mean, ``MMD^2(P_{m_t}, P_hat_n) + KL(q_t)/beta``
    (not the particle-averaged objective, which would cost a full extra
    gradient per step).  ``grad_norm_*[t]`` are the norms of the stochastic
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
    config: FitConfig


def _plug_in_objective(
    kernel: GaussianKernel,
    model: ModelSpec,
    m: np.ndarray,
    data: np.ndarray,
    data_term: float,
    q: MeanFieldGaussian,
    inv_beta: float,
) -> float:
    est = mmd2_model_vs_empirical(kernel, model, m, data, data_term=data_term)
    return est.value + inv_beta * kl_to_standard_prior(q)


def fit(
    data: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel | None = None,
    config: FitConfig | None = None,
    init: MeanFieldGaussian | None = None,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Run the projected stochastic gradient fit and return the final
    variational Gaussian plus the full trace.

    Defaults: dimension-matched kernel bandwidth, ``m`` initialised at the
    componentwise median of the data (a cheap robust start), ``s`` at one,
    both projected into their boxes before the first step.  With the same
    data, config, and seed the trace is reproduced bit for bit.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] < 1:
        raise ValueError("data must be non-empty")
    d = data.shape[1]
    if d != model.dim:
        raise ValueError(f"data has dimension {d}, model has dim {model.dim}")
    if kernel is None:
        kernel = GaussianKernel.default_for_dim(d)
    if config is None:
        config = FitConfig()
    if rng is None:
        rng = np.random.default_rng(config.seed)

    m_lo, m_hi = config.m_bounds
    s_lo, s_hi = config.s_bounds
    if init is None:
        m = project_box(np.median(data, axis=0), m_lo, m_hi)
        s = project_box(np.ones(d), s_lo, s_hi)
    else:
        if init.dim != d:
            raise ValueError(f"init has dim {init.dim}, expected {d}")
        m = project_box(init.m, m_lo, m_hi)
        s = project_box(init.s, s_lo, s_hi)

    steps = config.n_steps
    trace = FitTrace(
        t=np.arange(steps + 1),
        m=np.empty((steps + 1, d)),
        s=np.empty((steps + 1, d)),
        objective=np.empty(steps + 1),
        grad_norm_m=np.full(steps + 1, math.nan),
        grad_norm_s=np.full(steps + 1, math.nan),
    )
    dterm = data_kernel_term(kernel, data)
    inv_beta = config.inv_beta
    q = MeanFieldGaussian(m=m, s=s)
    trace.m[0], trace.s[0] = m, s
    trace.objective[0] = _plug_in_objective(kernel, model, m, data, dterm, q, inv_beta)

    for t in range(1, steps + 1):
        g = grad_estimate(q, data, model, kernel, config, rng)
        eta = config.step_scale / math.sqrt(t)
        m = project_box(m - eta * g.g_m, m_lo, m_hi)
        s = project_box(s - eta * g.g_s, s_lo, s_hi)
        q = MeanFieldGaussian(m=m, s=s)
        trace.m[t], trace.s[t] = m, s
        trace.grad_norm_m[t] = float(np.linalg.norm(g.g_m))
        trace.grad_norm_s[t] = float(np.linalg.norm(g.g_s))
        trace.objective[t] = _plug_in_objective(kernel, model, m, data, dterm, q, inv_beta)

    return FitResult(q=q, trace=trace, config=config)


def fit_batched(
    data_stack: np.ndarray,
    model: ModelSpec,
    kernel: GaussianKernel,
    config: FitConfig,
    rngs: list[np.random.Generator],
    init_m: np.ndarray,
    init_s: np.ndarray,
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Run independent closed-form-estimator fits on a stack of datasets.

    ``data_stack`` is (R, n, d) with one generator per dataset; particle
    draws come from each dataset's own stream, so every fit is identical to
    running it alone, while the kernel arithmetic is batched across the
    stack (optionally in float32: rounding there is orders of magnitude
    below the Monte Carlo noise of the gradient).  Traces are not recorded;
    returns the final ``(m, s)`` stacks.  Only the closed-form estimator is
    supported: it is the one cheap enough to justify batching.

    The pairwise kernel arithmetic of every step is written into one
    workspace allocated here, once per call, in ``dtype``: an (R, n, M)
    buffer for the Gaussian model and two (R, M, n) buffers for the uniform
    model.  Each step overwrites it completely, so reuse changes no result:
    a float64 stack of one dataset reproduces :func:`fit` bit for bit.
    """
    if config.estimator != CLOSED_FORM:
        raise ValueError("fit_batched supports the closed_form estimator only")
    data_stack = np.asarray(data_stack, dtype=float)
    r, n, d = data_stack.shape
    if d != model.dim:
        raise ValueError(f"data has dimension {d}, model has dim {model.dim}")
    if len(rngs) != r:
        raise ValueError("need one generator per dataset")
    if model.kind == UNIFORM and d != 1:
        raise ValueError("closed-form uniform gradients support dim=1 only")
    m_particles = config.n_particles if config.n_particles is not None else n
    m_lo, m_hi = config.m_bounds
    s_lo, s_hi = config.s_bounds
    m = project_box(np.asarray(init_m, dtype=float).reshape(r, d), m_lo, m_hi)
    s = project_box(np.asarray(init_s, dtype=float).reshape(r, d), s_lo, s_hi)
    inv_beta = config.inv_beta

    x = data_stack.astype(dtype)
    work = _workspace(model.kind, r, n, m_particles, dtype)

    for t in range(1, config.n_steps + 1):
        z = np.stack([rg.standard_normal((m_particles, d)) for rg in rngs])
        particles = (m[:, None, :] + s[:, None, :] * z).astype(dtype)
        zt = z.astype(dtype)
        if model.kind == GAUSSIAN:
            g_m, g_s = _gauss_closed_grad_stack(x, particles, zt, model.sigma2, kernel.gamma2, work)
        else:
            g_m, g_s = _uniform_closed_grad_stack(
                x[:, :, 0], particles[:, :, 0], zt[:, :, 0],
                kernel.gamma2, model.half_width, work,
            )
        if inv_beta != 0.0:
            g_m = g_m + inv_beta * m
            g_s = g_s + inv_beta * (s - 1.0 / s)
        eta = config.step_scale / math.sqrt(t)
        m = np.clip(m - eta * g_m, m_lo, m_hi)
        s = np.clip(s - eta * g_s, s_lo, s_hi)
    return m, s
