"""End-to-end acceptance checks at benchmark scale.

One test per headline claim, each with its own runtime budget.  The
contamination sweeps run at full size (n=200, 100 repetitions, 1000 steps), so
the module takes a few minutes on one core; run with ``-v`` to get a
pass/fail line per claim.
"""

import math
import time

import numpy as np
import pytest

from mmdvi.cli import main
from mmdvi.harness import run_sweep
from mmdvi.kernel import GaussianKernel, gaussian_embedding_inner
from mmdvi.mmd import (
    ContaminatedGaussianSpec,
    check_empirical_convergence,
    kl_contaminated_criterion,
    minimize_criterion,
    mmd2_contaminated_criterion,
    mmd2_gaussian_closed,
)
from mmdvi.models import ModelSpec, sample
from mmdvi.theory import (
    exact_ball_radius,
    extended_prior_mass_construction,
    prior_mass_lower_bound,
)
from mmdvi.vi import (
    FitConfig,
    MeanFieldGaussian,
    grad_estimate,
    objective_exact,
)


def _rowwise_k(kernel, a, b):
    return np.exp(-((a - b) ** 2).sum(axis=1) / kernel.gamma2)


def test_empirical_mmd_convergence_rate():
    # E[MMD^2(P_hat_n, P_0)] <= 1/n, checked by simulation at three sizes
    start = time.monotonic()
    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel.default_for_dim(1)
    rng = np.random.default_rng(3)
    for n in (10, 100, 1000):
        rep = check_empirical_convergence(kernel, model, np.zeros(1), n, 1000, rng)
        assert rep.passed, (n, rep)
        assert rep.mean_mmd2 <= 1.0 / n + 3.0 * rep.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    print(f"PASS convergence rate: n in (10, 100, 1000), 1000 trials each, {elapsed:.1f}s")


def test_contamination_criterion_minimizers():
    start = time.monotonic()
    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.2, sigma2=1.0
    )
    kernel = GaussianKernel(1.0)
    mmd_argmin = minimize_criterion(
        lambda g: mmd2_contaminated_criterion(kernel, spec, g[:, None]), -5.0, 25.0
    )
    assert abs(mmd_argmin - 2.0) < 1e-3, mmd_argmin
    kl_argmin = minimize_criterion(
        lambda g: kl_contaminated_criterion(spec, g[:, None]), -5.0, 25.0
    )
    assert abs(kl_argmin - 5.6) < 1e-6, kl_argmin
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    print(f"PASS criterion minimizers: mmd {mmd_argmin:.6f}, kl {kl_argmin:.8f}, {elapsed:.1f}s")


def test_gauss1d_sweep_beats_classical_baselines():
    start = time.monotonic()
    res = run_sweep("gauss1d", n=200, reps=100, master_seed=0, n_steps=1000, jobs=1)
    eps = np.asarray(res.epsilons)
    mmd = res.rmse("mmd")
    mean = res.rmse("mean")
    median = res.rmse("median")
    # (a) beats the sample mean once contamination reaches 5 percent
    for i in np.nonzero(eps >= 0.05 - 1e-12)[0]:
        assert mmd[i] < mean[i], (eps[i], mmd[i], mean[i])
    # (b) tracks the median everywhere and wins outright at the top rate
    assert np.all(mmd <= 1.15 * median), (mmd, median)
    assert mmd[-1] < median[-1]
    # (c) sane clean-data accuracy
    assert 0.03 <= mmd[0] <= 0.25, mmd[0]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    print(
        f"PASS gauss1d sweep: rmse(mmd) {mmd[0]:.4f}..{mmd[-1]:.4f} vs "
        f"median {median[0]:.4f}..{median[-1]:.4f}, {elapsed:.0f}s"
    )


def test_gauss15d_sweep_ordinal_robustness():
    # the high-dimensional variant, ordinal claims only, fewer repetitions
    start = time.monotonic()
    res = run_sweep("gauss15d", n=200, reps=25, master_seed=0, n_steps=1000, jobs=1)
    eps = np.asarray(res.epsilons)
    mmd = res.rmse("mmd")
    mean = res.rmse("mean")
    median = res.rmse("median")
    for i in np.nonzero(eps >= 0.05 - 1e-12)[0]:
        assert mmd[i] < mean[i], (eps[i], mmd[i], mean[i])
    assert np.all(mmd <= 1.15 * median), (mmd, median)
    assert mmd[-1] < median[-1]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    print(f"PASS gauss15d sweep: rmse(mmd) {mmd[0]:.4f}..{mmd[-1]:.4f}, {elapsed:.0f}s")


def test_uniform_sweep_robustness():
    start = time.monotonic()
    res = run_sweep("uniform", n=200, reps=100, master_seed=0, n_steps=1000, jobs=1)
    eps = np.asarray(res.epsilons)
    mmd = res.rmse("mmd")
    mean = res.rmse("mean")
    mid = res.rmse("midrange")
    # the moment estimator degrades linearly, slope pinned by the outlier mean
    slope = np.polyfit(eps, mean, 1)[0]
    assert 15.0 <= slope <= 23.0, slope
    # the fit stays accurate at the top contamination rate
    assert mmd[-1] < 0.2, mmd[-1]
    # the midrange collapses as soon as a single outlier appears
    for i in np.nonzero(eps > 0.0)[0]:
        assert mid[i] >= 2.0 * mmd[i], (eps[i], mid[i], mmd[i])
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    print(
        f"PASS uniform sweep: mean slope {slope:.2f}, rmse(mmd) at top rate "
        f"{mmd[-1]:.4f}, {elapsed:.0f}s"
    )


def test_gradient_estimators_match_finite_differences():
    # seed-averaged stochastic gradients against central differences of the
    # deterministic objective, at ten random (m, s) points per model
    start = time.monotonic()
    h = 1e-5
    checks = 0

    def fd(data, model, kernel, m, s):
        def f(mm, ss):
            return objective_exact(MeanFieldGaussian(m=[mm], s=[ss]), data, model, kernel)

        return (
            (f(m + h, s) - f(m - h, s)) / (2 * h),
            (f(m, s + h) - f(m, s - h)) / (2 * h),
        )

    # gaussian model: the exact per-particle gradient of the embedding closed form
    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel.default_for_dim(1)
    data = sample(model, np.array([2.0]), 40, np.random.default_rng(100))
    config = FitConfig(n_particles=16)
    pts = np.random.default_rng(200)
    for i in range(10):
        m, s = pts.uniform(0.8, 3.2), pts.uniform(0.4, 1.4)
        q = MeanFieldGaussian(m=[m], s=[s])
        fd_m, fd_s = fd(data, model, kernel, m, s)
        rng = np.random.default_rng((300, i))
        g = np.array([grad_estimate(q, data, model, kernel, config, rng) for _ in range(1000)])
        gm, gs = g[:, 0, 0], g[:, 1, 0]
        se_m = gm.std(ddof=1) / math.sqrt(1000)
        se_s = gs.std(ddof=1) / math.sqrt(1000)
        assert abs(gm.mean() - fd_m) <= 4 * se_m + 1e-7, (i, m, s)
        assert abs(gs.mean() - fd_s) <= 4 * se_s + 1e-7, (i, m, s)
        checks += 2

    # uniform model: the exact per-particle gradient of the endpoint differences
    model = ModelSpec.uniform(1)
    kernel = GaussianKernel.default_for_dim(1)
    data = sample(model, np.array([1.0]), 40, np.random.default_rng(101))
    config = FitConfig(n_particles=16)
    pts = np.random.default_rng(201)
    for i in range(10):
        m, s = pts.uniform(0.2, 1.8), pts.uniform(0.3, 1.2)
        q = MeanFieldGaussian(m=[m], s=[s])
        fd_m, fd_s = fd(data, model, kernel, m, s)
        rng = np.random.default_rng((301, i))
        g = np.array([grad_estimate(q, data, model, kernel, config, rng) for _ in range(1000)])
        gm, gs = g[:, 0, 0], g[:, 1, 0]
        se_m = gm.std(ddof=1) / math.sqrt(1000)
        se_s = gs.std(ddof=1) / math.sqrt(1000)
        assert abs(gm.mean() - fd_m) <= 4 * se_m + 1e-7, (i, m, s)
        assert abs(gs.mean() - fd_s) <= 4 * se_s + 1e-7, (i, m, s)
        checks += 2

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    print(f"PASS gradient check: {checks} coordinate comparisons, {elapsed:.1f}s")


def test_closed_forms_match_sampling():
    # closed-form embedding inner products and squared MMD against unbiased
    # disjoint-pair estimates on 1e5-point samples, over a 20-point grid
    start = time.monotonic()
    rng = np.random.default_rng(606)
    grid = np.random.default_rng(42)
    n = 100_000
    for _ in range(20):
        d = int(grid.integers(1, 4))
        sigma2 = float(grid.uniform(0.5, 2.0))
        kernel = GaussianKernel(float(grid.uniform(0.8, 2.0) * d))
        theta = grid.normal(0.0, 1.5, d)
        theta_p = grid.normal(0.0, 1.5, d)
        model = ModelSpec.gaussian(d, sigma2=sigma2)

        x = sample(model, theta, n, rng)
        y = sample(model, theta_p, n, rng)
        terms = _rowwise_k(kernel, x, y)
        inner = gaussian_embedding_inner(kernel, theta, theta_p, sigma2)
        se = terms.std(ddof=1) / math.sqrt(n)
        assert abs(terms.mean() - inner) <= 4 * se, (d, theta, theta_p)

        x2 = sample(model, theta, n, rng)
        y2 = sample(model, theta_p, n, rng)
        terms = (
            _rowwise_k(kernel, x, x2)
            + _rowwise_k(kernel, y, y2)
            - _rowwise_k(kernel, x, y)
            - _rowwise_k(kernel, x2, y2)
        )
        closed = mmd2_gaussian_closed(kernel, theta, theta_p, sigma2)
        se = terms.std(ddof=1) / math.sqrt(n)
        assert abs(terms.mean() - closed) <= 4 * se, (d, theta, theta_p)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    print(f"PASS closed forms vs sampling: 20-point grid, {elapsed:.1f}s")


def test_prior_mass_certificates():
    start = time.monotonic()
    n, sigma2, gamma2 = 200, 1.0, 4.0
    draws = np.random.default_rng(7).standard_normal(10_000_000)
    radius = exact_ball_radius(n, sigma2, gamma2, 1)
    for t in (0.0, 2.0, 5.0):
        rep = prior_mass_lower_bound(np.array([t]), n, sigma2, gamma2)
        mass = float(np.mean(np.abs(draws - t) <= radius))
        assert rep.mass_lower_bound <= mass, (t, rep.mass_lower_bound, mass)
    # the smoothed construction meets its threshold exactly, never above
    for dim in (1, 2, 5, 15, 50):
        for nn in (10, 200, 10_000):
            ext = extended_prior_mass_construction(np.zeros(dim), nn, 1.0, float(dim))
            assert 0.0 < ext.mmd_integral_bound <= 1.0 / nn
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"PASS prior mass certificates: 1e7 draws, centers (0, 2, 5), {elapsed:.1f}s")


def test_sweep_output_deterministic_across_jobs(tmp_path):
    start = time.monotonic()
    base = [
        "sweep", "--problem", "gauss1d", "--reps", "4", "--n", "40",
        "--steps", "60", "--seed", "0",
    ]
    out1 = tmp_path / "jobs1"
    out3 = tmp_path / "jobs3"
    assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(base + ["--jobs", "3", "--out", str(out3)]) == 0
    for name in ("rmse.csv", "trials.csv"):
        a = (out1 / name).read_bytes()
        b = (out3 / name).read_bytes()
        assert a == b, f"{name} differs between --jobs 1 and --jobs 3"
    elapsed = time.monotonic() - start
    print(f"PASS determinism: byte-identical CSVs for jobs 1 vs 3, {elapsed:.1f}s")
