import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mmdvi.kernel import GaussianKernel, gaussian_embedding_inner
from mmdvi.mmd import (
    ZERO_TOL,
    ContaminatedGaussianSpec,
    check_empirical_convergence,
    data_kernel_term,
    kl_contaminated_criterion,
    minimize_criterion,
    mmd2_contaminated_criterion,
    mmd2_gaussian_closed,
    mmd2_model_vs_empirical,
    mmd2_ustat,
    mmd2_vstat,
)
from mmdvi.models import UNIFORM, ModelSpec

# d=1, sigma2=1, gamma2=4, ||theta - theta'|| = 2:
#   2 sqrt(1/2) (1 - exp(-4/8))
MMD2_CLOSED_DELTA2 = 0.5564496774123883
# limit of the same expression as the separation grows
MMD2_CLOSED_SUP = 2.0 * 0.7071067811865476
# n * E[MMD^2(P_hat_n, P_theta)] for d=1, sigma2=1: 1 - sqrt(g2/(g2+4))
MEAN_MMD2_SCALED_G1 = 0.5527864045000421
MEAN_MMD2_SCALED_G4 = 0.2928932188134524


def brute_vstat(kernel, x, y):
    x = np.atleast_2d(x.T).T if x.ndim == 1 else x
    n, m = len(x), len(y)
    sxx = math.fsum(kernel(a, b) for a in x for b in x)
    syy = math.fsum(kernel(a, b) for a in y for b in y)
    sxy = math.fsum(kernel(a, b) for a in x for b in y)
    return sxx / n**2 - 2 * sxy / (n * m) + syy / m**2


def brute_ustat(kernel, x, y):
    n, m = len(x), len(y)
    sxx = math.fsum(kernel(x[i], x[j]) for i in range(n) for j in range(n) if i != j)
    syy = math.fsum(kernel(y[i], y[j]) for i in range(m) for j in range(m) if i != j)
    sxy = math.fsum(kernel(a, b) for a in x for b in y)
    return sxx / (n * (n - 1)) - 2 * sxy / (n * m) + syy / (m * (m - 1))


def test_vstat_matches_brute_force():
    rng = np.random.default_rng(0)
    k = GaussianKernel(2.0)
    x = rng.standard_normal((13, 2))
    y = rng.standard_normal((9, 2)) + 0.5
    est = mmd2_vstat(k, x, y)
    assert isinstance(est, float)
    assert est == pytest.approx(brute_vstat(k, x, y), rel=1e-12)


def test_ustat_matches_brute_force():
    rng = np.random.default_rng(1)
    k = GaussianKernel(1.0)
    x = rng.standard_normal((8, 1))
    y = rng.standard_normal((11, 1)) - 1.0
    est = mmd2_ustat(k, x, y)
    assert isinstance(est, float)
    assert est == pytest.approx(brute_ustat(k, x, y), rel=1e-12)


def test_vstat_zero_on_identical_sample():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 3))
    est = mmd2_vstat(GaussianKernel(3.0), x, x)
    assert abs(est) <= ZERO_TOL


def test_ustat_requires_two_points():
    k = GaussianKernel(1.0)
    with pytest.raises(ValueError):
        mmd2_ustat(k, np.array([[0.0]]), np.array([[1.0], [2.0]]))


@given(st.integers(0, 2**32 - 1), st.floats(0.3, 6.0))
@settings(max_examples=40, deadline=None)
def test_vstat_nonnegative(seed, gamma2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((7, 2)) * 2.0
    y = rng.standard_normal((5, 2)) + rng.uniform(-3, 3)
    est = mmd2_vstat(GaussianKernel(gamma2), x, y)
    assert est >= -ZERO_TOL


def test_ustat_unbiased_against_closed_form():
    # mean of many small-sample U-statistics approaches the population value
    rng = np.random.default_rng(3)
    k = GaussianKernel(2.0)
    t0, t1 = np.array([0.0]), np.array([1.0])
    truth = mmd2_gaussian_closed(k, t0, t1, 1.0)
    reps = 3000
    vals = np.empty(reps)
    for r in range(reps):
        x = t0 + rng.standard_normal((6, 1))
        y = t1 + rng.standard_normal((6, 1))
        vals[r] = mmd2_ustat(k, x, y)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - truth) < 4 * se


def test_gaussian_closed_frozen_value():
    k = GaussianKernel(4.0)
    got = mmd2_gaussian_closed(k, np.array([0.0]), np.array([2.0]), 1.0)
    assert got == pytest.approx(MMD2_CLOSED_DELTA2, rel=1e-15)


def test_gaussian_closed_limits():
    k = GaussianKernel(4.0)
    assert mmd2_gaussian_closed(k, np.array([1.7]), np.array([1.7]), 1.0) == 0.0
    far = mmd2_gaussian_closed(k, np.array([0.0]), np.array([80.0]), 1.0)
    assert far == pytest.approx(MMD2_CLOSED_SUP, rel=1e-12)


def test_gaussian_closed_equals_embedding_expansion():
    k = GaussianKernel(3.0)
    t0 = np.array([0.4, -1.0])
    t1 = np.array([-0.2, 0.3])
    expanded = (
        gaussian_embedding_inner(k, t0, t0, 0.8)
        - 2.0 * gaussian_embedding_inner(k, t0, t1, 0.8)
        + gaussian_embedding_inner(k, t1, t1, 0.8)
    )
    assert mmd2_gaussian_closed(k, t0, t1, 0.8) == pytest.approx(expanded, rel=1e-12)


@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(0.5, 6.0), st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_gaussian_closed_symmetric_and_monotone(a, b, gamma2, sigma2):
    k = GaussianKernel(gamma2)
    ta, tb = np.array([a]), np.array([b])
    v = mmd2_gaussian_closed(k, ta, tb, sigma2)
    assert v == mmd2_gaussian_closed(k, tb, ta, sigma2)
    assert 0.0 <= v < 2.0
    # strictly increasing in the separation
    further = mmd2_gaussian_closed(k, ta, tb + math.copysign(0.5, b - a + 1e-9), sigma2)
    assert further >= v


def test_data_kernel_term_is_vstat_within_sample():
    rng = np.random.default_rng(4)
    k = GaussianKernel(1.0)
    x = rng.standard_normal((15, 1))
    expected = math.fsum(k(a, b) for a in x for b in x) / 15**2
    assert data_kernel_term(k, x) == pytest.approx(expected, rel=1e-13)


def test_model_vs_empirical_closed_form_expansion():
    rng = np.random.default_rng(5)
    k = GaussianKernel(2.0)
    model = ModelSpec.gaussian(1, sigma2=1.0)
    theta = np.array([0.3])
    x = rng.standard_normal((40, 1))
    est = mmd2_model_vs_empirical(k, model, theta, x)
    assert isinstance(est, float)
    # rebuild from the three terms
    pair = gaussian_embedding_inner(k, theta, theta, 1.0)
    cross = np.mean(
        [np.sqrt(2.0 / 4.0) * math.exp(-((xi[0] - 0.3) ** 2) / 4.0) for xi in x]
    )
    expected = pair - 2 * cross + data_kernel_term(k, x)
    assert est == pytest.approx(expected, rel=1e-12)
    assert est >= -ZERO_TOL  # squared distance


def _model_vs_empirical_by_quad(kernel, model, theta, x):
    """The three MMD^2 terms by adaptive quadrature over the model density
    (1-D): ``E k(X, X') - (2/n) sum_i E k(x_i, X) + (1/n^2) sum k(x_i, x_j)``."""
    if model.kind == UNIFORM:
        lo, hi = theta - model.half_width, theta + model.half_width

        def density(t):
            return 1.0 / (2 * model.half_width)
    else:
        sd = math.sqrt(model.sigma2)
        lo, hi = theta - 12 * sd, theta + 12 * sd

        def density(t):
            return math.exp(-0.5 * ((t - theta) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    def k(a, b):
        return math.exp(-((a - b) ** 2) / kernel.gamma2)

    pair, _ = integrate.dblquad(lambda s, t: k(s, t) * density(s) * density(t), lo, hi, lo, hi,
                                epsabs=0, epsrel=1e-13)
    cross = math.fsum(
        integrate.quad(lambda t: k(xi, t) * density(t), lo, hi, epsabs=0, epsrel=1e-13)[0]
        for xi in x[:, 0]
    ) / len(x)
    return pair - 2.0 * cross + math.fsum(k(a, b) for a in x[:, 0] for b in x[:, 0]) / len(x) ** 2


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1, sigma2=0.8), ModelSpec.uniform(1, half_width=0.5)],
    ids=["gaussian", "uniform"],
)
def test_model_vs_empirical_matches_quad_oracle(model):
    rng = np.random.default_rng(7)
    k = GaussianKernel(1.0)
    theta = 1.0
    x = theta + (rng.random((20, 1)) - 0.5)
    x[:2] = [[9.0], [-30.0]]  # far rows: their model terms are ~0 or tail values
    est = mmd2_model_vs_empirical(k, model, np.array([theta]), x)
    assert isinstance(est, float)
    want = _model_vs_empirical_by_quad(k, model, theta, x)
    assert est == pytest.approx(want, rel=1e-12, abs=0)
    # a (T, d) stack gives each row's single-call bits, far rows included:
    # 60 and -80 put every uniform erfc argument beyond its underflow
    thetas = np.array([[theta], [math.pi / 7], [1e200], [-1e200], [60.0], [-80.0]])
    stacked = mmd2_model_vs_empirical(k, model, thetas, x)
    singles = [mmd2_model_vs_empirical(k, model, row, x) for row in thetas]
    assert stacked.shape == (6,)
    assert stacked.tobytes() == np.array(singles).tobytes()


def test_model_vs_empirical_cached_data_term():
    rng = np.random.default_rng(8)
    k = GaussianKernel(1.0)
    model = ModelSpec.gaussian(1)
    x = rng.standard_normal((30, 1))
    dt = data_kernel_term(k, x)
    a = mmd2_model_vs_empirical(k, model, np.array([0.1]), x)
    b = mmd2_model_vs_empirical(k, model, np.array([0.1]), x, data_term=dt)
    assert a == b


def test_model_vs_empirical_argument_errors():
    k = GaussianKernel(1.0)
    model = ModelSpec.gaussian(1)
    with pytest.raises(ValueError):
        mmd2_model_vs_empirical(k, model, np.array([0.0]), np.empty((0, 1)))
    with pytest.raises(ValueError):
        mmd2_model_vs_empirical(k, model, np.array([0.0]), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        mmd2_model_vs_empirical(k, ModelSpec.uniform(1), np.array([0.0, 1.0]), np.zeros((5, 1)))


def contaminated_mixture_sample(spec, n, rng):
    n_out = int(round(spec.epsilon * n))
    clean = spec.theta0 + math.sqrt(spec.sigma2) * rng.standard_normal((n - n_out, spec.dim))
    outl = spec.theta_c + math.sqrt(spec.sigma2) * rng.standard_normal((n_out, spec.dim))
    return np.vstack([clean, outl])


def test_contaminated_criterion_reduces_to_closed_form_at_zero_rate():
    k = GaussianKernel(1.0)
    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.0, sigma2=1.0
    )
    thetas = np.linspace(-1, 5, 13)[:, None]
    crit = mmd2_contaminated_criterion(k, spec, thetas)
    direct = [mmd2_gaussian_closed(k, t, np.array([2.0]), 1.0) for t in thetas]
    np.testing.assert_allclose(crit, direct, rtol=1e-12, atol=1e-15)


def test_contaminated_criterion_matches_empirical_mmd():
    # averaged U-statistic MMD between fresh mixture draws and model samples
    # is an unbiased estimate of the population criterion
    rng = np.random.default_rng(9)
    k = GaussianKernel(1.0)
    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.2, sigma2=1.0
    )
    n = 1500
    for theta in (1.0, 2.0, 5.6, 19.0):
        reps = 30
        vals = np.empty(reps)
        for r in range(reps):
            mix = contaminated_mixture_sample(spec, n, rng)
            model_sample = theta + rng.standard_normal((n, 1))
            vals[r] = mmd2_ustat(k, model_sample, mix)
        crit = mmd2_contaminated_criterion(k, spec, np.array([[theta]]))[0]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - crit) < 4 * se


def test_contaminated_criterion_anchored_near_truth():
    k = GaussianKernel(1.0)
    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.2, sigma2=1.0
    )
    grid = np.linspace(-5, 25, 2001)[:, None]
    vals = mmd2_contaminated_criterion(k, spec, grid)
    argmin = grid[np.argmin(vals), 0]
    assert abs(argmin - 2.0) < 0.02


def test_kl_criterion_quadratic_minimiser():
    spec = ContaminatedGaussianSpec(
        theta0=np.array([2.0]), theta_c=np.array([20.0]), epsilon=0.2, sigma2=1.0
    )
    # exact quadratic: (1-e)(t-2)^2 + e(t-20)^2
    t = np.linspace(0, 10, 11)[:, None]
    expected = 0.8 * (t[:, 0] - 2.0) ** 2 + 0.2 * (t[:, 0] - 20.0) ** 2
    np.testing.assert_allclose(kl_contaminated_criterion(spec, t), expected, rtol=1e-13)


def test_minimize_criterion_quadratic():
    got = minimize_criterion(lambda g: (g - 3.25) ** 2, 0.0, 10.0)
    assert got == pytest.approx(3.25, abs=1e-8)


def test_minimize_criterion_picks_global_basin():
    # two wells, the deeper one off to the right
    def f(g):
        return -1.0 * np.exp(-((g - 1.0) ** 2)) - 2.0 * np.exp(-((g - 8.0) ** 2) / 0.5)

    got = minimize_criterion(f, -5.0, 15.0)
    assert got == pytest.approx(8.0, abs=1e-6)


def test_minimize_criterion_validates_interval():
    with pytest.raises(ValueError):
        minimize_criterion(lambda g: g, 2.0, 2.0)


def test_empirical_convergence_within_bound():
    rng = np.random.default_rng(10)
    model = ModelSpec.gaussian(1)
    k = GaussianKernel(1.0)
    rep = check_empirical_convergence(k, model, np.zeros(1), n=50, trials=400, rng=rng)
    assert rep.passed
    assert rep.bound == pytest.approx(0.02)
    # the exact mean is (1 - sqrt(g2/(g2+4s2))) / n, well inside the bound
    exact = MEAN_MMD2_SCALED_G1 / 50
    assert abs(rep.mean_mmd2 - exact) < 4 * rep.stderr


def test_empirical_convergence_exact_mean_other_bandwidth():
    rng = np.random.default_rng(11)
    model = ModelSpec.gaussian(1)
    k = GaussianKernel(4.0)
    rep = check_empirical_convergence(k, model, np.array([2.0]), n=25, trials=400, rng=rng)
    exact = MEAN_MMD2_SCALED_G4 / 25
    assert abs(rep.mean_mmd2 - exact) < 4 * rep.stderr
    assert rep.passed


def test_contaminated_spec_validation():
    with pytest.raises(ValueError):
        ContaminatedGaussianSpec(
            theta0=np.array([0.0]), theta_c=np.array([1.0]), epsilon=0.5, sigma2=1.0
        )
    with pytest.raises(ValueError):
        ContaminatedGaussianSpec(
            theta0=np.array([0.0]), theta_c=np.array([1.0, 2.0]), epsilon=0.1, sigma2=1.0
        )
