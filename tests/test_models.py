import math

import numpy as np
import pytest
from scipy import integrate

from mmdvi.kernel import GaussianKernel
from mmdvi.models import (
    GAUSSIAN,
    UNIFORM,
    ModelSpec,
    sample,
    standard_cauchy,
    uniform_pair_expectation,
    uniform_point_expectation,
)
from mmdvi.vi import (FitConfig, MeanFieldGaussian, _data_grads, _direct_sums,
                      grad_estimate)

# E_{X,Y ~ U[theta-1/2, theta+1/2]} k(X, Y) for gamma2 = 4, from 200-node
# quadrature done independently of the package code.
UNIFORM_PAIR_A05_G4 = 0.9603271579367895


def test_model_constructors():
    g = ModelSpec.gaussian(3, sigma2=2.0)
    assert g.kind == GAUSSIAN and g.dim == 3 and g.sigma2 == 2.0
    u = ModelSpec.uniform(1, half_width=0.25)
    assert u.kind == UNIFORM and u.dim == 1 and u.half_width == 0.25


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec.gaussian(0)
    with pytest.raises(ValueError):
        ModelSpec.gaussian(1, sigma2=0.0)
    with pytest.raises(ValueError):
        ModelSpec.uniform(1, half_width=-0.5)
    with pytest.raises(ValueError):
        ModelSpec(kind="triangular", dim=1)


def test_gaussian_sampling_moments():
    rng = np.random.default_rng(0)
    model = ModelSpec.gaussian(2, sigma2=4.0)
    theta = np.array([1.0, -3.0])
    x = sample(model, theta, 200_000, rng)
    assert x.shape == (200_000, 2)
    np.testing.assert_allclose(x.mean(axis=0), theta, atol=0.02)
    np.testing.assert_allclose(x.var(axis=0), 4.0, atol=0.05)


def test_uniform_sampling_support():
    rng = np.random.default_rng(1)
    model = ModelSpec.uniform(1, half_width=0.5)
    x = sample(model, np.array([2.0]), 50_000, rng)
    assert x.min() >= 1.5 and x.max() <= 2.5
    assert x.mean() == pytest.approx(2.0, abs=0.01)
    # hits both halves of the interval
    assert (x < 2.0).mean() == pytest.approx(0.5, abs=0.02)


def test_sample_dimension_check():
    with pytest.raises(ValueError):
        sample(ModelSpec.gaussian(2), np.zeros(3), 5, np.random.default_rng(0))


def test_standard_cauchy_quantiles():
    # inverse-CDF construction: quartiles of C(0,1) are exactly -1 and 1
    rng = np.random.default_rng(2)
    draws = standard_cauchy(rng, 400_000)
    q1, q2, q3 = np.quantile(draws, [0.25, 0.5, 0.75])
    assert q2 == pytest.approx(0.0, abs=0.01)
    assert q1 == pytest.approx(-1.0, abs=0.02)
    assert q3 == pytest.approx(1.0, abs=0.02)
    # heavy tails: well beyond anything a Gaussian would produce
    assert np.abs(draws).max() > 1e3


def test_standard_cauchy_matches_tangent_transform():
    draws = standard_cauchy(np.random.default_rng(9), (3, 4))
    expected = np.tan(np.pi * (np.random.default_rng(9).random((3, 4)) - 0.5))
    np.testing.assert_allclose(draws, expected, rtol=1e-12)


def _interval_mean(x, lo, hi, gamma2):
    """``(1 / (hi - lo)) int_lo^hi exp(-(x - t)^2 / gamma2) dt`` to ~1e-14
    relative, however far ``x`` lies from the interval."""
    val, _ = integrate.quad(lambda t: math.exp(-((x - t) ** 2) / gamma2), lo, hi,
                            epsabs=0, epsrel=1e-13)
    return val / (hi - lo)


def test_uniform_point_expectation_matches_quad():
    # near rows and rows 20 bandwidths away on both sides, where the values
    # are ~1e-174 and a difference of erf values would cancel to 0
    for a, gamma2 in [(0.5, 4.0), (0.5, 1.0), (0.2, 0.3), (1.3, 2.0)]:
        kernel = GaussianKernel(gamma2)
        model = ModelSpec.uniform(1, half_width=a)
        far = 20.0 * math.sqrt(gamma2)
        for theta, x in [(1.0, 0.8), (1.0, 3.0), (-0.5, -0.5), (0.0, 0.6 * far), (1.0, 1.0 + a),
                         (1.0, 1.0 + a + far), (1.0, 1.0 - a - far), (-3.0, -3.0 + far)]:
            got = uniform_point_expectation(kernel, model, np.array([theta]), np.array([[x]]))
            want = _interval_mean(x, theta - a, theta + a, gamma2)
            assert want > 0.0
            assert got[0, 0] == pytest.approx(want, rel=1e-12, abs=0), (a, gamma2, theta, x)


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_point_expectation_is_a_product_over_coordinates(d):
    kernel = GaussianKernel(1.5)
    model = ModelSpec.uniform(d, half_width=0.4)
    rng = np.random.default_rng(d)
    theta = rng.standard_normal(d)
    xs = theta + 3.0 * rng.standard_normal((5, d))
    xs[0, 0] = theta[0] + 25.0  # one far coordinate
    got = uniform_point_expectation(kernel, model, theta, xs)[0]
    want = [math.prod(_interval_mean(x[j], theta[j] - 0.4, theta[j] + 0.4, 1.5) for j in range(d))
            for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_uniform_point_expectation_batch_shape():
    kernel = GaussianKernel(2.0)
    model = ModelSpec.uniform(1)
    xs = np.linspace(-1, 3, 7)[:, None]
    vals = uniform_point_expectation(kernel, model, np.array([1.0]), xs)[0]
    assert vals.shape == (7,)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    # symmetric around theta
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-12)
    # a (T, d) stack of locations: one row of values per location, bitwise
    thetas = np.array([[1.0], [2.5], [60.0]])
    stack = uniform_point_expectation(kernel, model, thetas, xs)
    assert stack.shape == (3, 7)
    for t in range(3):
        assert stack[t].tobytes() == uniform_point_expectation(kernel, model, thetas[t], xs)[0].tobytes()
    assert uniform_point_expectation(kernel, model, thetas, xs[:1]).tobytes() == stack[:, :1].tobytes()


def test_uniform_pair_expectation_frozen_value():
    kernel = GaussianKernel(4.0)
    model = ModelSpec.uniform(1, half_width=0.5)
    assert uniform_pair_expectation(kernel, model) == pytest.approx(
        UNIFORM_PAIR_A05_G4, rel=1e-10
    )


def test_uniform_pair_expectation_matches_dblquad():
    for a, gamma2, d in [(0.3, 1.5, 1), (0.5, 4.0, 2), (0.05, 2.0, 1), (1.3, 0.3, 3),
                         (4.0, 0.5, 1)]:
        kernel = GaussianKernel(gamma2)
        model = ModelSpec.uniform(d, half_width=a)
        val, _ = integrate.dblquad(
            lambda s, t: math.exp(-((t - s) ** 2) / gamma2) / (2 * a) ** 2,
            -a, a, -a, a, epsabs=0, epsrel=1e-13,
        )
        got = uniform_pair_expectation(kernel, model)
        assert got == pytest.approx(val**d, rel=1e-12, abs=0), (a, gamma2, d)


def test_uniform_expectation_grad_matches_finite_differences():
    # the fit's uniform gradient (endpoint kernel differences, times 1/(2a))
    # is the theta-derivative of the density-normalised point expectation
    kernel = GaussianKernel(4.0)
    theta, z = 0.76, -0.7
    x = np.array([0.4, 1.1, 2.0])
    h = 1e-6
    for a in (0.5, 0.3):
        model = ModelSpec.uniform(1, half_width=a)

        def data_term(t):
            points = uniform_point_expectation(kernel, model, np.array([t]), x[:, None])
            return -2.0 * float(np.mean(points))

        fd = (data_term(theta + h) - data_term(theta - h)) / (2 * h)
        for fold in (True, False):  # the nearer edge folded, and both edges
            g_m, g_s = _data_grads(model, kernel.gamma2, x[None, :, None], np.array([[[theta]]]),
                                   np.array([[[z]]]), _direct_sums, np.empty((1, 3, 1)), fold)
            assert float(g_m[0, 0]) == pytest.approx(fd, rel=1e-6), (a, fold)
            assert float(g_s[0, 0]) == pytest.approx(z * float(g_m[0, 0]), rel=1e-14), (a, fold)


def test_uniform_expectation_grad_requires_1d_uniform():
    kernel = GaussianKernel(1.0)
    q = MeanFieldGaussian(m=[0.0, 0.0], s=[1.0, 1.0])
    with pytest.raises(ValueError, match="dim=1"):
        grad_estimate(q, np.zeros((10, 2)), ModelSpec.uniform(2), kernel, FitConfig(),
                      np.random.default_rng(0))
