import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mmdvi.kernel import (
    GRAM_BLOCK,
    GaussianKernel,
    _gram_block,
    gaussian_embedding_inner,
    gram_sum,
    point_embedding_inner,
    self_sq,
)

# Frozen closed-form values, computed from the integral formulas by hand.
EXP_MINUS_ONE = 0.36787944117144233
INNER_SAME_G4_S1 = 0.7071067811865476  # sqrt(gamma2 / (4 sigma2 + gamma2)), d=1
INNER_DIST2_G4_S1 = 0.42888194248035344  # times exp(-4/8)
PT_INNER_AT_THETA = 0.816496580927726  # sqrt(gamma2 / (2 sigma2 + gamma2))
PT_INNER_AT_THETA_P1 = 0.6911494341909904


def brute_gram(kernel, x, y):
    out = np.empty((len(x), len(y)))
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            d = xi - yj
            out[i, j] = math.exp(-float(np.dot(d, d)) / kernel.gamma2)
    return out


def test_kernel_value_at_unit_scaled_distance():
    k = GaussianKernel(4.0)
    assert k(np.array([0.0]), np.array([2.0])) == pytest.approx(EXP_MINUS_ONE, rel=1e-15)
    assert k(np.zeros(3), np.zeros(3)) == 1.0


def test_default_bandwidth_is_dimension():
    assert GaussianKernel.default_for_dim(7).gamma2 == 7.0
    assert GaussianKernel.default_for_dim(1).gamma2 == 1.0


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)
    with pytest.raises(ValueError):
        GaussianKernel(-1.5)


def test_dimension_mismatch_rejected():
    k = GaussianKernel(2.0)
    with pytest.raises(ValueError):
        k(np.zeros(2), np.zeros(3))


def test_gram_matches_brute_force():
    rng = np.random.default_rng(42)
    k = GaussianKernel(3.0)
    x = rng.standard_normal((17, 2))
    y = rng.standard_normal((9, 2))
    np.testing.assert_allclose(_gram_block(k, x, y), brute_gram(k, x, y), rtol=1e-12, atol=1e-15)


def test_gram_one_dimensional_input():
    rng = np.random.default_rng(1)
    k = GaussianKernel(1.0)
    x = rng.standard_normal(11)
    g = _gram_block(k, x[:, None], x[:, None])
    assert g.shape == (11, 11)
    np.testing.assert_allclose(g, g.T, rtol=0, atol=0)
    np.testing.assert_array_equal(np.diag(g), np.ones(11))
    # gram_sum reads 1-D input as n scalars
    assert gram_sum(k, x, x) == gram_sum(k, x[:, None], x[:, None])


def test_self_sq_is_row_norms():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 4))
    np.testing.assert_allclose(self_sq(x), (x**2).sum(axis=1), rtol=1e-15)


def test_gram_sum_matches_brute_force():
    rng = np.random.default_rng(7)
    k = GaussianKernel(2.5)
    x = rng.standard_normal((23, 3))
    y = rng.standard_normal((31, 3))
    brute = math.fsum(brute_gram(k, x, y).ravel())
    assert gram_sum(k, x, y) == pytest.approx(brute, rel=1e-13)


def test_gram_sum_blocked_path_consistent():
    # crosses the block boundary so the fsum-over-blocks path is exercised
    rng = np.random.default_rng(11)
    k = GaussianKernel(1.0)
    x = rng.standard_normal(GRAM_BLOCK + 700)
    total = gram_sum(k, x, x)
    direct = float(_gram_block(k, x[:, None], x[:, None]).sum())
    assert total == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_gram_sum_far_outlier_stays_finite(d):
    # a norm expansion gives inf - inf = nan for a point at 1e200; the
    # per-coordinate differences give a kernel value of exactly 0
    rng = np.random.default_rng(12)
    k = GaussianKernel(1.0)
    x = rng.standard_normal((40, d))
    far = x.copy()
    far[0] = 1e200
    expected = gram_sum(k, x[1:], x[1:]) + 1.0
    assert gram_sum(k, far, far) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("far", [1e200, 1e308])
@pytest.mark.parametrize("d", [1, 3])
def test_gram_far_point_has_unit_diagonal(d, far):
    # a norm expansion gives inf - inf = nan on the diagonal at the far point
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, d))
    x[-1] = far
    with np.errstate(over="ignore"):
        g = _gram_block(GaussianKernel(1.0), x, x)
    np.testing.assert_array_equal(np.diag(g), np.ones(5))
    assert np.all(np.isfinite(g))
    np.testing.assert_array_equal(g[-1, :-1], 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gram_entries_bounded_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 2)) * 3.0
    g = _gram_block(GaussianKernel(1.7), x, x)
    assert np.all(g > 0.0) and np.all(g <= 1.0)
    np.testing.assert_allclose(g, g.T, rtol=0, atol=0)


def test_embedding_inner_frozen_values():
    k = GaussianKernel(4.0)
    same = gaussian_embedding_inner(k, np.array([1.3]), np.array([1.3]), 1.0)
    assert same == pytest.approx(INNER_SAME_G4_S1, rel=1e-15)
    apart = gaussian_embedding_inner(k, np.array([0.0]), np.array([2.0]), 1.0)
    assert apart == pytest.approx(INNER_DIST2_G4_S1, rel=1e-15)


def test_embedding_inner_matches_double_quadrature():
    # E_{X~N(t,s2), Y~N(t',s2)} k(X,Y) by brute double integration
    k = GaussianKernel(2.0)
    t, tp, s2 = 0.3, -0.9, 0.7

    def integrand(y, x):
        return (
            math.exp(-((x - y) ** 2) / k.gamma2)
            * math.exp(-((x - t) ** 2) / (2 * s2))
            * math.exp(-((y - tp) ** 2) / (2 * s2))
            / (2 * math.pi * s2)
        )

    val, err = integrate.dblquad(integrand, -9, 9, -9, 9, epsabs=1e-11)
    got = gaussian_embedding_inner(k, np.array([t]), np.array([tp]), s2)
    assert got == pytest.approx(val, abs=max(1e-9, 10 * err))


def test_embedding_inner_product_over_dimensions():
    k = GaussianKernel(4.0)
    t = np.array([0.0, 1.0, -2.0])
    tp = np.array([0.5, 1.0, -1.0])
    got = gaussian_embedding_inner(k, t, tp, 1.0)
    per_dim = [
        gaussian_embedding_inner(k, np.array([a]), np.array([b]), 1.0) for a, b in zip(t, tp)
    ]
    assert got == pytest.approx(np.prod(per_dim), rel=1e-13)


def test_point_embedding_inner_frozen_values():
    k = GaussianKernel(4.0)
    theta = np.array([0.7])
    assert point_embedding_inner(k, theta, theta, 1.0)[0, 0] == pytest.approx(
        PT_INNER_AT_THETA, rel=1e-15
    )
    assert point_embedding_inner(k, theta + 1.0, theta, 1.0)[0, 0] == pytest.approx(
        PT_INNER_AT_THETA_P1, rel=1e-15
    )


def test_point_embedding_inner_matches_quadrature():
    k = GaussianKernel(1.5)
    theta, s2, x = 0.4, 1.3, -0.8

    def integrand(t):
        return math.exp(-((x - t) ** 2) / k.gamma2) * math.exp(
            -((t - theta) ** 2) / (2 * s2)
        ) / math.sqrt(2 * math.pi * s2)

    val, err = integrate.quad(integrand, -12, 12, epsabs=1e-12)
    got = point_embedding_inner(k, np.array([x]), np.array([theta]), s2)[0, 0]
    assert got == pytest.approx(val, abs=max(1e-10, 10 * err))


def test_point_embedding_inner_batch_matches_scalar():
    rng = np.random.default_rng(5)
    k = GaussianKernel(3.0)
    theta = np.array([0.2, -0.4])
    xs = rng.standard_normal((12, 2))
    batch = point_embedding_inner(k, xs, theta, 0.9)
    assert batch.shape == (1, 12)
    for i in range(12):
        assert batch[0, i] == pytest.approx(
            point_embedding_inner(k, xs[i : i + 1], theta, 0.9)[0, 0], rel=1e-14
        )
    # a (T, d) stack of locations: one row of values per location, bitwise
    thetas = np.array([theta, theta + 1.0, [1e200, -3.0]])
    stack = point_embedding_inner(k, xs, thetas, 0.9)
    assert stack.shape == (3, 12)
    for t in range(3):
        assert stack[t].tobytes() == point_embedding_inner(k, xs, thetas[t], 0.9)[0].tobytes()
    assert point_embedding_inner(k, xs[:1], thetas, 0.9).tobytes() == stack[:, :1].tobytes()


@given(
    st.floats(0.2, 8.0),
    st.floats(0.1, 4.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_embedding_inner_is_maximal_at_equal_means(gamma2, sigma2, a, b):
    k = GaussianKernel(gamma2)
    same = gaussian_embedding_inner(k, np.array([a]), np.array([a]), sigma2)
    cross = gaussian_embedding_inner(k, np.array([a]), np.array([b]), sigma2)
    assert cross <= same + 1e-15
    assert 0.0 < cross <= 1.0
