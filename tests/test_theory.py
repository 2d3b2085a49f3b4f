import math

import numpy as np
import pytest

from mmdvi.kernel import GaussianKernel
from mmdvi.mmd import mmd2_gaussian_closed
from mmdvi.theory import (
    ball_radius,
    certificate_row,
    exact_ball_radius,
    extended_prior_mass_construction,
    prior_mass_lower_bound,
)
from mmdvi.vi import MeanFieldGaussian, kl_to_standard_prior

# hand-evaluated at n=200, sigma2=1, gamma2=4, dim=1:
# s_n = sqrt(8/400) * 2^(1/4)
S_N_REF = 0.1681792830507429
# report at theta* = 2 for the same setup
MASS_REF = 0.012790958025389975
BETA_MIN_REF = 871.803352388806
F_REF = 2.3505007017252164
# extended construction, same setup: rho^2 = (8/400) * sqrt(2)
RHO_VAR_REF = 0.028284271247461898
KL_REF = 3.296866843197818
INTEGRAL_REF = 0.004973638785070679


def test_ball_radius_frozen_value():
    assert ball_radius(200, 1.0, 4.0, 1) == pytest.approx(S_N_REF, rel=1e-15)


def test_ball_radius_rate_in_n():
    # s_n scales as n^(-1/2) at fixed (sigma2, gamma2, d)
    r1 = ball_radius(100, 1.0, 4.0, 3)
    r4 = ball_radius(400, 1.0, 4.0, 3)
    assert r1 / r4 == pytest.approx(2.0, rel=1e-12)


def test_input_validation():
    for bad in [(0, 1.0, 4.0, 1), (10, 0.0, 4.0, 1), (10, 1.0, -4.0, 1), (10, 1.0, 4.0, 0)]:
        with pytest.raises(ValueError):
            ball_radius(*bad)
    with pytest.raises(ValueError):
        prior_mass_lower_bound(np.array([0.0]), 0, 1.0, 4.0)
    with pytest.raises(ValueError):
        extended_prior_mass_construction(np.array([0.0]), 10, 1.0, 0.0)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("theta_star", {"theta_star": [math.nan]}),
        ("theta_star", {"theta_star": [1.0, math.inf]}),
        ("dim", {"theta_star": np.zeros(0)}),
        ("n", {"n": 2.5}),
        ("n", {"n": True}),
        ("n", {"n": 0}),
        ("sigma2", {"sigma2": math.inf}),
        ("sigma2", {"sigma2": 0.0}),
        ("gamma2", {"gamma2": math.inf}),
        ("gamma2", {"gamma2": math.nan}),
    ],
)
def test_certificates_reject_bad_inputs_naming_the_field(field, bad):
    args = {"theta_star": np.array([2.0]), "n": 200, "sigma2": 1.0, "gamma2": 4.0, **bad}
    for certificate in (prior_mass_lower_bound, extended_prior_mass_construction):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            certificate(**args)


@pytest.mark.parametrize("field, bad", [("n", {"n": True}), ("dim", {"dim": 1.5}),
                                        ("dim", {"dim": 0}), ("gamma2", {"gamma2": math.inf})])
def test_radii_reject_bad_inputs_naming_the_field(field, bad):
    args = {"n": 200, "sigma2": 1.0, "gamma2": 4.0, "dim": 1, **bad}
    for radius in (ball_radius, exact_ball_radius):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            radius(**args)


def test_certificate_row_lists_each_quantity_once():
    rep = prior_mass_lower_bound(np.array([2.0]), 200, 1.0, 4.0)
    ext = extended_prior_mass_construction(np.array([2.0]), 200, 1.0, 4.0)
    row = certificate_row(rep, ext)
    assert list(row)[:2] == ["n", "dim"]
    assert list(row)[-4:] == ["rho_variance", "kl_value", "mmd_integral_bound",
                              "beta_min_extended"]
    assert len(row) == 14 and row["s_n"] == rep.s_n and row["kl_value"] == ext.kl_value


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_ball_radius_is_inside_mmd_ball(dim):
    # every point at distance s_n from theta* has squared MMD at most 1/n
    n, sigma2, gamma2 = 100, 1.0, float(dim)
    r = ball_radius(n, sigma2, gamma2, dim)
    kernel = GaussianKernel(gamma2)
    rng = np.random.default_rng(123)
    theta_star = rng.standard_normal(dim)
    u = rng.standard_normal((1000, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for point in theta_star + r * u:
        assert mmd2_gaussian_closed(kernel, point, theta_star, sigma2) <= 1.0 / n + 1e-12


def test_exact_ball_radius_dominates_sufficient_radius():
    for dim in (1, 2, 5):
        r_suff = ball_radius(200, 1.0, 4.0, dim)
        r_exact = exact_ball_radius(200, 1.0, 4.0, dim)
        assert r_exact >= r_suff
    # at the exact radius the closed-form MMD hits the threshold
    r = exact_ball_radius(200, 1.0, 4.0, 1)
    k = GaussianKernel(4.0)
    val = mmd2_gaussian_closed(k, np.array([r]), np.array([0.0]), 1.0)
    assert val == pytest.approx(1.0 / 200, rel=1e-12)


def test_exact_ball_radius_infinite_when_mmd_stays_small():
    # in high dimension the closed-form MMD never reaches 1/n
    assert exact_ball_radius(100, 1.0, 4.0, 50) == math.inf


def test_prior_mass_report_frozen_values():
    rep = prior_mass_lower_bound(np.array([2.0]), 200, 1.0, 4.0)
    assert rep.dim == 1 and rep.n == 200
    assert rep.s_n == pytest.approx(S_N_REF, rel=1e-15)
    assert rep.f_theta_star == pytest.approx(F_REF, rel=1e-14)
    assert rep.mass_lower_bound == pytest.approx(MASS_REF, rel=1e-13)
    assert rep.beta_min == pytest.approx(BETA_MIN_REF, rel=1e-13)
    assert rep.log_mass_lower_bound == pytest.approx(math.log(MASS_REF), rel=1e-13)


def test_f_at_origin_is_half_radius_squared():
    rep = prior_mass_lower_bound(np.zeros(2), 300, 1.0, 2.0)
    assert rep.theta_star_norm == 0.0
    assert rep.f_theta_star == pytest.approx(0.5 * rep.s_n**2, rel=1e-14)


def test_mass_bound_monotone_in_distance_from_origin():
    reps = [prior_mass_lower_bound(np.array([t, 0.0]), 200, 1.0, 4.0) for t in (0.0, 1.0, 3.0, 6.0)]
    masses = [r.mass_lower_bound for r in reps]
    betas = [r.beta_min for r in reps]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert all(a < b for a, b in zip(betas, betas[1:]))


def test_mass_bound_below_monte_carlo_mass():
    # the certificate must sit below the actual prior mass of the ball
    n, sigma2, gamma2 = 200, 1.0, 4.0
    rng = np.random.default_rng(31415)
    draws = rng.standard_normal(1_000_000)
    r = ball_radius(n, sigma2, gamma2, 1)
    for t in (0.0, 2.0, 5.0):
        rep = prior_mass_lower_bound(np.array([t]), n, sigma2, gamma2)
        p_hat = float(np.mean(np.abs(draws - t) <= r))
        se = math.sqrt(p_hat * (1.0 - p_hat) / draws.size)
        assert rep.mass_lower_bound <= p_hat + 4.0 * se, (t, rep.mass_lower_bound, p_hat)


def test_mass_bound_finite_in_dimension_50():
    rep = prior_mass_lower_bound(np.full(50, 0.3), 500, 1.0, 50.0)
    assert math.isfinite(rep.log_mass_lower_bound)
    assert math.isfinite(rep.beta_min)
    assert 0.0 < rep.mass_lower_bound < 1.0


def test_extended_report_frozen_values():
    rep = extended_prior_mass_construction(np.array([2.0]), 200, 1.0, 4.0)
    assert rep.rho_variance == pytest.approx(RHO_VAR_REF, rel=1e-14)
    assert rep.kl_value == pytest.approx(KL_REF, rel=1e-14)
    assert rep.mmd_integral_bound == pytest.approx(INTEGRAL_REF, rel=1e-13)
    assert rep.beta_min_extended == pytest.approx(200 * KL_REF, rel=1e-14)


def test_extended_integral_is_at_most_one_over_n():
    for dim in (1, 2, 5, 15, 50):
        for n in (10, 200, 10_000):
            for gamma2 in (1.0, float(dim), 4.0 * dim):
                rep = extended_prior_mass_construction(np.zeros(dim), n, 1.0, gamma2)
                assert rep.mmd_integral_bound <= 1.0 / n
                assert rep.mmd_integral_bound > 0.0


def test_extended_kl_matches_diagonal_gaussian_formula():
    rep = extended_prior_mass_construction(np.zeros(1), 200, 1.0, 4.0)
    s = math.sqrt(rep.rho_variance)
    direct = kl_to_standard_prior(MeanFieldGaussian(m=[0.0], s=[s]))
    assert rep.kl_value == pytest.approx(direct, rel=1e-14)


def test_extended_integral_against_monte_carlo():
    # average the closed-form squared MMD over theta ~ N(theta*, rho^2)
    rep = extended_prior_mass_construction(np.array([2.0]), 200, 1.0, 4.0)
    a4 = 4.0 * 1.0 + 4.0
    c = (4.0 / a4) ** 0.5
    rng = np.random.default_rng(271828)
    z = rng.standard_normal(1_000_000)
    shift2 = rep.rho_variance * z**2
    vals = 2.0 * c * (-np.expm1(-shift2 / a4))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - rep.mmd_integral_bound) < 4 * se


def test_beta_min_scales_with_n_and_parameter_size():
    # beta_min should track n * max(||theta*||^2, d) within a dimension-free factor
    for dim in (1, 2, 5, 15):
        for n in (50, 200, 1000):
            for norm in (1.0, 3.0, 8.0):
                theta = np.full(dim, norm / math.sqrt(dim))
                rep = prior_mass_lower_bound(theta, n, 1.0, float(dim))
                ratio = rep.beta_min / (n * max(norm**2, dim))
                assert 0.2 < ratio < 20.0, (dim, n, norm, ratio)
