import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from mmdvi.kernel import GaussianKernel, gram_sum, point_embedding_inner
from mmdvi.mmd import data_kernel_term, mmd2_model_vs_empirical, mmd2_ustat, mmd2_vstat
from mmdvi.models import GAUSSIAN, UNIFORM, ModelSpec, sample, uniform_point_expectation
from mmdvi.vi import (
    FOLD_BOUND,
    MOMENT_ORDER,
    MOMENT_TAU,
    FitConfig,
    MeanFieldGaussian,
    _block_size,
    _collapsed,
    _data_grads,
    _direct_sums,
    _grads,
    _kernel_c,
    _lift,
    _moment_sums,
    _right,
    fit,
    fit_batched,
    grad_estimate,
    kl_to_standard_prior,
    objective_exact,
)

# KL(N(1, 2^2) || N(0, 1)) = 0.5 * (1 + 4 - log 4 - 1) = 2 - log 2
KL_M1_S2 = 1.3068528194400546
# for s = (2, 0.5) the log terms cancel: 0.5 * (1 + 4 + 1 + 0.25 - 2)
KL_2D = 2.125


def test_kl_frozen_values():
    assert kl_to_standard_prior(MeanFieldGaussian(m=[1.0], s=[2.0])) == pytest.approx(
        KL_M1_S2, abs=1e-15
    )
    q = MeanFieldGaussian(m=[1.0, -1.0], s=[2.0, 0.5])
    assert kl_to_standard_prior(q) == pytest.approx(KL_2D, abs=1e-15)
    # exactly zero at the prior
    assert kl_to_standard_prior(MeanFieldGaussian(m=np.zeros(3), s=np.ones(3))) == 0.0


def test_mean_field_gaussian_validation():
    with pytest.raises(ValueError):
        MeanFieldGaussian(m=[0.0, 0.0], s=[1.0])
    with pytest.raises(ValueError):
        MeanFieldGaussian(m=[0.0], s=[0.0])
    with pytest.raises(ValueError):
        MeanFieldGaussian(m=[0.0], s=[-1.0])


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(beta_log=math.nan)
    with pytest.raises(ValueError):
        FitConfig(n_particles=1)
    with pytest.raises(ValueError):
        FitConfig(n_steps=0)
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="step_scale"):
            FitConfig(step_scale=bad)
    with pytest.raises(ValueError):
        FitConfig(s_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        FitConfig(m_bounds=(1.0, -1.0))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: FitConfig(n_steps=2.5), "n_steps"),
        (lambda: FitConfig(n_steps=True), "n_steps"),
        (lambda: FitConfig(n_steps=np.float64(3.0)), "n_steps"),
        (lambda: FitConfig(n_particles=3.5), "n_particles"),
        (lambda: FitConfig(n_particles=False), "n_particles"),
        (lambda: ModelSpec.gaussian(1.5), "dim"),
        (lambda: ModelSpec.uniform(True), "dim"),
    ],
    ids=["steps-float", "steps-bool", "steps-numpy-float", "particles-float", "particles-bool",
         "gaussian-dim-float", "uniform-dim-bool"],
)
def test_integer_fields_reject_non_integers(make, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= \d, got "):
        make()
    FitConfig(n_steps=np.int64(3), n_particles=np.int32(4))  # numpy integers are integers


def test_fit_config_benchmark_defaults():
    cfg = FitConfig.benchmark(200, 1)
    assert cfg.beta_log == 200.0
    assert cfg.n_particles == 200
    assert cfg.n_steps == 1000
    assert cfg.step_scale == 1.0
    cfg15 = FitConfig.benchmark(200, 15, n_steps=50)
    assert cfg15.beta_log == 3000.0
    assert cfg15.n_steps == 50


def test_fit_config_benchmark_applies_overrides_before_validating():
    # n = 1 alone would mean one particle, which is invalid; the override
    # replaces it before the check runs
    cfg = FitConfig.benchmark(1, 1, n_particles=5)
    assert cfg.n_particles == 5
    assert cfg.beta_log == 1.0


def test_inv_beta_sentinel():
    assert FitConfig(beta_log=math.inf).inv_beta == 0.0
    assert FitConfig(beta_log=0.0).inv_beta == 1.0
    assert FitConfig(beta_log=math.log(4.0)).inv_beta == pytest.approx(0.25, rel=1e-15)



@pytest.mark.parametrize(
    "beta_log", [math.nan, -math.inf, -1000.0, -709.79], ids=["nan", "-inf", "-1000", "-709.79"]
)
def test_beta_log_whose_inverse_overflows_is_rejected(beta_log):
    with pytest.raises(ValueError, match=r"^beta_log must be inf or >= -709.78, got "):
        FitConfig(beta_log=beta_log)
    q = MeanFieldGaussian(m=[0.0], s=[1.0])
    data = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"^beta_log must be inf or >= -709.78, got "):
        objective_exact(q, data, ModelSpec.gaussian(1), GaussianKernel(1.0), beta_log=beta_log)


def test_beta_log_at_the_overflow_edge_is_accepted():
    inv_beta = FitConfig(beta_log=-math.log(np.finfo(float).max)).inv_beta
    assert 1e308 < inv_beta < math.inf

def _fd_gradient(f, m, s, h=1e-5):
    """Central finite differences of f(m, s) in every coordinate of m and s."""
    d = m.size
    g_m = np.empty(d)
    g_s = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        g_m[j] = (f(m + e, s) - f(m - e, s)) / (2 * h)
        g_s[j] = (f(m, s + e) - f(m, s - e)) / (2 * h)
    return g_m, g_s


def _averaged_grad(q, data, model, kernel, config, seed, reps):
    rng = np.random.default_rng(seed)
    gm = np.empty((reps, q.dim))
    gs = np.empty((reps, q.dim))
    for r in range(reps):
        g = grad_estimate(q, data, model, kernel, config, rng)
        gm[r], gs[r] = g.g_m, g.g_s
    return gm, gs


def _assert_mean_matches(samples, target, slack=0.0):
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    assert np.all(np.abs(mean - target) <= 4 * se + slack), (mean, target, se)


def test_closed_form_gradient_unbiased_gaussian():
    # the averaged stochastic gradient has to match finite differences of the
    # deterministic objective, which integrates the particles exactly
    rng = np.random.default_rng(42)
    model = ModelSpec.gaussian(2, sigma2=1.0)
    kernel = GaussianKernel.default_for_dim(2)
    data = sample(model, np.array([0.5, -1.0]), 30, rng)
    q = MeanFieldGaussian(m=[0.3, -0.6], s=[0.8, 1.2])
    config = FitConfig(beta_log=5.0, n_particles=64)

    def f(m, s):
        return objective_exact(MeanFieldGaussian(m=m, s=s), data, model, kernel, beta_log=5.0)

    fd_m, fd_s = _fd_gradient(f, q.m, q.s)
    gm, gs = _averaged_grad(q, data, model, kernel, config, seed=7, reps=400)
    _assert_mean_matches(gm, fd_m)
    _assert_mean_matches(gs, fd_s)


def test_closed_form_gradient_unbiased_uniform():
    rng = np.random.default_rng(43)
    model = ModelSpec.uniform(1, half_width=0.5)
    kernel = GaussianKernel.default_for_dim(1)
    data = sample(model, np.array([1.0]), 25, rng)
    q = MeanFieldGaussian(m=[0.9], s=[0.5])
    config = FitConfig(n_particles=64)

    def f(m, s):
        return objective_exact(MeanFieldGaussian(m=m, s=s), data, model, kernel)

    fd_m, fd_s = _fd_gradient(f, q.m, q.s)
    gm, gs = _averaged_grad(q, data, model, kernel, config, seed=8, reps=400)
    # the central differences are exact to ~1e-10, leave a hair of slack
    _assert_mean_matches(gm, fd_m, slack=1e-8)
    _assert_mean_matches(gs, fd_s, slack=1e-8)


def test_grad_estimate_dimension_checks():
    model = ModelSpec.gaussian(2)
    kernel = GaussianKernel.default_for_dim(2)
    q1 = MeanFieldGaussian(m=[0.0], s=[1.0])
    with pytest.raises(ValueError):
        grad_estimate(q1, np.zeros((10, 2)), model, kernel, FitConfig(), np.random.default_rng(0))
    q2 = MeanFieldGaussian(m=[0.0, 0.0], s=[1.0, 1.0])
    with pytest.raises(ValueError):
        # a single data point with n_particles unset means one particle
        grad_estimate(q2, np.zeros((1, 2)), model, kernel, FitConfig(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1)], ids=["gaussian", "uniform"]
)
def test_objective_exact_rejects_q_of_another_dimension(model):
    q = MeanFieldGaussian(m=[0.0, 0.0], s=[1.0, 1.0])
    data = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="q has dimension 2, model has dim 1"):
        objective_exact(q, data, model, GaussianKernel(1.0))


def _objective_by_quad(q, data, model, kernel):
    """``int N(theta | m, s^2) MMD^2(P_theta, P_hat_n) dtheta`` by adaptive
    quadrature, for a 1-D ``q`` and beta = inf."""
    m, s = float(q.m[0]), float(q.s[0])
    dterm = data_kernel_term(kernel, data)

    def integrand(theta):
        mmd2 = mmd2_model_vs_empirical(kernel, model, np.array([theta]), data, data_term=dterm)
        return math.exp(-0.5 * ((theta - m) / s) ** 2) / (s * math.sqrt(2 * math.pi)) * mmd2

    val, _ = integrate.quad(integrand, m - 14 * s, m + 14 * s, points=[m], epsabs=0,
                            epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize(
    "model, m, s, far",
    [
        (ModelSpec.gaussian(1), 1.0, 0.7, False),
        (ModelSpec.uniform(1), 1.0, 0.7, False),
        (ModelSpec.gaussian(1, sigma2=0.5), 5.0, 3.0, True),
        (ModelSpec.uniform(1), 5.0, 3.0, True),
        (ModelSpec.uniform(1, half_width=0.3), -2.0, 0.4, False),
    ],
    ids=["gaussian", "uniform", "gaussian-far", "uniform-far", "uniform-narrow"],
)
def test_objective_exact_matches_quad_oracle(model, m, s, far):
    # objective_exact integrates the particles out in closed form; the oracle
    # integrates the exact plug-in MMD^2 against N(m, s^2) numerically.  A
    # 128-node Gauss-Hermite rule misses uniform-far by ~1e-8 relative.
    kernel = GaussianKernel.default_for_dim(1)
    data = sample(model, np.array([1.2]), 30, np.random.default_rng(46))
    if far:
        data[:3] = 20.0
    q = MeanFieldGaussian(m=[m], s=[s])
    want = _objective_by_quad(q, data, model, kernel)
    assert objective_exact(q, data, model, kernel) == pytest.approx(want, rel=1e-12, abs=0)


def test_fit_trace_layout_and_init():
    rng = np.random.default_rng(5)
    model = ModelSpec.gaussian(1)
    data = sample(model, np.array([2.0]), 40, rng)
    config = FitConfig.benchmark(40, 1, n_steps=50)
    res = fit(data, model, config=config)
    tr = res.trace
    assert len(tr) == 51
    np.testing.assert_array_equal(tr.t, np.arange(51))
    assert tr.m.shape == (51, 1) and tr.s.shape == (51, 1)
    # row 0 is the projected start: data median, unit scale
    assert tr.m[0, 0] == np.median(data)
    assert tr.s[0, 0] == 1.0
    assert math.isnan(tr.grad_norm_m[0]) and math.isnan(tr.grad_norm_s[0])
    assert np.all(np.isfinite(tr.grad_norm_m[1:]))
    assert np.all(np.isfinite(tr.objective))
    np.testing.assert_array_equal(tr.m[-1], res.q.m)
    np.testing.assert_array_equal(tr.s[-1], res.q.s)


def test_fit_is_bitwise_deterministic():
    rng = np.random.default_rng(6)
    model = ModelSpec.gaussian(1)
    data = sample(model, np.array([2.0]), 30, rng)
    config = FitConfig.benchmark(30, 1, n_steps=40)
    a = fit(data, model, config=config)
    b = fit(data, model, config=config)
    np.testing.assert_array_equal(a.trace.m, b.trace.m)
    np.testing.assert_array_equal(a.trace.s, b.trace.s)
    np.testing.assert_array_equal(a.trace.objective, b.trace.objective)


def test_fit_respects_boxes():
    rng = np.random.default_rng(7)
    model = ModelSpec.gaussian(1)
    data = 2.0 + rng.standard_normal((30, 1))
    config = FitConfig.benchmark(
        30, 1, n_steps=60, m_bounds=(-0.5, 0.5), s_bounds=(0.2, 0.8)
    )
    with pytest.warns(RuntimeWarning, match=r"m_bounds \(-0\.5, 0\.5\) clamped m on \d+ of 61 "):
        res = fit(data, model, config=config)
    tr = res.trace
    assert np.all(tr.m >= -0.5) and np.all(tr.m <= 0.5)
    assert np.all(tr.s >= 0.2) and np.all(tr.s <= 0.8)
    # the optimum sits beyond the box, so the iterate pins to the edge
    assert res.q.m[0] == 0.5


def test_fit_warns_when_the_default_m_box_clamps():
    rng = np.random.default_rng(9)
    model = ModelSpec.gaussian(1)
    data = sample(model, np.array([2.0]), 50, rng)
    config = FitConfig.benchmark(50, 1, n_steps=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(data, model, config=config)  # inside the box: no warning
    # the start is clamped from the median ~1e7 to 1e6, where the kernel
    # weights vanish and no step moves m again
    with pytest.warns(RuntimeWarning, match=r"clamped m on 1 of 21 projections") as caught:
        res = fit(data + 1e7, model, config=config)
    assert len(caught) == 1
    assert res.q.m[0] == 1e6


def test_fit_batched_clamp_warning_names_the_first_dataset():
    model = ModelSpec.gaussian(1)
    rng = np.random.default_rng(10)
    data = np.stack([sample(model, np.array([2.0]), 30, rng) for _ in range(4)])
    data[2] -= 1e7
    data[3] += 1e7
    with pytest.warns(RuntimeWarning, match=r"in 2 of 4 datasets, first dataset 2 on 1 of 6 "):
        m, _ = fit_batched(
            data, model, GaussianKernel(1.0), FitConfig.benchmark(30, 1, n_steps=5),
            [np.random.default_rng(i) for i in range(4)],
        )
    # clamped at the start; the regulariser then pulls m a hair inside
    np.testing.assert_allclose(m[2:, 0], [-1e6, 1e6], rtol=1e-9)


def test_fit_validation():
    model = ModelSpec.gaussian(1)
    with pytest.raises(ValueError):
        fit(np.empty((0, 1)), model)
    with pytest.raises(ValueError):
        fit(np.zeros((5, 2)), model)


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1)], ids=["gaussian", "uniform"]
)
def test_fit_batched_single_matches_fit(model):
    rng = np.random.default_rng(8)
    theta = np.array([1.5])
    data = sample(model, theta, 25, rng)
    config = FitConfig.benchmark(25, 1, n_steps=30)
    kernel = GaussianKernel.default_for_dim(1)

    seed = np.random.SeedSequence(99)
    solo = fit(data, model, kernel=kernel, config=config, rng=np.random.default_rng(seed))
    m, s = fit_batched(
        data[None], model, kernel, config, [np.random.default_rng(seed)], dtype=np.float64
    )
    # same generator stream and same float64 arithmetic: identical, not close
    np.testing.assert_array_equal(m[0], solo.q.m)
    np.testing.assert_array_equal(s[0], solo.q.s)


def test_fit_batched_stack_matches_individual_runs():
    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel.default_for_dim(1)
    config = FitConfig.benchmark(20, 1, n_steps=25)
    rng = np.random.default_rng(10)
    data = np.stack([sample(model, np.array([2.0]), 20, rng) for _ in range(3)])

    m, s = fit_batched(
        data,
        model,
        kernel,
        config,
        [np.random.default_rng(np.random.SeedSequence(200 + r)) for r in range(3)],
        dtype=np.float64,
    )
    for r in range(3):
        solo = fit(
            data[r],
            model,
            kernel=kernel,
            config=config,
            rng=np.random.default_rng(np.random.SeedSequence(200 + r)),
        )
        np.testing.assert_array_equal(m[r], solo.q.m)
        np.testing.assert_array_equal(s[r], solo.q.s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1)], ids=["gaussian", "uniform"]
)
def test_fit_batched_blocks_match_single_runs(model, dtype):
    r, n = 13, 200
    block = _block_size(n, n, dtype)
    assert -(-r // block) >= 3  # at least three blocks, the last one partial if block > 1
    rng = np.random.default_rng(60)
    data = np.stack([sample(model, np.array([1.0]), n, rng) for _ in range(r)])
    data[:, :10] = 8.0 + rng.standard_normal((r, 10, 1))
    kernel = GaussianKernel.default_for_dim(1)
    config = FitConfig.benchmark(n, 1, n_steps=6)

    def rngs(rows):
        return [np.random.default_rng(np.random.SeedSequence((61, i))) for i in rows]

    m, s = fit_batched(data, model, kernel, config, rngs(range(r)), dtype=dtype)
    for i in range(r):
        m1, s1 = fit_batched(data[i : i + 1], model, kernel, config, rngs([i]), dtype=dtype)
        np.testing.assert_array_equal(m[i], m1[0])
        np.testing.assert_array_equal(s[i], s1[0])


@st.composite
def _lifted_operands(draw, dtype):
    """Two (1, k, d) stacks of floats within the clip bound
    ``sqrt(finfo.max / (4 d))``, with signed zeros and subnormals among them,
    and a scale ``c`` in (0, 1/2]."""
    d = draw(st.sampled_from([1, 2, 3, 15]))
    # one ulp inside, as casting the bound to dtype may round it up
    big = float(np.nextafter(dtype(math.sqrt(float(np.finfo(dtype).max) / (4 * d))), dtype(0)))
    elements = st.floats(-big, big, width=np.finfo(dtype).bits) | st.sampled_from(
        [0.0, -0.0, float(np.finfo(dtype).smallest_subnormal), big, -big]
    )
    p, q = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a = draw(hnp.arrays(dtype, (1, p, d), elements=elements))
    b = draw(hnp.arrays(dtype, (1, q, d), elements=elements))
    c = draw(st.floats(2.0**-20, 0.5))
    return a, b, c


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lifted_exponent_is_finite_and_within_its_rounding_bound(dtype, data):
    # lift(a) @ right(b, c) expands -c |a_i - b_j|^2; each entry rounds to
    # within (2d + 6) u c (|a_i| + |b_j|)^2 of it, u the unit roundoff, plus
    # a few smallest normals where terms underflow
    a, b, c = data.draw(_lifted_operands(dtype))
    d = a.shape[2]
    lifted = np.matmul(_lift(a), _right(b, c))
    assert lifted.dtype == dtype
    assert np.all(np.isfinite(lifted))
    wide = np.longdouble
    aw, bw = a.astype(wide), b.astype(wide)
    direct = -wide(c) * np.square(aw[:, :, None, :] - bw[:, None, :, :]).sum(axis=3)
    norm_a, norm_b = np.sqrt(np.square(aw).sum(axis=2)), np.sqrt(np.square(bw).sum(axis=2))
    info = np.finfo(dtype)
    bound = (2 * d + 6) * (wide(info.eps / 2) * wide(c) * (norm_a[:, :, None] + norm_b[:, None, :]) ** 2
                           + wide(info.smallest_normal))
    assert np.all(np.abs(lifted.astype(wide) - direct) <= bound)


def _with_row(value, kind):
    rng = np.random.default_rng(62)
    model = ModelSpec.gaussian(1) if kind == GAUSSIAN else ModelSpec.uniform(1)
    data = np.stack([sample(model, np.array([2.0]), 50, rng) for _ in range(2)])
    data[1, 7, 0] = value
    return model, data


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM])
def test_fit_batched_float32_outlier_beyond_range_stays_finite(kind):
    # 1e300 is inf in float32; clipped to the float32 maximum, its kernel
    # weight is exactly zero, as it is for an outlier at 1e38
    results = []
    for value in (1e300, 1e38):
        model, data = _with_row(value, kind)
        rngs = [np.random.default_rng(63 + i) for i in range(2)]
        config = FitConfig.benchmark(50, 1, n_steps=40)
        results.append(fit_batched(
            data, model, GaussianKernel(1.0), config, rngs, dtype=np.float32,
        ))
    (m_far, s_far), (m_near, s_near) = results
    assert np.all(np.isfinite(m_far)) and np.all(np.isfinite(s_far))
    np.testing.assert_array_equal(m_far, m_near)
    np.testing.assert_array_equal(s_far, s_near)


def test_fit_batched_float32_far_outlier_at_d15_stays_finite():
    # |x|^2 of a row at 1e38 (or 1e300, inf once cast) overflows float32;
    # both are clipped to the same bound, where the kernel weight is zero
    results = []
    rng = np.random.default_rng(64)
    clean = np.stack([sample(ModelSpec.gaussian(15), np.full(15, 2.0), 50, rng) for _ in range(2)])
    for value in (1e300, 1e38):
        data = clean.copy()
        data[1, 7] = value
        rngs = [np.random.default_rng(65 + i) for i in range(2)]
        results.append(fit_batched(
            data, ModelSpec.gaussian(15), GaussianKernel(15.0),
            FitConfig.benchmark(50, 15, n_steps=20), rngs, dtype=np.float32,
        ))
    (m_far, s_far), (m_near, s_near) = results
    assert np.all(np.isfinite(m_far)) and np.all(np.isfinite(s_far))
    np.testing.assert_array_equal(m_far, m_near)
    np.testing.assert_array_equal(s_far, s_near)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_row(bad):
    data = np.zeros((30, 2))
    data[4, 1] = bad
    with pytest.raises(ValueError, match=r"data row 4 is not finite"):
        fit(data, ModelSpec.gaussian(2), config=FitConfig(n_steps=2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM])
def test_fit_batched_rejects_non_finite_row(kind, bad):
    model, data = _with_row(1.0, kind)
    data[1, 9, 0] = bad
    data[1, 12, 0] = math.nan
    with pytest.raises(ValueError, match=r"dataset 1, data row 9 is not finite"):
        fit_batched(
            data, model, GaussianKernel(1.0), FitConfig(n_steps=2),
            [np.random.default_rng(i) for i in range(2)],
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM])
def test_gradient_and_objective_reject_non_finite_row(kind, bad):
    model = ModelSpec.gaussian(1) if kind == GAUSSIAN else ModelSpec.uniform(1)
    data = np.zeros((30, 1))
    data[4, 0] = bad
    data[7, 0] = math.nan
    q, kernel = MeanFieldGaussian(m=[0.4], s=[0.7]), GaussianKernel(1.3)
    with pytest.raises(ValueError, match=r"^data row 4 is not finite"):
        grad_estimate(q, data, model, kernel, FitConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^data row 4 is not finite"):
        objective_exact(q, data, model, kernel)


def _gauss_grad_reference(x, particles, z, sigma2, gamma2):
    """Per-pair float64 loop over ``k(x_i, theta_k)`` for the Gaussian model."""
    r, n, d = x.shape
    m_particles = particles.shape[1]
    a2 = 2.0 * sigma2 + gamma2
    scale = -((gamma2 / a2) ** (d / 2.0)) * (2.0 / a2) * 2.0 / (n * m_particles)
    g_m = np.zeros((r, d))
    g_s = np.zeros((r, d))
    for b in range(r):
        for k in range(m_particles):
            for i in range(n):
                diff = [x[b, i, j] - particles[b, k, j] for j in range(d)]
                e = math.exp(-math.fsum(t * t for t in diff) / a2)
                for j in range(d):
                    g_m[b, j] += scale * e * diff[j]
                    g_s[b, j] += scale * e * diff[j] * z[b, k, j]
    return g_m, g_s


def _uniform_grad_reference(x, particles, z, gamma2, half_width):
    """Per-pair float64 loop over the endpoint kernel differences."""
    r, n = x.shape
    m_particles = particles.shape[1]
    scale = -2.0 / (n * m_particles * 2.0 * half_width)
    g_m = np.zeros((r, 1))
    g_s = np.zeros((r, 1))
    for b in range(r):
        for k in range(m_particles):
            for i in range(n):
                up = particles[b, k] + half_width - x[b, i]
                lo = particles[b, k] - half_width - x[b, i]
                g = math.exp(-up * up / gamma2) - math.exp(-lo * lo / gamma2)
                g_m[b, 0] += scale * g
                g_s[b, 0] += scale * g * z[b, k]
    return g_m, g_s


def _stack_inputs(r, n, m_particles, d, seed):
    rng = np.random.default_rng(seed)
    x = 0.5 + rng.standard_normal((r, n, d))
    m = rng.standard_normal((r, 1, d))
    s = 0.5 + rng.random((r, 1, d))
    z = rng.standard_normal((r, m_particles, d))
    return x, m + s * z, z


@pytest.mark.parametrize("d", [1, 15])
def test_gauss_stack_matches_per_pair_reference(d):
    x, particles, z = _stack_inputs(3, 11, 7, d, seed=31 + d)
    g_m, g_s = _data_grads(ModelSpec.gaussian(d), float(d), x, particles, z, _direct_sums,
                           np.empty((3, 11, 7)))
    ref_m, ref_s = _gauss_grad_reference(x, particles, z, 1.0, float(d))
    np.testing.assert_allclose(g_m, ref_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(g_s, ref_s, rtol=1e-12, atol=0)


def _folds(particles, gamma2, half_width):
    """Which datasets of an (R, M) particle stack the uniform kernel folds."""
    return 4.0 * half_width / gamma2 * np.abs(particles).max(axis=1) <= FOLD_BOUND


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("spread, folded", [(0.5, True), (12.0, False)], ids=["folded", "wide"])
def test_uniform_stack_matches_per_pair_reference(spread, folded, dtype):
    x, _, z = (a[..., 0] for a in _stack_inputs(3, 11, 7, 1, seed=33))
    x[:, :2] = (1e6, -1e6)  # points far out on both sides
    x, particles, z = (a.astype(dtype) for a in (x, spread * z, z))
    assert np.all(_folds(particles, 1.0, 1.0) == folded)
    g_m, g_s = _data_grads(ModelSpec.uniform(1, 1.0), 1.0, x[..., None], particles[..., None],
                           z[..., None], _direct_sums, np.empty((3, 11, 7), dtype), folded)
    assert np.all(np.isfinite(g_m)) and np.all(np.isfinite(g_s))
    ref_m, ref_s = _uniform_grad_reference(*(a.astype(np.float64) for a in (x, particles, z)),
                                           1.0, 1.0)
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(g_m, ref_m, rtol=rtol, atol=0)
    np.testing.assert_allclose(g_s, ref_s, rtol=rtol, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_uniform_stack_mixing_wide_and_folded_matches_solo_bitwise(dtype):
    x = _stack_inputs(3, 9, 6, 1, seed=46)[0]
    m, s = np.full((3, 1), 0.2), np.array([[0.5], [12.0], [0.3]])
    model, kernel, config = ModelSpec.uniform(1, 1.0), GaussianKernel(1.0), FitConfig.benchmark(9, 1)

    def grads(rows):
        z, g_m, g_s = np.empty((len(rows), 6, 1)), np.empty((len(rows), 1)), np.empty(
            (len(rows), 1))
        rngs = [np.random.default_rng((47, i)) for i in rows]
        work = np.empty((len(rows), 9, 6), dtype)
        _grads(x[rows], m[rows], s[rows], model, kernel, config, rngs, work, z, g_m, g_s)
        return z, g_m, g_s

    z, g_m, g_s = grads([0, 1, 2])
    assert list(_folds(s * z[..., 0], 1.0, 1.0)) == [True, False, True]
    for r in range(3):
        _, solo_m, solo_s = grads([r])
        np.testing.assert_array_equal(g_m[r], solo_m[0])
        np.testing.assert_array_equal(g_s[r], solo_s[0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 15])
def test_gauss_stack_reused_workspace_is_bitwise_fresh(d, dtype):
    x, particles, z = (a.astype(dtype) for a in _stack_inputs(2, 9, 6, d, seed=40 + d))
    model, work = ModelSpec.gaussian(d), np.full((2, 9, 6), np.nan, dtype)
    # a first call with other particles leaves the buffer dirty
    _data_grads(model, float(d), x, particles + 3.0, z, _direct_sums, work)
    reused = _data_grads(model, float(d), x, particles, z, _direct_sums, work)
    fresh = _data_grads(model, float(d), x, particles, z, _direct_sums, np.empty((2, 9, 6), dtype))
    np.testing.assert_array_equal(reused[0], fresh[0])
    np.testing.assert_array_equal(reused[1], fresh[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_uniform_stack_reused_workspace_is_bitwise_fresh(dtype):
    x, particles, z = (a.astype(dtype) for a in _stack_inputs(2, 9, 6, 1, seed=42))
    model = ModelSpec.uniform(1, 0.5)
    for fold in (True, False):
        work = np.full((2, 9, 6), np.nan, dtype)
        work.reshape(-1)[work.size // 2 :] = np.inf
        _data_grads(model, 1.0, x, particles - 2.0, z, _direct_sums, work, fold)
        reused = _data_grads(model, 1.0, x, particles, z, _direct_sums, work, fold)
        fresh = _data_grads(model, 1.0, x, particles, z, _direct_sums,
                            np.empty((2, 9, 6), dtype), fold)
        np.testing.assert_array_equal(reused[0], fresh[0])
        np.testing.assert_array_equal(reused[1], fresh[1])


def _pair_terms(x, particles, z, model, gamma2):
    """Float64 per-pair terms of the (R, 1) gradients ``g_m`` and ``g_s`` of a
    d = 1 stack, as (R, n, M) arrays; the uniform model's two edges are the
    two halves of the last axis."""
    scale_z = z[:, None, :]
    with np.errstate(over="ignore"):
        if model.kind == GAUSSIAN:
            a2 = 2.0 * model.sigma2 + gamma2
            scale = -math.sqrt(gamma2 / a2) * (2.0 / a2) * 2.0 / (x.shape[1] * particles.shape[1])
            diff = x[:, :, None] - particles[:, None, :]
            terms = scale * np.exp(-diff * diff / a2) * diff
        else:
            a = model.half_width
            scale = -2.0 / (x.shape[1] * particles.shape[1] * 2.0 * a)
            up = particles[:, None, :] + a - x[:, :, None]
            lo = particles[:, None, :] - a - x[:, :, None]
            terms = scale * np.concatenate((np.exp(-up * up / gamma2), -np.exp(-lo * lo / gamma2)),
                                           axis=2)
            scale_z = np.concatenate((scale_z, scale_z), axis=2)
    return terms, terms * scale_z


def _assert_within_terms(g_m, g_s, x, particles, z, model, gamma2, rel):
    """``g_m`` and ``g_s`` equal the per-pair sums to ``rel`` of the sums of
    the terms' magnitudes, dataset by dataset."""
    for g, terms in zip((g_m, g_s), _pair_terms(x, particles, z, model, gamma2)):
        bound = rel * np.abs(terms).sum(axis=(1, 2))
        assert np.all(np.abs(g[:, 0] - terms.sum(axis=(1, 2))) <= bound), (g[:, 0], bound)


MODELS_1D = [ModelSpec.gaussian(1), ModelSpec.uniform(1)]


@pytest.mark.parametrize("model", MODELS_1D, ids=["gaussian", "uniform"])
def test_moment_path_matches_per_pair_reference(model):
    x, _, z = (a[..., 0] for a in _stack_inputs(3, 11, 7, 1, seed=34))
    x[0, :2] = (1e6, -1e6)  # far out on both sides
    x[1, 4] = 1e300  # kernel weight exactly 0
    particles = 1e-6 * z
    assert np.all(_collapsed(1e-6 * np.abs(z).max(axis=1), _kernel_c(model, 1.0), np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_m, g_s = _data_grads(model, 1.0, x[..., None], particles[..., None], z[..., None],
                               _moment_sums, np.empty(0))
    assert np.all(np.isfinite(g_m)) and np.all(np.isfinite(g_s))
    _assert_within_terms(g_m, g_s, x, particles, z, model, 1.0, 1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("model", MODELS_1D, ids=["gaussian", "uniform"])
def test_moment_and_direct_paths_agree_at_the_bound(model, dtype):
    # tau = 2c s max|z| sqrt(745.2 / c) just below and just above MOMENT_TAU:
    # the moment path (float64) and the direct kernels (in dtype) agree to
    # the dtype's rounding on both sides, so the switch is invisible
    x, _, z = (a[..., 0] for a in _stack_inputs(2, 40, 30, 1, seed=35))
    x[:, :4] = (6.0, -6.0, 20.0, -20.0)
    c = _kernel_c(model, 1.0)
    at_bound = MOMENT_TAU[np.dtype(dtype)] / (2.0 * math.sqrt(745.2 * c) * np.abs(z).max(axis=1))
    for factor, collapsed in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        s = factor * at_bound[:, None]
        assert np.all(_collapsed(s[:, 0] * np.abs(z).max(axis=1), c, dtype) == collapsed)
        particles = s * z
        args = [a[..., None] for a in (x, particles, z)]
        moment = _data_grads(model, 1.0, *args, _moment_sums, np.empty(0))
        # a cloud this narrow is folded by the uniform model's direct path
        direct = _data_grads(model, 1.0, *(a.astype(dtype) for a in args), _direct_sums,
                             np.empty((2, 40, 30), dtype), fold=True)
        rel = 4 * np.finfo(dtype).eps
        for g in (moment, direct):
            _assert_within_terms(*g, x, particles, z, model, 1.0, rel)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("model", MODELS_1D, ids=["gaussian", "uniform"])
def test_grads_mixing_collapsed_and_direct_datasets_match_solo_bitwise(model, dtype):
    r, n, m_particles = 5, 40, 40
    x = 0.5 + np.random.default_rng(36).standard_normal((r, n, 1))
    m = np.full((r, 1), 0.4)
    s = np.array([[1e-6], [0.7], [1e-6], [1e-6], [0.05]])
    kernel, config = GaussianKernel(1.0), FitConfig.benchmark(n, 1)

    def grads(rows, block):
        z, g_m, g_s = np.empty((len(rows), m_particles, 1)), np.empty((len(rows), 1)), np.empty(
            (len(rows), 1))
        rngs = [np.random.default_rng((37, i)) for i in rows]
        work = np.empty((block, n, m_particles), dtype)
        _grads(x[rows], m[rows], s[rows], model, kernel, config, rngs, work, z, g_m, g_s)
        return z, g_m, g_s

    z, g_m, g_s = grads(list(range(r)), 2)
    taken = _collapsed(s[:, 0] * np.abs(z[:, :, 0]).max(axis=1), _kernel_c(model, 1.0), dtype)
    assert list(taken) == [True, False, True, True, False]
    for i in range(r):
        _, solo_m, solo_s = grads([i], 1)
        np.testing.assert_array_equal(g_m[i], solo_m[0])
        np.testing.assert_array_equal(g_s[i], solo_s[0])


@pytest.mark.parametrize("n_factors", [0, 1, 2])
def test_direct_and_moment_evaluators_agree_just_below_the_bound(n_factors):
    # model-free: random points v with weights W, particles p with factors f
    # and draws z, at |2c v p| <= (1 - 1e-9) MOMENT_TAU for every pair; both
    # evaluators take sum_ika W_ia e_ik phi_ka [1, z_k] with phi = [1, -f]
    rng = np.random.default_rng(48)
    r, n, m_particles, c = 3, 30, 20, 0.7
    v = 1.5 * rng.standard_normal((r, n, 1))
    w = rng.standard_normal((r, n, 1 + n_factors))
    z = rng.standard_normal((r, m_particles, 1))
    tau = (1.0 - 1e-9) * MOMENT_TAU[np.dtype(np.float64)]
    p = tau / (2.0 * c * np.abs(v).max(axis=1, keepdims=True)) * z / np.abs(z).max(
        axis=1, keepdims=True)
    factors = [rng.standard_normal((r, m_particles, 1)) for _ in range(n_factors)]
    slabs = [(v, w)]
    direct = _direct_sums(slabs, p, factors, z, c, np.empty((r, n, m_particles)))
    moment = _moment_sums(slabs, p, factors, z, c, np.empty(0))
    e = np.exp(-c * (v - p.transpose(0, 2, 1)) ** 2)  # (R, n, M)
    phi = np.concatenate([np.ones_like(p)] + [-f for f in factors], axis=2)  # (R, M, A)
    terms = w[:, :, None, :] * e[..., None] * phi[:, None, :, :]
    for b, zeta in enumerate((np.ones_like(z), z)):
        magnitude = np.abs(terms * zeta[:, None]).sum(axis=(1, 2, 3))
        bound = 4 * np.finfo(np.float64).eps * magnitude
        assert np.all(np.abs(direct[b][:, 0] - moment[b][:, 0]) <= bound)


def test_moment_tau_is_the_truncation_root_rounded_down():
    order = MOMENT_ORDER + 1
    for dtype, tau in MOMENT_TAU.items():
        u = np.finfo(dtype).eps / 2

        def remainder(t):
            return t**order / math.factorial(order) * math.exp(t)

        assert remainder(tau) <= u < remainder(tau * (1 + 1e-4))


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
def test_fit_batched_rejects_other_dtypes(dtype):
    model = ModelSpec.uniform(1)
    data = sample(model, np.array([0.0]), 20, np.random.default_rng(38))[None]
    config = FitConfig.benchmark(20, 1, n_steps=20)
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        fit_batched(data, model, GaussianKernel(1.0), config, [np.random.default_rng(39)],
                    dtype=dtype)


def _outlier_fit(outlier):
    rng = np.random.default_rng(50)
    model = ModelSpec.gaussian(1)
    data = sample(model, np.array([2.0]), 60, rng)
    data[0, 0] = outlier
    return fit(data, model, config=FitConfig.benchmark(60, 1, n_steps=100))


def test_fit_survives_outlier_at_float_max():
    # the outlier's kernel weight underflows to exactly zero at either size,
    # so the fit cannot tell them apart
    far = _outlier_fit(1e308)
    near = _outlier_fit(1e200)
    assert np.all(np.isfinite(far.q.m)) and np.all(np.isfinite(far.q.s))
    assert abs(far.q.m[0] - 2.0) < 0.5
    np.testing.assert_array_equal(far.q.m, near.q.m)
    np.testing.assert_array_equal(far.q.s, near.q.s)
    assert np.all(np.isfinite(far.trace.objective))
    assert np.all(np.isfinite(near.trace.objective))


def test_fit_is_translation_equivariant():
    rng = np.random.default_rng(51)
    model = ModelSpec.gaussian(1)
    data = sample(model, np.array([0.5]), 200, rng)
    config = FitConfig.benchmark(200, 1, n_steps=200)
    shift = 1e5
    base = fit(data, model, config=config)
    moved = fit(data + shift, model, config=config)
    assert abs((moved.q.m[0] - shift) - base.q.m[0]) < 1e-9


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1), ModelSpec.gaussian(15)],
    ids=["gaussian", "uniform", "gaussian-d15"],
)
def test_fit_batched_float32_is_translation_equivariant(model):
    # data and particles are centred at m in float64 before the float32 cast,
    # so a shift costs no location digits in the kernels
    d = model.dim
    rng = np.random.default_rng(52)
    data = np.stack([sample(model, np.full(d, 0.5), 100, rng) for _ in range(3)])
    config = FitConfig.benchmark(100, d, n_steps=200)

    def run(shift):
        shifted = data + shift
        rngs = [np.random.default_rng((53, i)) for i in range(3)]
        return fit_batched(shifted, model, GaussianKernel.default_for_dim(d), config, rngs,
                           dtype=np.float32)

    base_m, base_s = run(0.0)
    for shift in (1e4, 1e5):
        m, s = run(shift)
        np.testing.assert_allclose(m - shift, base_m, rtol=0, atol=1e-8)
        np.testing.assert_allclose(s, base_s, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1), ModelSpec.gaussian(3)],
    ids=["gaussian", "uniform", "gaussian-d3"],
)
def test_fit_with_far_outlier_raises_no_warning(model):
    # the outlier's squared distances overflow to inf on purpose: its kernel
    # weight is exactly 0, which is no cause for a RuntimeWarning
    d = model.dim
    data = sample(model, np.full(d, 1.0), 40, np.random.default_rng(54))
    data[5] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(data, model, config=FitConfig.benchmark(40, d, n_steps=30))
        m, s = fit_batched(
            data[None], model, GaussianKernel.default_for_dim(d),
            FitConfig.benchmark(40, d, n_steps=30), [np.random.default_rng(55)], dtype=np.float32,
        )
    assert np.all(np.isfinite(res.q.m)) and np.all(np.isfinite(res.trace.objective))
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(s))


def test_fit_recovers_clean_gaussian_mean():
    model = ModelSpec.gaussian(1)
    config = FitConfig.benchmark(100, 1, n_steps=300)
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((13, seed)))
        data = sample(model, np.array([2.0]), 100, rng)
        res = fit(data, model, config=config, rng=rng)
        assert abs(res.q.m[0] - 2.0) < 0.25, (seed, res.q.m)


def _reference_fit(data, model, kernel, config, rng):
    """The step loop :func:`fit` ran before it shared :func:`fit_batched`'s:
    one :func:`grad_estimate` per step, then the box projections, then the
    plug-in objective."""
    m = np.clip(np.median(data, axis=0), *config.m_bounds)
    s = np.clip(np.ones(data.shape[1]), *config.s_bounds)
    dterm = data_kernel_term(kernel, data)

    def row(m, s, g):
        q = MeanFieldGaussian(m=m, s=s)
        est = mmd2_model_vs_empirical(kernel, model, m, data, data_term=dterm)
        norms = (np.linalg.norm(g.g_m), np.linalg.norm(g.g_s)) if g else (math.nan, math.nan)
        return m, s, est + config.inv_beta * kl_to_standard_prior(q), *norms

    rows = [row(m, s, None)]
    for t in range(1, config.n_steps + 1):
        g = grad_estimate(MeanFieldGaussian(m=m, s=s), data, model, kernel, config, rng)
        eta = config.step_scale / math.sqrt(t)
        m = np.clip(m - eta * g.g_m, *config.m_bounds)
        s = np.clip(s - eta * g.g_s, *config.s_bounds)
        rows.append(row(m, s, g))
    return [np.array(column) for column in zip(*rows)]


# (model, n, FitConfig overrides).  beta_log=1 makes KL/beta count in the
# objective; at the benchmark beta = e^{n d} it is below one ulp.  n=1500
# spreads the trace objective over 21 blocks of TRACE_BLOCK_PAIRS, the last
# one partial.
@pytest.mark.parametrize(
    "model, n, overrides",
    [
        (ModelSpec.gaussian(1), 40, {}),
        (ModelSpec.uniform(1), 40, {}),
        (ModelSpec.gaussian(3), 40, {}),
        (ModelSpec.gaussian(15), 40, {}),
        (ModelSpec.gaussian(3), 40, {"beta_log": 1.0}),
        (ModelSpec.uniform(1), 40, {"beta_log": 1.0}),
        (ModelSpec.gaussian(1), 1500, {"n_particles": 2}),
        (ModelSpec.uniform(1), 1500, {"n_particles": 2}),
    ],
    ids=["gaussian", "uniform", "gaussian-d3", "gaussian-d15", "gaussian-d3-beta-e",
         "uniform-beta-e", "gaussian-blocks", "uniform-blocks"],
)
def test_fit_trace_matches_reference_loop_bitwise(model, n, overrides):
    d = model.dim
    rng = np.random.default_rng(70)
    data = sample(model, np.ones(d), n, rng)
    data[:4] = 6.0 + rng.standard_normal((4, d))
    kernel = GaussianKernel.default_for_dim(d)
    config = FitConfig.benchmark(n, d, n_steps=40, **overrides)
    res = fit(data, model, kernel, config, rng=np.random.default_rng(71))
    ref = _reference_fit(data, model, kernel, config, np.random.default_rng(71))
    tr = res.trace
    for got, want in zip((tr.m, tr.s, tr.objective, tr.grad_norm_m, tr.grad_norm_s), ref):
        assert got.tobytes() == want.reshape(got.shape).tobytes()


_MODELS_1D = st.sampled_from([ModelSpec.gaussian(1), ModelSpec.uniform(1)])


def _small_fit(data, model, seed=80):
    config = FitConfig.benchmark(data.shape[0], 1, n_steps=60)
    return fit(data, model, config=config, rng=np.random.default_rng(seed))


def _draw_data(model, seed, n=50):
    return sample(model, np.array([1.0]), n, np.random.default_rng(seed))


@settings(max_examples=25, deadline=None)
@given(model=_MODELS_1D, seed=st.integers(0, 2**32 - 1))
def test_fit_is_permutation_invariant(model, seed):
    data = _draw_data(model, seed)
    perm = np.random.default_rng(seed).permutation(len(data))
    a, b = _small_fit(data, model), _small_fit(data[perm], model)
    np.testing.assert_allclose(b.q.m, a.q.m, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b.q.s, a.q.s, rtol=0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(model=_MODELS_1D, seed=st.integers(0, 2**32 - 1), shift=st.floats(-1e5, 1e5))
def test_fit_is_translation_equivariant_property(model, seed, shift):
    data = _draw_data(model, seed)
    base, moved = _small_fit(data, model), _small_fit(data + shift, model)
    assert abs((moved.q.m[0] - shift) - base.q.m[0]) < 1e-9


_OUTLIERS = st.floats(1.0, 1e308) | st.sampled_from([1e38, 1e154, 1e308])


@settings(max_examples=25, deadline=None)
@given(model=_MODELS_1D, seed=st.integers(0, 2**32 - 1), size=_OUTLIERS, sign=st.sampled_from([-1.0, 1.0]))
def test_fit_one_outlier_of_any_size_stays_finite(model, seed, size, sign):
    data = _draw_data(model, seed)
    data[3, 0] = sign * size
    res = _small_fit(data, model)
    assert np.all(np.isfinite(res.q.m)) and np.all(np.isfinite(res.q.s))
    assert np.all(np.isfinite(res.trace.objective))


@pytest.mark.parametrize("d", [1, 15])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=_OUTLIERS, sign=st.sampled_from([-1.0, 1.0]))
def test_fit_batched_float32_one_outlier_of_any_size_stays_finite(d, seed, size, sign):
    model = ModelSpec.gaussian(d)
    rng = np.random.default_rng(seed)
    data = np.stack([sample(model, np.full(d, 1.0), 50, rng) for _ in range(2)])
    data[1, 3] = sign * size
    m, s = fit_batched(
        data, model, GaussianKernel.default_for_dim(d), FitConfig.benchmark(50, d, n_steps=20),
        [np.random.default_rng((seed, i)) for i in range(2)], dtype=np.float32,
    )
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(s))


_K = GaussianKernel(1.3)
_Q = MeanFieldGaussian(m=[0.4], s=[0.7])


def _fit_trace(x):
    trace = fit(x, ModelSpec.gaussian(1), _K, FitConfig(n_steps=5, n_particles=4)).trace
    return trace.m, trace.s, trace.objective


# Every public function that takes a sample, as a map from the sample to
# its outputs.
SAMPLE_TAKERS = {
    "gram_sum": lambda x: gram_sum(_K, x, 1.0 - x),
    "data_kernel_term": lambda x: data_kernel_term(_K, x),
    "mmd2_vstat": lambda x: mmd2_vstat(_K, x, 1.0 - x),
    "mmd2_ustat": lambda x: mmd2_ustat(_K, x, 1.0 - x),
    "mmd2_model_vs_empirical": lambda x: mmd2_model_vs_empirical(
        _K, ModelSpec.gaussian(1), np.array([[0.2], [1.5]]), x),
    "point_embedding_inner": lambda x: point_embedding_inner(_K, x, np.array([0.2]), 0.8),
    "uniform_point_expectation": lambda x: uniform_point_expectation(
        _K, ModelSpec.uniform(1), np.array([0.2]), x),
    "objective_exact": lambda x: objective_exact(_Q, x, ModelSpec.uniform(1), _K),
    "grad_estimate": lambda x: grad_estimate(_Q, x, ModelSpec.gaussian(1), _K,
                                             FitConfig(n_particles=4), np.random.default_rng(3)),
    "fit": _fit_trace,
}


@pytest.mark.parametrize("name", SAMPLE_TAKERS)
def test_one_dimensional_sample_is_n_scalars(name):
    x = 0.5 + np.random.default_rng(71).standard_normal(9)

    def bits(out):
        return [np.asarray(v).tobytes() for v in (out if isinstance(out, tuple) else (out,))]

    assert bits(SAMPLE_TAKERS[name](x)) == bits(SAMPLE_TAKERS[name](x[:, None]))
