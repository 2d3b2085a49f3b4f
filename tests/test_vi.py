import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdvi.kernel import GaussianKernel
from mmdvi.models import GAUSSIAN, UNIFORM, ModelSpec, sample
from mmdvi.vi import (
    CLOSED_FORM,
    PER_PARTICLE,
    SCORE,
    SHARED,
    FitConfig,
    MeanFieldGaussian,
    _gauss_closed_grad_stack,
    _uniform_closed_grad_stack,
    _workspace,
    fit,
    fit_batched,
    grad_estimate,
    kl_to_standard_prior,
    objective_exact,
    objective_mc,
    project_box,
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


def test_project_box_clamps():
    v = np.array([-5.0, 0.3, 7.0])
    out = project_box(v, -1.0, 1.0)
    np.testing.assert_array_equal(out, [-1.0, 0.3, 1.0])
    # componentwise bounds
    out = project_box(v, np.array([-10.0, 0.5, 0.0]), np.array([0.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, [-5.0, 0.5, 3.0])
    with pytest.raises(ValueError):
        project_box(v, 1.0, -1.0)


@settings(deadline=None, max_examples=60)
@given(
    v=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
    lo=st.floats(-100.0, 0.0),
    width=st.floats(0.0, 50.0),
)
def test_project_box_is_projection(v, lo, width):
    hi = lo + width
    out = project_box(np.array(v), lo, hi)
    assert np.all(out >= lo) and np.all(out <= hi)
    # idempotent, and the identity on points already inside
    np.testing.assert_array_equal(project_box(out, lo, hi), out)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(beta_log=math.nan)
    with pytest.raises(ValueError):
        FitConfig(n_particles=1)
    with pytest.raises(ValueError):
        FitConfig(n_steps=0)
    with pytest.raises(ValueError):
        FitConfig(step_scale=-0.1)
    with pytest.raises(ValueError):
        FitConfig(s_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        FitConfig(m_bounds=(1.0, -1.0))
    with pytest.raises(ValueError):
        FitConfig(estimator="nope")
    with pytest.raises(ValueError):
        FitConfig(sample_mode="nope")


def test_fit_config_benchmark_defaults():
    cfg = FitConfig.benchmark(200, 1)
    assert cfg.beta_log == 200.0
    assert cfg.n_particles == 200
    assert cfg.n_steps == 1000
    assert cfg.step_scale == 1.0
    assert cfg.estimator == CLOSED_FORM
    cfg15 = FitConfig.benchmark(200, 15, n_steps=50)
    assert cfg15.beta_log == 3000.0
    assert cfg15.n_steps == 50


def test_inv_beta_sentinel():
    assert FitConfig(beta_log=math.inf).inv_beta == 0.0
    assert FitConfig(beta_log=0.0).inv_beta == 1.0
    assert FitConfig(beta_log=math.log(4.0)).inv_beta == pytest.approx(0.25, rel=1e-15)


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
    # quadrature reference is exact to ~1e-10, leave a hair of slack
    _assert_mean_matches(gm, fd_m, slack=1e-8)
    _assert_mean_matches(gs, fd_s, slack=1e-8)


def test_score_per_particle_gradient_unbiased():
    # the score-function estimator targets the same gradient as closed_form
    rng = np.random.default_rng(44)
    model = ModelSpec.gaussian(1, sigma2=1.0)
    kernel = GaussianKernel(2.0)
    data = sample(model, np.array([2.0]), 20, rng)
    q = MeanFieldGaussian(m=[1.5], s=[0.9])
    config = FitConfig(n_particles=16, estimator=SCORE, sample_mode=PER_PARTICLE)

    def f(m, s):
        return objective_exact(MeanFieldGaussian(m=m, s=s), data, model, kernel)

    fd_m, fd_s = _fd_gradient(f, q.m, q.s)
    gm, gs = _averaged_grad(q, data, model, kernel, config, seed=9, reps=1500)
    _assert_mean_matches(gm, fd_m)
    _assert_mean_matches(gs, fd_s)


def test_score_shared_gradient_is_finite():
    # shared synthetic samples are biased but must still produce usable numbers
    rng = np.random.default_rng(45)
    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel(2.0)
    data = sample(model, np.array([2.0]), 20, rng)
    q = MeanFieldGaussian(m=[1.5], s=[0.9])
    config = FitConfig(n_particles=16, estimator=SCORE, sample_mode=SHARED)
    g = grad_estimate(q, data, model, kernel, config, np.random.default_rng(0))
    assert np.all(np.isfinite(g.g_m)) and np.all(np.isfinite(g.g_s))


def test_score_estimator_rejects_uniform_model():
    model = ModelSpec.uniform(1)
    kernel = GaussianKernel(1.0)
    config = FitConfig(n_particles=8, estimator=SCORE)
    q = MeanFieldGaussian(m=[0.0], s=[1.0])
    with pytest.raises(ValueError):
        grad_estimate(q, np.zeros((10, 1)), model, kernel, config, np.random.default_rng(0))


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


@pytest.mark.parametrize("make_model", [lambda: ModelSpec.gaussian(1), lambda: ModelSpec.uniform(1)])
def test_objective_mc_converges_to_exact(make_model):
    model = make_model()
    kernel = GaussianKernel.default_for_dim(1)
    rng = np.random.default_rng(46)
    data = sample(model, np.array([1.2]), 30, rng)
    q = MeanFieldGaussian(m=[1.0], s=[0.7])
    config = FitConfig(beta_log=3.0, n_particles=32)
    exact = objective_exact(q, data, model, kernel, beta_log=3.0)
    reps = 300
    vals = np.array(
        [objective_mc(q, data, model, kernel, config, np.random.default_rng(1000 + r)) for r in range(reps)]
    )
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - exact) < 4 * se + 1e-9


def test_objective_mc_deterministic_under_config_seed():
    model = ModelSpec.gaussian(1)
    kernel = GaussianKernel(1.0)
    data = np.linspace(-1, 1, 11)[:, None]
    q = MeanFieldGaussian(m=[0.2], s=[1.1])
    config = FitConfig(n_particles=8, seed=77)
    assert objective_mc(q, data, model, kernel, config) == objective_mc(
        q, data, model, kernel, config
    )


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
    res = fit(data, model, config=config)
    tr = res.trace
    assert np.all(tr.m >= -0.5) and np.all(tr.m <= 0.5)
    assert np.all(tr.s >= 0.2) and np.all(tr.s <= 0.8)
    # the optimum sits beyond the box, so the iterate pins to the edge
    assert res.q.m[0] == 0.5


def test_fit_validation():
    model = ModelSpec.gaussian(1)
    with pytest.raises(ValueError):
        fit(np.empty((0, 1)), model)
    with pytest.raises(ValueError):
        fit(np.zeros((5, 2)), model)
    with pytest.raises(ValueError):
        fit(np.zeros((5, 1)), model, init=MeanFieldGaussian(m=[0.0, 0.0], s=[1.0, 1.0]))


@pytest.mark.parametrize(
    "model", [ModelSpec.gaussian(1), ModelSpec.uniform(1)], ids=["gaussian", "uniform"]
)
def test_fit_batched_single_matches_fit(model):
    rng = np.random.default_rng(8)
    theta = np.array([1.5])
    data = sample(model, theta, 25, rng)
    config = FitConfig.benchmark(25, 1, n_steps=30)
    init_m = np.median(data, axis=0)
    init_s = np.ones(1)
    kernel = GaussianKernel.default_for_dim(1)

    seed = np.random.SeedSequence(99)
    solo = fit(
        data,
        model,
        kernel=kernel,
        config=config,
        init=MeanFieldGaussian(m=init_m, s=init_s),
        rng=np.random.default_rng(seed),
    )
    m, s = fit_batched(
        data[None],
        model,
        kernel,
        config,
        [np.random.default_rng(seed)],
        init_m[None],
        init_s[None],
        dtype=np.float64,
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
    init_m = np.median(data, axis=1)
    init_s = np.ones((3, 1))

    m, s = fit_batched(
        data,
        model,
        kernel,
        config,
        [np.random.default_rng(np.random.SeedSequence(200 + r)) for r in range(3)],
        init_m,
        init_s,
        dtype=np.float64,
    )
    for r in range(3):
        solo = fit(
            data[r],
            model,
            kernel=kernel,
            config=config,
            init=MeanFieldGaussian(m=init_m[r], s=init_s[r]),
            rng=np.random.default_rng(np.random.SeedSequence(200 + r)),
        )
        np.testing.assert_array_equal(m[r], solo.q.m)
        np.testing.assert_array_equal(s[r], solo.q.s)


def test_fit_batched_rejects_score_estimator():
    config = FitConfig(estimator=SCORE, n_particles=8)
    with pytest.raises(ValueError):
        fit_batched(
            np.zeros((1, 10, 1)),
            ModelSpec.gaussian(1),
            GaussianKernel(1.0),
            config,
            [np.random.default_rng(0)],
            np.zeros((1, 1)),
            np.ones((1, 1)),
        )


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
    work = _workspace(GAUSSIAN, 3, 11, 7, np.float64)
    g_m, g_s = _gauss_closed_grad_stack(x, particles, z, 1.0, float(d), work)
    ref_m, ref_s = _gauss_grad_reference(x, particles, z, 1.0, float(d))
    np.testing.assert_allclose(g_m, ref_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(g_s, ref_s, rtol=1e-12, atol=0)


def test_uniform_stack_matches_per_pair_reference():
    x, particles, z = _stack_inputs(3, 11, 7, 1, seed=33)
    work = _workspace(UNIFORM, 3, 11, 7, np.float64)
    g_m, g_s = _uniform_closed_grad_stack(
        x[..., 0], particles[..., 0], z[..., 0], 1.0, 1.0, work
    )
    ref_m, ref_s = _uniform_grad_reference(x[..., 0], particles[..., 0], z[..., 0], 1.0, 1.0)
    np.testing.assert_allclose(g_m, ref_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(g_s, ref_s, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 15])
def test_gauss_stack_reused_workspace_is_bitwise_fresh(d, dtype):
    x, particles, z = (a.astype(dtype) for a in _stack_inputs(2, 9, 6, d, seed=40 + d))
    work = np.full((2, 9, 6), np.nan, dtype)
    # a first call with other particles leaves the buffer dirty
    _gauss_closed_grad_stack(x, particles + 3.0, z, 1.0, float(d), work)
    reused = _gauss_closed_grad_stack(x, particles, z, 1.0, float(d), work)
    fresh_work = _workspace(GAUSSIAN, 2, 9, 6, dtype)
    fresh = _gauss_closed_grad_stack(x, particles, z, 1.0, float(d), fresh_work)
    np.testing.assert_array_equal(reused[0], fresh[0])
    np.testing.assert_array_equal(reused[1], fresh[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_uniform_stack_reused_workspace_is_bitwise_fresh(dtype):
    x, particles, z = (a[..., 0].astype(dtype) for a in _stack_inputs(2, 9, 6, 1, seed=42))
    work = (np.full((2, 6, 9), np.nan, dtype), np.full((2, 6, 9), np.inf, dtype))
    _uniform_closed_grad_stack(x, particles - 2.0, z, 1.0, 0.5, work)
    reused = _uniform_closed_grad_stack(x, particles, z, 1.0, 0.5, work)
    fresh_work = _workspace(UNIFORM, 2, 9, 6, dtype)
    fresh = _uniform_closed_grad_stack(x, particles, z, 1.0, 0.5, fresh_work)
    np.testing.assert_array_equal(reused[0], fresh[0])
    np.testing.assert_array_equal(reused[1], fresh[1])


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


def test_fit_recovers_clean_gaussian_mean():
    model = ModelSpec.gaussian(1)
    config = FitConfig.benchmark(100, 1, n_steps=300)
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((13, seed)))
        data = sample(model, np.array([2.0]), 100, rng)
        res = fit(data, model, config=config, rng=rng)
        assert abs(res.q.m[0] - 2.0) < 0.25, (seed, res.q.m)
