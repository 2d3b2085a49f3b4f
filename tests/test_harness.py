import math

import numpy as np
import pytest

from mmdvi.harness import (
    BASELINES,
    DEFAULT_EPSILONS,
    MMD_METHOD,
    PROBLEMS,
    ContaminationSpec,
    OutlierSpec,
    Problem,
    generate,
    n_outliers,
    run_sweep,
    trial_rng,
)
from mmdvi.models import ModelSpec


def test_outlier_spec_validation():
    with pytest.raises(ValueError):
        OutlierSpec(kind="bogus")
    with pytest.raises(ValueError):
        OutlierSpec(kind="gaussian_fixed", variance=0.0)


def test_outlier_spec_gaussian_sampling_stats():
    spec = OutlierSpec(kind="gaussian_fixed", mean=20.0, variance=1.0)
    x = spec.sample(2, 200_000, np.random.default_rng(0))
    assert x.shape == (200_000, 2)
    np.testing.assert_allclose(x.mean(axis=0), 20.0, atol=0.02)
    np.testing.assert_allclose(x.var(axis=0), 1.0, atol=0.02)


def test_outlier_spec_cauchy_sampling_stats():
    spec = OutlierSpec(kind="cauchy_std")
    x = spec.sample(1, 200_000, np.random.default_rng(1))
    q1, q2, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    # quartiles of the standard Cauchy are -1, 0, 1
    assert abs(q1 + 1.0) < 0.02 and abs(q2) < 0.02 and abs(q3 - 1.0) < 0.02


def test_contamination_spec_validation():
    model = ModelSpec.gaussian(1)
    out = OutlierSpec(kind="cauchy_std")
    with pytest.raises(ValueError):
        ContaminationSpec(model=model, theta0=np.array([0.0, 0.0]), epsilon=0.1, outliers=out)
    with pytest.raises(ValueError):
        ContaminationSpec(model=model, theta0=np.array([0.0]), epsilon=0.5, outliers=out)
    with pytest.raises(ValueError):
        ContaminationSpec(model=model, theta0=np.array([0.0]), epsilon=-0.01, outliers=out)


def test_n_outliers_on_the_default_grid():
    # 0.075 * 200 is exactly 15 in decimal; binary floor must not lose it
    counts = [n_outliers(e, 200) for e in DEFAULT_EPSILONS]
    assert counts == [0, 5, 10, 15, 20, 25, 30, 35, 40]
    assert n_outliers(0.0, 200) == 0
    assert n_outliers(0.19999, 10) == 1


def test_generate_clean_sample_stays_in_support():
    spec = PROBLEMS["uniform"].contamination(0.0)
    x = generate(spec, 500, trial_rng(0, 0, 0))
    assert x.shape == (500, 1)
    assert np.all(x >= 0.5) and np.all(x <= 1.5)


def test_generate_plants_exact_outlier_count():
    # uniform data lives in [0.5, 1.5]; the N(20, 1) outliers are separable
    spec = PROBLEMS["uniform"].contamination(0.2)
    x = generate(spec, 200, trial_rng(0, 8, 0))
    assert int(np.sum(x[:, 0] > 5.0)) == 40
    assert int(np.sum(x[:, 0] <= 1.5)) == 160


def test_generate_is_deterministic_in_the_seed():
    spec = PROBLEMS["gauss1d"].contamination(0.1)
    a = generate(spec, 50, trial_rng(3, 1, 2))
    b = generate(spec, 50, trial_rng(3, 1, 2))
    np.testing.assert_array_equal(a, b)
    c = generate(spec, 50, trial_rng(3, 1, 3))
    assert not np.array_equal(a, c)


def test_generate_rejects_empty():
    spec = PROBLEMS["gauss1d"].contamination(0.0)
    with pytest.raises(ValueError):
        generate(spec, 0, trial_rng(0, 0, 0))


def test_baseline_frozen_examples():
    assert BASELINES["mean"](np.array([[1.0], [2.0], [3.0]])) == np.array([2.0])
    assert BASELINES["median"](np.array([[1.0], [2.0], [100.0]])) == np.array([2.0])
    assert BASELINES["midrange"](np.array([[0.4], [1.0], [1.6]])) == np.array([1.0])


@pytest.mark.parametrize("problem", ["gauss1d", "gauss15d", "uniform"])
def test_baselines_on_a_stack_match_each_dataset_bitwise(problem):
    spec = PROBLEMS[problem].contamination(0.1)
    data = np.stack([generate(spec, 200, trial_rng(5, 4, rep)) for rep in range(7)])
    for name, estimator in BASELINES.items():
        stacked = estimator(data)
        looped = np.stack([estimator(data[r]) for r in range(len(data))])
        assert stacked.shape == looped.shape == (7, data.shape[2])
        assert stacked.tobytes() == looped.tobytes(), name


def test_baselines_are_permutation_invariant():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((101, 3))
    perm = x[rng.permutation(101)]
    for estimator in BASELINES.values():
        np.testing.assert_allclose(estimator(x), estimator(perm), atol=1e-12, rtol=0)


def test_problem_registry():
    assert set(PROBLEMS) == {"gauss1d", "gauss15d", "uniform"}
    g = PROBLEMS["gauss1d"]
    assert g.model.dim == 1 and g.theta0[0] == 2.0
    assert PROBLEMS["gauss15d"].model.dim == 15
    assert PROBLEMS["uniform"].baselines == ("midrange", "mean")
    spec = g.contamination(0.1)
    assert spec.epsilon == 0.1
    np.testing.assert_array_equal(spec.theta0, g.theta0)
    with pytest.raises(ValueError):
        Problem(
            name="x",
            model=ModelSpec.gaussian(1),
            theta0=np.array([0.0]),
            outliers=OutlierSpec(kind="cauchy_std"),
            baselines=("mode",),
        )


def test_trial_rng_streams_do_not_collide():
    seen = set()
    for master in (0, 1):
        for i in range(4):
            for rep in range(4):
                draw = tuple(trial_rng(master, i, rep).standard_normal(4).tolist())
                assert draw not in seen
                seen.add(draw)
    # and the stream is a pure function of its coordinates
    a = trial_rng(0, 2, 3).standard_normal(4)
    b = trial_rng(0, 2, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def _tiny_sweep(jobs=1, reps=3):
    return run_sweep(
        "gauss1d",
        n=20,
        reps=reps,
        epsilons=(0.0, 0.1),
        master_seed=5,
        n_steps=10,
        jobs=jobs,
    )


def test_run_sweep_layout():
    res = _tiny_sweep()
    assert res.problem == "gauss1d"
    assert res.methods == (MMD_METHOD, "mean", "median")
    np.testing.assert_array_equal(res.epsilons, [0.0, 0.1])
    for m in res.methods:
        assert res.squared_errors[m].shape == (2, 3)
        assert np.all(np.isfinite(res.squared_errors[m]))
        assert res.rmse(m).shape == (2,)
        assert np.all(res.rmse_stderr(m) >= 0.0)


def test_run_sweep_deterministic_and_jobs_invariant():
    res1 = _tiny_sweep(jobs=1)
    res2 = _tiny_sweep(jobs=1)
    res3 = _tiny_sweep(jobs=2)
    for m in res1.methods:
        np.testing.assert_array_equal(res1.squared_errors[m], res2.squared_errors[m])
        np.testing.assert_array_equal(res1.squared_errors[m], res3.squared_errors[m])


def test_run_sweep_single_rep_has_nan_stderr():
    res = _tiny_sweep(reps=1)
    for m in res.methods:
        assert np.all(np.isnan(res.rmse_stderr(m)))
        assert np.all(np.isfinite(res.rmse(m)))


def test_run_sweep_rejects_problem_object():
    res = run_sweep("uniform", n=15, reps=2, epsilons=(0.0,), master_seed=1, n_steps=5)
    assert res.problem == "uniform"
    assert res.methods == (MMD_METHOD, "midrange", "mean")
    # an object under a registered name is refused, not swapped for the
    # registered problem of that name
    problem = Problem(name="gauss1d", model=ModelSpec.gaussian(1), theta0=np.array([50.0]),
                      outliers=PROBLEMS["gauss1d"].outliers, baselines=("mean",))
    with pytest.raises(ValueError, match="unknown problem"):
        run_sweep(problem, n=15, reps=2, epsilons=(0.0,), master_seed=1, n_steps=5)
    with pytest.raises(ValueError, match="unknown problem"):
        run_sweep(PROBLEMS["uniform"], n=15, reps=2, epsilons=(0.0,), master_seed=1, n_steps=5)


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep("nope", n=10, reps=1, epsilons=(0.0,), n_steps=2)
    with pytest.raises(ValueError):
        run_sweep("gauss1d", n=10, reps=0, epsilons=(0.0,), n_steps=2)
    with pytest.raises(ValueError):
        run_sweep("gauss1d", n=10, reps=1, epsilons=(), n_steps=2)
    with pytest.raises(ValueError):
        run_sweep("gauss1d", n=10, reps=1, epsilons=(0.0,), n_steps=2, jobs=0)


def test_sample_mean_rmse_matches_clt_on_clean_data():
    # with no contamination the mean estimator's RMSE is sigma / sqrt(n)
    spec = PROBLEMS["gauss1d"].contamination(0.0)
    reps, n = 10_000, 200
    sq = np.empty(reps)
    for r in range(reps):
        x = generate(spec, n, trial_rng(11, 0, r))
        sq[r] = float((x.mean() - 2.0) ** 2)
    rmse = math.sqrt(sq.mean())
    assert abs(rmse - 1.0 / math.sqrt(n)) < 0.1 / math.sqrt(n)
