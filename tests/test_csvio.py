import hashlib
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmdvi.csvio import (
    CsvFormatError,
    atomic_write,
    fmt,
    parse_float,
    read_samples,
    read_table,
    read_trace_csv,
    rmse_to_csv,
    theory_to_csv,
    trace_to_csv,
    trials_to_csv,
    write_rmse_csv,
    write_theory_csv,
    write_trace_csv,
    write_trials_csv,
)
from mmdvi.harness import SweepResult, run_sweep
from mmdvi.svg import PALETTE, line_chart
from mmdvi.theory import extended_prior_mass_construction, prior_mass_lower_bound
from mmdvi.vi import FitTrace


def test_fmt_and_parse():
    assert fmt(1.5) == "1.5"
    assert fmt(float("nan")) == "NA"
    assert math.isnan(parse_float("NA"))
    assert parse_float("0.1") == 0.1
    assert fmt(0.1) == "0.1"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_exactly(x):
    assert parse_float(fmt(x)) == x


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write(str(target), "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    atomic_write(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [f for f in os.listdir(tmp_path) if f != "out.csv"]
    assert leftovers == []


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write(str(tmp_path / "out.csv"), "a\n")
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.csv").st_mode & 0o777 == 0o644


def test_read_samples_with_comments_and_blanks(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("# a comment\n1.0,2.0\n\n3.0,4.0\n# trailing\n")
    x = read_samples(str(p))
    np.testing.assert_array_equal(x, [[1.0, 2.0], [3.0, 4.0]])


def test_read_samples_single_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.5\n-2.5\n")
    assert read_samples(str(p)).shape == (2, 1)


def test_read_samples_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_samples(str(p))
    assert err.value.line == 2
    assert "expected 2 fields" in str(err.value)
    assert str(p) in str(err.value)


def test_read_samples_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n2.0\noops\n")
    with pytest.raises(CsvFormatError) as err:
        read_samples(str(p))
    assert err.value.line == 3
    assert "'oops'" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_read_samples_rejects_non_finite_cell(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"# x_0,x_1\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(CsvFormatError) as err:
        read_samples(str(p))
    assert err.value.line == 3
    assert f"not a finite number: {cell!r}" in str(err.value)


def test_read_samples_no_data(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# only comments\n\n")
    with pytest.raises(CsvFormatError) as err:
        read_samples(str(p))
    assert err.value.line == 1


def _toy_trace():
    return FitTrace(
        t=np.arange(3),
        m=np.array([[0.5, -1.0], [0.25, -0.5], [0.125, 0.0]]),
        s=np.array([[1.0, 1.0], [0.9, 1.1], [0.8, 1.2]]),
        objective=np.array([0.3, 0.2, 0.1]),
        grad_norm_m=np.array([math.nan, 1.5, 0.75]),
        grad_norm_s=np.array([math.nan, 0.5, 0.25]),
    )


def test_trace_csv_round_trip(tmp_path):
    trace = _toy_trace()
    text = trace_to_csv(trace)
    assert text.splitlines()[0] == "t,m_0,m_1,s_0,s_1,objective,grad_norm_m,grad_norm_s"
    # row 0 carries NA for the (undefined) gradient norms
    assert text.splitlines()[1].endswith("NA,NA")
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    back = read_trace_csv(str(path))
    np.testing.assert_array_equal(back.t, trace.t)
    np.testing.assert_array_equal(back.m, trace.m)
    np.testing.assert_array_equal(back.s, trace.s)
    np.testing.assert_array_equal(back.objective, trace.objective)
    np.testing.assert_array_equal(back.grad_norm_m, trace.grad_norm_m)
    np.testing.assert_array_equal(back.grad_norm_s, trace.grad_norm_s)


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(
        "gauss1d", n=20, reps=3, epsilons=(0.0, 0.1), master_seed=5, n_steps=10
    )


def test_rmse_csv_round_trip(tmp_path, tiny_sweep):
    text = rmse_to_csv(tiny_sweep)
    assert text.splitlines()[0] == "problem,epsilon,estimator,repetitions,rmse,stderr"
    path = tmp_path / "rmse.csv"
    write_rmse_csv(str(path), tiny_sweep)
    rows = read_table(str(path))
    assert len(rows) == 2 * 3  # epsilons x methods
    for row in rows:
        assert row["problem"] == "gauss1d"
        assert row["repetitions"] == 3
        i = int(np.where(tiny_sweep.epsilons == row["epsilon"])[0][0])
        assert row["rmse"] == tiny_sweep.rmse(row["estimator"])[i]
        assert row["stderr"] == tiny_sweep.rmse_stderr(row["estimator"])[i]


def test_trials_csv_round_trip(tmp_path, tiny_sweep):
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), tiny_sweep)
    rows = read_table(str(path))
    assert len(rows) == 2 * 3 * 3  # epsilons x methods x reps
    assert rows[0]["seed"] == "5-0-0"
    for row in rows:
        i = int(np.where(tiny_sweep.epsilons == row["epsilon"])[0][0])
        expect = tiny_sweep.squared_errors[row["estimator"]][i, row["trial"]]
        assert row["squared_error"] == expect
        assert row["seed"] == f"5-{i}-{row['trial']}"


def test_theory_csv_round_trip(tmp_path):
    rep = prior_mass_lower_bound(np.array([2.0]), 200, 1.0, 4.0)
    ext = extended_prior_mass_construction(np.array([2.0]), 200, 1.0, 4.0)
    text = theory_to_csv(rep, ext)
    lines = text.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    cells = lines[1].split(",")
    row = dict(zip(header, cells))
    assert int(row["n"]) == 200 and int(row["dim"]) == 1
    assert parse_float(row["s_n"]) == rep.s_n
    assert parse_float(row["mass_lower_bound"]) == rep.mass_lower_bound
    assert parse_float(row["beta_min"]) == rep.beta_min
    assert parse_float(row["kl_value"]) == ext.kl_value
    assert parse_float(row["mmd_integral_bound"]) == ext.mmd_integral_bound
    path = tmp_path / "theory.csv"
    write_theory_csv(str(path), rep, ext)
    assert path.read_text() == text


# Golden bytes of every output format.  The round-trip tests above would pass
# for any self-consistent dialect; these pin the dialect itself.


def test_trace_csv_bytes():
    assert trace_to_csv(_toy_trace()) == (
        "t,m_0,m_1,s_0,s_1,objective,grad_norm_m,grad_norm_s\n"
        "0,0.5,-1.0,1.0,1.0,0.3,NA,NA\n"
        "1,0.25,-0.5,0.9,1.1,0.2,1.5,0.5\n"
        "2,0.125,0.0,0.8,1.2,0.1,0.75,0.25\n"
    )


def _hand_sweep(reps):
    squared_errors = {
        "mmd": np.array([[0.25, 0.0625], [0.0, 0.0]])[:, :reps],
        "mean": np.array([[1.5, 0.5], [4.0, 1.0]])[:, :reps],
    }
    return SweepResult(
        problem="gauss1d", n=20, reps=reps, epsilons=np.array([0.0, 0.1]),
        methods=("mmd", "mean"), squared_errors=squared_errors, master_seed=7,
        n_steps=10, step_scale=1.0,
    )


@pytest.mark.parametrize(
    "reps, rmse, trials",
    [
        (
            1,
            "problem,epsilon,estimator,repetitions,rmse,stderr\n"
            "gauss1d,0.0,mmd,1,0.5,NA\n"
            "gauss1d,0.0,mean,1,1.224744871391589,NA\n"
            "gauss1d,0.1,mmd,1,0.0,NA\n"
            "gauss1d,0.1,mean,1,2.0,NA\n",
            "problem,epsilon,estimator,trial,squared_error,seed\n"
            "gauss1d,0.0,mmd,0,0.25,7-0-0\n"
            "gauss1d,0.0,mean,0,1.5,7-0-0\n"
            "gauss1d,0.1,mmd,0,0.0,7-1-0\n"
            "gauss1d,0.1,mean,0,4.0,7-1-0\n",
        ),
        (
            2,
            "problem,epsilon,estimator,repetitions,rmse,stderr\n"
            "gauss1d,0.0,mmd,2,0.39528470752104744,0.11858541225631421\n"
            "gauss1d,0.0,mean,2,1.0,0.25\n"
            "gauss1d,0.1,mmd,2,0.0,NA\n"
            "gauss1d,0.1,mean,2,1.5811388300841898,0.47434164902525683\n",
            "problem,epsilon,estimator,trial,squared_error,seed\n"
            "gauss1d,0.0,mmd,0,0.25,7-0-0\n"
            "gauss1d,0.0,mmd,1,0.0625,7-0-1\n"
            "gauss1d,0.0,mean,0,1.5,7-0-0\n"
            "gauss1d,0.0,mean,1,0.5,7-0-1\n"
            "gauss1d,0.1,mmd,0,0.0,7-1-0\n"
            "gauss1d,0.1,mmd,1,0.0,7-1-1\n"
            "gauss1d,0.1,mean,0,4.0,7-1-0\n"
            "gauss1d,0.1,mean,1,1.0,7-1-1\n",
        ),
    ],
    ids=["reps1", "reps2"],
)
def test_sweep_csv_bytes(reps, rmse, trials):
    result = _hand_sweep(reps)
    assert rmse_to_csv(result) == rmse
    assert trials_to_csv(result) == trials


_THEORY_HEADER = (
    "n,dim,sigma2,gamma2,theta_star_norm,s_n,f_theta_star,log_mass_lower_bound,"
    "mass_lower_bound,beta_min,rho_variance,kl_value,mmd_integral_bound,beta_min_extended\n"
)


@pytest.mark.parametrize(
    "theta_star, row",
    [
        (
            [2.0],
            "200,1,1.0,4.0,2.0,0.1681792830507429,2.3505007017252164,-4.35901676194403,"
            "0.012790958025389975,871.803352388806,0.028284271247461898,3.296866843197818,"
            "0.004973638785070679,659.3733686395635\n",
        ),
        (
            [1.0, 2.0, 3.0],
            "200,3,1.0,4.0,3.7416573867739413,0.2378414230005442,7.918205388498274,"
            "-13.551062381693454,1.3027119100535984e-06,2710.2124763386905,"
            "0.018856180831641266,11.484656056131968,0.0049706983995898195,2296.9312112263933\n",
        ),
    ],
    ids=["1d", "3d"],
)
def test_theory_csv_bytes(theta_star, row):
    theta = np.array(theta_star)
    rep = prior_mass_lower_bound(theta, 200, 1.0, 4.0)
    ext = extended_prior_mass_construction(theta, 200, 1.0, 4.0)
    assert theory_to_csv(rep, ext) == _THEORY_HEADER + row


def test_line_chart_bytes():
    # title, both axis labels, markup characters in every label, a non-finite
    # point and more series than the palette has colours
    series = {
        f"s{i} & <{i}>": ([0.0, 0.1, 0.2], [0.1 * i, math.nan if i == 2 else 0.2 + i, 0.3])
        for i in range(len(PALETTE) + 1)
    }
    chart = line_chart(series, title="rmse <sweep> & co", xlabel="rate & <eps>", ylabel="rmse <y>")
    assert hashlib.sha256(chart.encode()).hexdigest() == (
        "7399201b2a9ffb7919f8a5ba6db5b375d917abca0b70390010a5f22809703d0c"
    )


def test_line_chart_is_valid_svg():
    xs = [0.0, 0.1, 0.2]
    svg = line_chart(
        {"mmd": (xs, [0.1, 0.2, 0.3]), "mean & co": (xs, [0.2, 0.4, 0.8])},
        title="rmse <sweep>",
        xlabel="epsilon",
        ylabel="rmse",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "mmd" in texts and "mean & co" in texts and "rmse <sweep>" in texts


def test_line_chart_drops_non_finite_points():
    svg = line_chart({"a": ([0.0, 1.0, 2.0], [0.5, math.nan, 1.5])})
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    pts = root.findall(f"{ns}polyline")[0].attrib["points"].split()
    assert len(pts) == 2


def test_line_chart_rejects_empty():
    with pytest.raises(ValueError):
        line_chart({})


def test_line_chart_constant_series():
    # degenerate y range gets padded rather than dividing by zero
    svg = line_chart({"flat": ([0.0, 1.0], [2.0, 2.0])})
    assert "polyline" in svg
