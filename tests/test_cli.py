import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mmdvi.cli import main
from mmdvi.csvio import read_rmse_csv, read_trace_csv, read_trials_csv
from mmdvi.theory import extended_prior_mass_construction, prior_mass_lower_bound


def _write_sample(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def test_estimate_from_data_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "x.csv"
    _write_sample(data, list(2.0 + rng.standard_normal(60)) + [100.0])
    out = tmp_path / "run"
    code = main(
        ["estimate", "--data", str(data), "--steps", "80", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("estimate: n=61 d=1 m=")
    trace = read_trace_csv(str(out / "trace.csv"))
    assert len(trace.t) == 81
    # the big outlier must not drag the location estimate away from 2
    assert abs(trace.m[-1, 0] - 2.0) < 0.5


def test_estimate_trace_is_byte_identical_across_runs(tmp_path):
    data = tmp_path / "x.csv"
    _write_sample(data, np.linspace(-1.0, 5.0, 40))
    args = ["estimate", "--data", str(data), "--steps", "30", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_estimate_from_problem(tmp_path, capsys):
    code = main(
        [
            "estimate", "--problem", "uniform", "--epsilon", "0.1", "--n", "50",
            "--steps", "40", "--out", str(tmp_path), "--seed", "5",
        ]
    )
    assert code == 0
    assert (tmp_path / "trace.csv").exists()
    assert "n=50 d=1" in capsys.readouterr().out


def test_estimate_rejects_ambiguous_inputs(tmp_path, capsys):
    data = tmp_path / "x.csv"
    _write_sample(data, [1.0, 2.0])
    assert main(["estimate", "--data", str(data), "--problem", "gauss1d"]) == 1
    assert main(["estimate"]) == 1
    assert main(["estimate", "--problem", "not-a-problem"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_estimate_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    code = main(["estimate", "--data", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err


def test_estimate_non_finite_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n2.0\nnan\n3.0\n")
    code = main(["estimate", "--data", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert "'nan'" in err
    assert not (tmp_path / "trace.csv").exists()


def _sweep_args(tmp_path, **extra):
    args = [
        "sweep", "--problem", "gauss1d", "--epsilons", "0.0,0.1", "--reps", "2",
        "--n", "16", "--steps", "5", "--jobs", "1", "--seed", "7",
        "--out", str(tmp_path),
    ]
    for k, v in extra.items():
        args += [f"--{k}"] + ([str(v)] if v is not True else [])
    return args


def test_sweep_writes_expected_tables(tmp_path, capsys):
    assert main(_sweep_args(tmp_path)) == 0
    assert "sweep gauss1d" in capsys.readouterr().out
    rmse = read_rmse_csv(str(tmp_path / "rmse.csv"))
    assert len(rmse) == 2 * 3
    assert {r["estimator"] for r in rmse} == {"mmd", "mean", "median"}
    trials = read_trials_csv(str(tmp_path / "trials.csv"))
    assert len(trials) == 2 * 3 * 2
    assert trials[0]["seed"] == "7-0-0"


def test_sweep_svg_flag(tmp_path):
    assert main(_sweep_args(tmp_path, svg=True)) == 0
    root = ET.fromstring((tmp_path / "sweep.svg").read_text())
    assert root.tag.endswith("svg")


def test_sweep_single_rep_writes_na_stderr(tmp_path):
    args = [
        "sweep", "--problem", "gauss1d", "--epsilons", "0.0", "--reps", "1",
        "--n", "12", "--steps", "4", "--jobs", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    text = (tmp_path / "rmse.csv").read_text()
    assert ",NA" in text


def test_sweep_identical_whatever_jobs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(_sweep_args(a)) == 0
    args_b = _sweep_args(b)
    args_b[args_b.index("--jobs") + 1] = "3"
    assert main(args_b) == 0
    assert (a / "rmse.csv").read_bytes() == (b / "rmse.csv").read_bytes()
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    args = _sweep_args(tmp_path)
    args[args.index("--epsilons") + 1] = "0.0,0.6"
    assert main(args) == 1
    assert "invalid grid" in capsys.readouterr().err
    args[args.index("--epsilons") + 1] = "0.0,huh"
    assert main(args) == 1


def test_theory_prints_module_values(capsys):
    code = main(
        ["theory", "--theta-star", "2.0", "--n", "200", "--sigma2", "1.0", "--gamma2", "4.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    rep = prior_mass_lower_bound(np.array([2.0]), 200, 1.0, 4.0)
    ext = extended_prior_mass_construction(np.array([2.0]), 200, 1.0, 4.0)
    assert float(values["s_n"]) == rep.s_n
    assert float(values["mass_lower_bound"]) == rep.mass_lower_bound
    assert float(values["beta_min"]) == rep.beta_min
    assert float(values["kl_value"]) == ext.kl_value
    assert float(values["beta_min_extended"]) == ext.beta_min_extended
    assert int(values["dim"]) == 1


def test_theory_norm_form_and_output_file(tmp_path, capsys):
    code = main(
        [
            "theory", "--theta-star-norm", "2.0", "--dim", "15", "--n", "200",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "theta_star_norm = 2.0" in out
    assert (tmp_path / "theory.csv").exists()


def test_theory_argument_validation(capsys):
    assert main(["theory"]) == 1
    assert main(["theory", "--theta-star", "1.0", "--theta-star-norm", "1.0"]) == 1
    assert main(["theory", "--theta-star", "1.0,2.0", "--dim", "3"]) == 1
    assert main(["theory", "--theta-star-norm", "-1.0"]) == 1
    assert main(["theory", "--theta-star", "a,b"]) == 1
    capsys.readouterr()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": "gauss1d",
                "epsilons": "0.0",
                "reps": 3,
                "n": 12,
                "steps": 4,
                "jobs": 1,
            }
        )
    )
    out1 = tmp_path / "one"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_rmse_csv(str(out1 / "rmse.csv"))
    assert rows[0]["repetitions"] == 3
    # explicit flags beat the file
    out2 = tmp_path / "two"
    assert main(["sweep", "--config", str(cfg), "--reps", "2", "--out", str(out2)]) == 0
    rows = read_rmse_csv(str(out2 / "rmse.csv"))
    assert rows[0]["repetitions"] == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": "gauss1d", "bogus_key": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_config_file_rejects_nested_values_and_bad_json(tmp_path, capsys):
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps({"problem": "gauss1d", "epsilons": [0.0, 0.1]}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{not json")
    assert main(["sweep", "--config", str(cfg2)]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_verify_small_run_passes(capsys):
    code = main(["verify", "--trials", "40", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "argmin" in out
