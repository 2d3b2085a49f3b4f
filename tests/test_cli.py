import argparse
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mmdvi import cli
from mmdvi.cli import main
from mmdvi.csvio import read_table, read_trace_csv
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


@pytest.mark.parametrize(
    "source, option",
    [
        (["--data", "DATA"], ["--epsilon", "0.1"]),
        (["--data", "DATA"], ["--n", "20"]),
        (["--data", "DATA"], ["--half-width", "3"]),
        (["--data", "DATA", "--model", "uniform"], ["--sigma2", "9"]),
        (["--problem", "gauss1d"], ["--model", "uniform"]),
        (["--problem", "gauss1d"], ["--sigma2", "9"]),
        (["--problem", "uniform"], ["--half-width", "3"]),
    ],
    ids=["data-epsilon", "data-n", "gaussian-half_width", "uniform-sigma2", "problem-model",
         "problem-sigma2", "problem-half_width"],
)
def test_estimate_rejects_options_it_never_reads(tmp_path, capsys, source, option):
    data = tmp_path / "x.csv"
    _write_sample(data, np.linspace(-1.0, 1.0, 10))
    source = [str(data) if arg == "DATA" else arg for arg in source]
    args = ["estimate", *source, "--steps", "3", "--out", str(tmp_path)]
    key = option[0][2:].replace("-", "_")
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({key: option[1]}))
    for extra in (option, ["--config", str(cfg)]):
        assert main(args + extra) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} not read")
        assert not (tmp_path / "trace.csv").exists()
    assert main(args) == 0


def test_estimate_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    code = main(["estimate", "--data", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--gamma2", "0"],
        ["--gamma2", "nan"],
        ["--sigma2", "-1"],
        ["--model", "uniform", "--half-width", "0"],
        ["--data", "missing.csv"],
        ["--beta-log", "-1000"],
        ["--beta-log=-inf"],
        ["--beta-log", "nan"],
    ],
    ids=["gamma2-zero", "gamma2-nan", "sigma2-negative", "half-width-zero", "missing-data",
         "beta-log-overflow", "beta-log-minus-inf", "beta-log-nan"],
)
def test_estimate_bad_input_exits_1_without_traceback(tmp_path, capsys, args):
    data = tmp_path / "x.csv"
    _write_sample(data, [1.0, 2.0, 3.0])
    if "--data" in args:
        args = [str(tmp_path / a) if a == "missing.csv" else a for a in args]
    else:
        args = ["--data", str(data), *args]
    code = main(["estimate", *args, "--steps", "3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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
    rmse = read_table(str(tmp_path / "rmse.csv"))
    assert len(rmse) == 2 * 3
    assert {r["estimator"] for r in rmse} == {"mmd", "mean", "median"}
    trials = read_table(str(tmp_path / "trials.csv"))
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


def test_sweep_jobs_default_counts_usable_cpus(tmp_path, monkeypatch):
    # as under ``taskset -c 0``: the host has more CPUs than this process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []
    real = cli.run_sweep

    def spy(*args, **kwargs):
        seen.append(kwargs["jobs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", spy)
    args = _sweep_args(tmp_path)
    at = args.index("--jobs")
    del args[at : at + 2]
    assert main(args) == 0
    assert seen == [1]


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


@pytest.mark.parametrize(
    "args, field",
    [
        (["--theta-star-norm", "2", "--dim", "0"], "dim"),
        (["--theta-star-norm", "2", "--dim", "-1"], "dim"),
        (["--theta-star", "nan"], "theta_star"),
        (["--theta-star", "1,inf"], "theta_star"),
        (["--theta-star-norm", "nan"], "theta_star_norm"),
        (["--theta-star-norm", "inf"], "theta_star_norm"),
        (["--theta-star", "2", "--sigma2", "inf"], "sigma2"),
        (["--theta-star", "2", "--gamma2", "inf"], "gamma2"),
        (["--theta-star", "2", "--n", "0"], "n"),
    ],
    ids=["dim-zero", "dim-negative", "theta-nan", "theta-inf", "norm-nan", "norm-inf",
         "sigma2-inf", "gamma2-inf", "n-zero"],
)
def test_theory_bad_input_exits_1_without_traceback(capsys, args, field):
    assert main(["theory", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("cmd", ["estimate", "sweep", "verify"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_is_named(tmp_path, capsys, cmd, how):
    args = {"estimate": ["--problem", "gauss1d", "--out", str(tmp_path)],
            "sweep": ["--problem", "gauss1d", "--out", str(tmp_path)], "verify": []}[cmd]
    if how == "flag":
        args = [*args, "--seed", "-1"]
    else:
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = [*args, "--config", str(cfg)]
    assert main([cmd, *args]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize(
    "args",
    [["--theta-star", "1,2,3", "--sigma2", "0.5"], ["--theta-star-norm", "2.0", "--dim", "15"]],
    ids=["theta-star", "norm-and-dim"],
)
def test_theory_prints_the_keys_of_the_csv_header_in_order(tmp_path, capsys, args):
    assert main(["theory", *args, "--out", str(tmp_path)]) == 0
    printed = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    header, row = (tmp_path / "theory.csv").read_text().splitlines()
    assert printed == header.split(",")
    assert len(row.split(",")) == len(printed) == 14


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": "gauss1d",
                "epsilons": "0.0",
                "reps": 3,
                "n": 12.0,  # an integral float is an integer
                "steps": 4,
                "jobs": 1,
            }
        )
    )
    out1 = tmp_path / "one"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_table(str(out1 / "rmse.csv"))
    assert rows[0]["repetitions"] == 3
    # explicit flags beat the file
    out2 = tmp_path / "two"
    assert main(["sweep", "--config", str(cfg), "--reps", "2", "--out", str(out2)]) == 0
    rows = read_table(str(out2 / "rmse.csv"))
    assert rows[0]["repetitions"] == 2


@pytest.mark.parametrize("cmd", ["estimate", "sweep", "theory", "verify"])
def test_every_long_flag_is_a_config_key(tmp_path, cmd):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    keys = [opt[2:].replace("-", "_") for action in sub.choices[cmd]._actions
            for opt in action.option_strings if opt not in ("--help", "--config")
            and opt.startswith("--")]
    values = {key: i for i, key in enumerate(keys)}
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(values))
    assert cli._merge(parser.parse_args([cmd, "--config", str(cfg)])) == values


def test_theory_takes_no_seed(tmp_path, capsys):
    # theory draws nothing, so it has no seed as a flag or as a config key
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--theta-star", "2.0", "--seed", "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "theory.json"
    cfg.write_text(json.dumps({"theta_star": "2.0", "seed": 1}))
    assert main(["theory", "--config", str(cfg)]) == 1
    assert "unknown config keys: seed" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_estimate_rejects_bad_step_scale(tmp_path, capsys, value):
    data = tmp_path / "x.csv"
    _write_sample(data, np.linspace(-1.0, 1.0, 10))
    args = ["estimate", "--data", str(data), "--steps", "3", "--out", str(tmp_path)]
    assert main(args + [f"--step-scale={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step_scale" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("value", [2.7, True, False, "2.5", 1e400])
def test_config_integer_keys_reject_non_integers(tmp_path, capsys, value):
    # a non-integral number or a bool is refused, never truncated to 2 or 1
    data = tmp_path / "x.csv"
    _write_sample(data, np.linspace(-1.0, 1.0, 10))
    cfg = tmp_path / "est.json"
    cfg.write_text(json.dumps({"data": str(data), "steps": value, "out": str(tmp_path)}))
    assert main(["estimate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "steps must be an integer" in err
    assert not (tmp_path / "trace.csv").exists()


def test_verify_rejects_too_few_trials(capsys):
    assert main(["verify", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: trials must be >= 2")
    assert captured.out == ""
