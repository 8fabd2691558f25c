import json
import os

import numpy as np
import pytest

from structsim.cli import main

GOOD_CONFIG = """
[population]
lambda_h = 8.4e5
lambda_m = 7e6
theta    = 3.65e4

[rates]
mu_h    = constant(0.022)
mu_m    = constant(20)
nu_h    = constant(0.1)
nu_m    = constant(25)
gamma_h = piecewise(0.1, 0, 50)
k_h     = piecewise(0.1, 0, 40)
beta_h  = gauss(0.1, 0.3, 0.1)
beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)

[grid]
delta     = 0.01
a_max_h   = 100.0
a_max_m   = 1.5
tau_max_h = 0.6
tau_max_m = 1.5
eta_max   = 1.0
"""


def test_validate_preset_ok():
    assert main(["validate", "--preset", "forward", "--delta", "0.01"]) == 0


def test_validate_failing_config_exits_1(tmp_path):
    bad = GOOD_CONFIG.replace("beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)",
                              "beta_m  = constant(0)")
    path = tmp_path / "dead.cfg"
    path.write_text(bad)
    assert main(["validate", "--config", str(path)]) == 1


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(GOOD_CONFIG.replace("theta    = 3.65e4", "theta    = -3"))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["validate", "--preset", "forward", "--config", str(path)]) == 2


@pytest.mark.parametrize("flag", ["--lambda-m", "--delta"])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_nonpositive_overrides_exit_2(tmp_path, capsys, flag, value):
    path = tmp_path / "good.cfg"
    path.write_text(GOOD_CONFIG)
    for source in (["--preset", "forward"], ["--config", str(path)]):
        assert main(["r0", *source, flag, value, "--method", "closed"]) == 2
        assert "must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--points", "0"], ["--points", "-3"],
                                   ["--threads", "2"]])
def test_bifurcate_rejects_bad_arguments(tmp_path, extra):
    out = tmp_path / "branch.csv"
    assert main(["bifurcate", "--preset", "forward", "--lambda-m-min", "5e6",
                 "--lambda-m-max", "1e7", "--delta", "0.01", "--out", str(out),
                 "--quiet", *extra]) == 2
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--output-every", "0"], ["--output-every", "-2"],
                                   ["--t-end", "nan"], ["--t-end", "inf"],
                                   ["--t-end", "-1"], ["--seed-fraction", "1.5"],
                                   ["--seed-fraction", "-0.1"], ["--a-max-h", "-5"],
                                   ["--tau-max-h", "0.0123"]])
def test_simulate_usage_errors_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "run.csv"
    args = ["simulate", "--preset", "forward", "--t-end", "0.1", "--delta", "0.01",
            "--out", str(out), "--quiet"]
    assert main(args + extra) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_r0_and_growth_rate_run(capsys):
    assert main(["r0", "--preset", "backward", "--lambda-m", "7.4e7",
                 "--method", "all", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "closed form" in out and "power iter" in out and "reduced" in out
    assert main(["growth-rate", "--preset", "forward", "--lambda-m", "7e6",
                 "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "lambda*" in out and "g(0)" in out


def test_simulate_csv_and_manifest(tmp_path):
    out = str(tmp_path / "run.csv")
    snap = str(tmp_path / "final.bin")
    args = ["simulate", "--preset", "forward", "--lambda-m", "7e6",
            "--t-end", "1", "--seed-fraction", "0.01", "--delta", "0.01",
            "--out", out, "--snapshot", snap, "--quiet"]
    assert main(args) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,n_h,n_m,total_i_h,total_i_m,foi_mh_total,foi_hm_total"
    assert len(lines) > 2
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["preset"] == "forward"
    assert out in manifest["outputs"] and snap in manifest["outputs"]
    assert manifest["params"]["lambda_m"] == 7e6

    # identical manifest inputs imply byte-identical CSV
    out2 = str(tmp_path / "run2.csv")
    args2 = list(args)
    args2[args2.index(out)] = out2
    args2[args2.index(snap)] = str(tmp_path / "final2.bin")
    assert main(args2) == 0
    assert open(out, "rb").read() == open(out2, "rb").read()


def test_svg_is_a_derived_view(tmp_path):
    base = ["simulate", "--preset", "forward", "--lambda-m", "7e6", "--t-end",
            "0.5", "--delta", "0.01", "--quiet"]
    plain = str(tmp_path / "plain.csv")
    with_svg = str(tmp_path / "plotted.csv")
    svg = str(tmp_path / "plot.svg")
    assert main(base + ["--out", plain]) == 0
    assert main(base + ["--out", with_svg, "--svg", svg]) == 0
    assert open(plain, "rb").read() == open(with_svg, "rb").read()
    assert open(svg).read().startswith("<svg")


def test_bifurcate_csv_headers(tmp_path):
    out = str(tmp_path / "branch.csv")
    assert main(["bifurcate", "--preset", "backward", "--lambda-m-min", "5e6",
                 "--lambda-m-max", "1e8", "--points", "25", "--delta", "0.01",
                 "--out", out, "--svg", str(tmp_path / "branch.svg"),
                 "--quiet"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# classification=backward")
    assert lines[1].startswith("# c_bif=")
    assert lines[2].startswith("# r0_star=")
    assert lines[3] == "lambda_m,r0,n_roots,k1,k2"
    counts = [int(ln.split(",")[2]) for ln in lines[4:]]
    assert max(counts) == 2 and min(counts) == 0


def test_report_consistency_gate(capsys):
    assert main(["report", "--preset", "backward", "--lambda-m", "2.5e7",
                 "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "endemic roots at this R0    2:" in out
    assert "backward" in out


def test_reproduce_unknown_figure_exits_2():
    assert main(["reproduce", "--figure", "fig9-nope"]) == 2


def test_reproduce_takes_no_seed_fraction(tmp_path):
    # every recipe fixes its own seed
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "--figure", "fig3-left", "--out-dir", str(out_dir),
                 "--seed-fraction", "0.5", "--quiet"]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("extra", [["--lambda-m", "1e6"], ["--preset", "backward"],
                                   ["--config", "model.cfg"]])
def test_reproduce_rejects_model_options(tmp_path, capsys, extra):
    # the recipe fixes the model; reproduce used to accept these and drop them
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "--figure", "fig3-left", "--out-dir", str(out_dir),
                 "--t-end", "0.5", "--quiet", *extra]) == 2
    assert not out_dir.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reproduce_recipes(tmp_path):
    out_dir = str(tmp_path / "repro")
    assert main(["reproduce", "--figure", "fig3-right", "--out-dir", out_dir,
                 "--t-end", "2", "--delta", "0.01", "--quiet"]) == 0
    assert os.path.exists(os.path.join(out_dir, "fig3-right.csv"))
    assert os.path.exists(os.path.join(out_dir, "fig3-right.svg"))
    assert main(["reproduce", "--figure", "fig2-forward", "--out-dir", out_dir,
                 "--delta", "0.01", "--quiet"]) == 0
    lines = open(os.path.join(out_dir, "fig2-forward.csv")).read().splitlines()
    assert lines[0] == "# classification=forward"
    assert lines[2] == "# r0_star=None"
