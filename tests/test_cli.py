import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest

import structsim as ss
from structsim import bifurcation, cli, manifest, solver
from structsim.cli import main
from structsim.manifest import RunManifest

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


# no mosquito->human transmission
DEAD_CONFIG = GOOD_CONFIG.replace("beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)",
                                  "beta_m  = constant(0)")


def test_validate_preset_ok():
    assert main(["validate", "--preset", "forward", "--delta", "0.01"]) == 0


def test_validate_failing_config_exits_1(tmp_path):
    path = tmp_path / "dead.cfg"
    path.write_text(DEAD_CONFIG)
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
                                   ["--threads", "2"], ["--lambda-m-max", "inf"],
                                   ["--lambda-m-max", "nan"], ["--lambda-m-min", "inf"],
                                   ["--lambda-m-min", "nan"], ["--lambda-m-min", "0"],
                                   ["--lambda-m-max", "1e6"], ["--lambda-m-min", "1e7"]])
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
                                   ["--tau-max-h", "0.0123"], ["--a-max-h", "inf"],
                                   ["--tau-max-h", "inf"]])
def test_simulate_usage_errors_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "run.csv"
    args = ["simulate", "--preset", "forward", "--t-end", "0.1", "--delta", "0.01",
            "--out", str(out), "--quiet"]
    assert main(args + extra) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["0.074", "0.024"])
def test_t_end_between_grid_steps_exits_2(tmp_path, capsys, t_end):
    # a run takes whole steps: at delta = 0.01 these used to stop at t = 0.07
    # and t = 0.02 without a word; simulate and reproduce refuse them
    out_dir = tmp_path / "repro"
    for command in (["simulate", "--preset", "forward", "--out", str(tmp_path / "run.csv")],
                    ["reproduce", "--figure", "fig3-left", "--out-dir", str(out_dir)]):
        assert main(command + ["--t-end", t_end, "--delta", "0.01", "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --t-end {t_end} is not a whole "
                                                   "number of grid steps"), err
    assert not (tmp_path / "run.csv").exists() and not (out_dir / "fig3-left.csv").exists()
    # 0.07 / 0.01 is 7.000000000000001: a whole number of steps within 1e-9
    out = tmp_path / "whole.csv"
    assert main(["simulate", "--preset", "forward", "--out", str(out), "--t-end", "0.07",
                 "--delta", "0.01", "--quiet"]) == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1)[-1, 0] == pytest.approx(0.07)


def test_infinite_config_extent_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text(GOOD_CONFIG.replace("a_max_h   = 100.0", "a_max_h   = inf"))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(path), "--t-end", "0.1", "--out", str(out),
                 "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: a_max_h=inf")


@pytest.mark.parametrize("command", [["validate"], ["r0"], ["report"], ["growth-rate"],
                                     ["bifurcate", "--lambda-m-min", "1e6", "--lambda-m-max",
                                      "1e8", "--points", "5", "--out", "b.csv"]])
@pytest.mark.parametrize("theta", ["1e400", "nan"])
def test_a_non_finite_constant_is_a_config_error(tmp_path, capsys, theta, command):
    # 1e400 parses as inf: no command may pass its checks or print g(0) = inf
    path = tmp_path / "theta.cfg"
    path.write_text(GOOD_CONFIG.replace("theta    = 3.65e4", f"theta    = {theta}"))
    argv = [command[0], "--config", str(path), "--delta", "0.05", *command[1:]]
    assert main([a.replace("b.csv", str(tmp_path / "b.csv")) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "config error: line 5: non-finite parameter: theta must be finite"]
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("command", [["r0"], ["report"], ["growth-rate"],
                                     ["bifurcate", "--lambda-m-min", "1e6", "--lambda-m-max",
                                      "1e8", "--points", "5", "--out", "b.csv"]])
@pytest.mark.parametrize("old, new, values", [
    # theta^2 = 1e400 overflows a float
    ("theta    = 3.65e4", "theta    = 1e200", "theta = 1e+200, int pi_h = 45.4545"),
    # exp(-mu_h delta / 2) underflows to 0, so int pi_h is 0
    ("mu_h    = constant(0.022)", "mu_h    = constant(1e6)", "theta = 36500, int pi_h = 0"),
], ids=["theta", "mu_h"])
def test_an_overflowing_kernel_prefactor_is_one_error_line(tmp_path, capsys, command, old, new,
                                                           values):
    # each R0 route refuses the kernel with one line and no traceback
    path = tmp_path / "prefactor.cfg"
    path.write_text(GOOD_CONFIG.replace(old, new))
    argv = [command[0], "--config", str(path), "--delta", "0.05", *command[1:]]
    assert main([a.replace("b.csv", str(tmp_path / "b.csv")) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: the generation prefactor lambda_m theta^2 / (lambda_h (int pi_h)^2) overflows: "
        f"lambda_m = 7e+06, {values}"]
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("name", ["lambda_h", "lambda_m", "theta"])
def test_model_params_refuse_a_non_finite_or_non_positive_constant(name, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        dataclasses.replace(ss.preset("forward"), **{name: value})
    if name == "lambda_m":
        with pytest.raises(ValueError, match="must be positive and finite"):
            ss.preset("forward").with_lambda_m(value)


def test_zero_mortality_without_a_grid_needs_an_age_extent(tmp_path, capsys):
    # the default human age extent is 5 / min mu_h on ages [0, 10]: with mu_h
    # 0 below age 40 it would be 10^9 cells, so every command stops before
    # sizing a grid, unless --a-max-h gives the extent
    path = tmp_path / "zero.cfg"
    path.write_text(GOOD_CONFIG.split("[grid]")[0]
                    .replace("mu_h    = constant(0.022)", "mu_h    = piecewise(40, 0, 0.02)"))
    out = tmp_path / "run.csv"
    with mock.patch.object(cli, "default_grid", side_effect=AssertionError("grid sized")):
        for command in (["validate"], ["report"],
                        ["simulate", "--mode", "full", "--t-end", "0.1", "--out", str(out)]):
            assert main(command + ["--config", str(path)]) == 2, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: mu_h reaches 0"), command
            assert "[grid]" in err[0] and "--a-max-h" in err[0]
    assert not out.exists()
    args = cli.build_parser().parse_args(["report", "--config", str(path), "--a-max-h", "100"])
    _, grid, _ = cli._resolve(args)
    assert grid.a_max_h == 100.0 and grid.n_ah == 20000


def test_tiny_mortality_without_a_grid_needs_an_age_extent(tmp_path, capsys):
    # mu_h 1e-7 below age 40 is positive, but 5 / mu_h sizes ~10^10 cells
    # (10^9 behind the old 1e-6 clamp), past cli.MAX_DEFAULT_AGE_CELLS: the
    # commands stop before sizing a grid, unless --a-max-h gives the extent
    text = GOOD_CONFIG.split("[grid]")[0]
    path = tmp_path / "tiny.cfg"
    path.write_text(text.replace("mu_h    = constant(0.022)",
                                 "mu_h    = piecewise(40, 1e-7, 0.02)"))
    with mock.patch.object(cli, "default_grid", side_effect=AssertionError("grid sized")):
        for command in (["validate"], ["report"], ["r0"]):
            assert main(command + ["--config", str(path)]) == 2, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: mu_h reaches 1e-07"), command
            assert "1e+10 cells" in err[0] and "[grid]" in err[0] and "--a-max-h" in err[0]
    args = cli.build_parser().parse_args(["report", "--config", str(path), "--a-max-h", "100"])
    assert cli._resolve(args)[1].n_ah == 20000
    # a mortality whose default axis fits under the cap keeps it: the
    # backward preset's 500 000 cells
    path.write_text(text.replace("mu_h    = constant(0.022)", "mu_h    = constant(0.002)"))
    args = cli.build_parser().parse_args(["report", "--config", str(path), "--delta", "0.005"])
    assert cli._resolve(args)[1].n_ah == 500000


@pytest.mark.parametrize("source", ["preset", "config without [grid]", "config with [grid]"])
def test_a_grid_error_exits_2_from_every_source(tmp_path, capsys, source):
    # delta = 0.04 does not divide a_max_m = 1.5, whether the extent comes
    # from the default grid of a preset or of a config, or from its [grid]
    path = tmp_path / "model.cfg"
    path.write_text(GOOD_CONFIG if source.endswith("with [grid]")
                    else GOOD_CONFIG.split("[grid]")[0])
    model = ["--preset", "forward"] if source == "preset" else ["--config", str(path)]
    for command in (["validate"], ["r0", "--method", "closed"]):
        assert main(command + model + ["--delta", "0.04"]) == 2, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "a_max_m=1.5 is not a positive integer multiple" in err[0]
        assert err[0].startswith("error: grid: ")


def test_a_preset_is_capped_like_a_config_without_a_grid(capsys):
    # the backward preset at delta = 1e-5 would size 2.5e8 human age cells:
    # it stops before sizing a grid, and --a-max-h still gives the extent
    with mock.patch.object(cli, "default_grid", side_effect=AssertionError("grid sized")):
        assert main(["validate", "--preset", "backward", "--delta", "1e-5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: mu_h reaches 0.002")
    assert "2.5e+08 cells" in err[0] and "--a-max-h" in err[0]
    args = cli.build_parser().parse_args(["validate", "--preset", "backward", "--delta",
                                          "1e-5", "--a-max-h", "1"])
    params, grid, name = cli._resolve(args)
    assert name == "backward" and grid.n_ah == 100000 and grid.n_am == 150000


def _cli_child(argv, cwd, *flags, limit=None):
    """The CLI on ``argv`` in a child interpreter started with ``flags``,
    under an address-space ``limit`` in bytes if one is given: numpy then
    refuses a larger array before it touches any memory, whatever the
    machine's overcommit policy."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(ss.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    limited = None if limit is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return subprocess.run([sys.executable, *flags, "-m", "structsim.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=cwd, preexec_fn=limited)


@pytest.mark.parametrize("command", [["r0", "--preset", "forward"],
                                     ["reproduce", "--figure", "fig2-forward"]])
def test_a_grid_too_large_to_allocate_exits_2(tmp_path, command):
    # the (1 500 000, 1 500 000) mosquito kernel of this grid is 16.4 TiB,
    # refused under the child's 4 GiB address space
    ran = _cli_child([*command, "--delta", "1e-6", "--a-max-h", "100"], tmp_path,
                     limit=4 << 30)
    err = ran.stderr.splitlines()
    assert ran.returncode == 2 and len(err) == 1, ran.stderr
    assert err[0].startswith("error: grid delta=1e-06 (100000000 human and 1500000 mosquito "
                             "age cells) too large to allocate: "), err


@pytest.mark.parametrize("figure", ["fig2-forward", "fig3-left"])
def test_a_reproduce_refused_by_an_allocation_leaves_no_out_dir(tmp_path, figure):
    # the 168 GiB mosquito kernel of this grid is refused under the child's
    # 4 GiB address space after the grid is accepted; the recipe's directory
    # is made only before its first write, so none is left behind
    ran = _cli_child(["reproduce", "--figure", figure, "--delta", "1e-5", "--a-max-h", "100",
                      "--out-dir", "od"], tmp_path, limit=4 << 30)
    err = ran.stderr.splitlines()
    assert ran.returncode == 2 and len(err) == 1, ran.stderr
    assert "too large to allocate" in err[0]
    assert os.listdir(tmp_path) == []


def test_a_preset_takes_the_default_grid_of_its_mortality():
    for name in ("forward", "backward"):
        args = cli.build_parser().parse_args(["r0", "--preset", name, "--lambda-m", "3e7",
                                              "--delta", "0.01"])
        assert cli._resolve(args) == (ss.preset(name, 3e7), ss.preset_grid(name, 0.01), name)
    # the options replace default extents before the grid is built, so they
    # can mend one that the step does not divide
    args = cli.build_parser().parse_args(["r0", "--preset", "forward", "--delta", "0.04",
                                          "--a-max-m", "1.6", "--tau-max-m", "1.6"])
    grid = cli._resolve(args)[1]
    assert (grid.n_am, grid.n_tm) == (40, 40)


def test_validate_checks_beta_on_the_samples_the_model_reads(tmp_path, capsys):
    # a peak of 2.516 / sqrt(2 pi) = 1.0037 at infection age 0.2: on the
    # cells (age, tau) it stays below 1 (age - tau >= delta), but the R0
    # kernels and the solver sample it at the age-lag midpoint, where it
    # reaches 1.0012 at delta = 0.005
    path = tmp_path / "hot.cfg"
    path.write_text(GOOD_CONFIG.replace("gauss_exp(0.05, 0.2, 0.2, 1.0)",
                                        "gauss_exp(2.516, 0.2, 0.2, 1.0)"))
    assert main(["validate", "--config", str(path), "--delta", "0.005"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  beta_in_unit_interval" in out and "beta_m leaves [0, 1]" in out


def test_r0_and_growth_rate_run(capsys):
    assert main(["r0", "--preset", "backward", "--lambda-m", "7.4e7",
                 "--method", "all", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "closed form" in out and "power iter" in out and "reduced" in out
    assert main(["growth-rate", "--preset", "forward", "--lambda-m", "7e6",
                 "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "lambda*" in out and "g(0)" in out


def test_r0_writes_no_csv(tmp_path, capsys):
    # every artifact the CLI writes gets a manifest; r0 only prints
    out = tmp_path / "r0.csv"
    assert main(["r0", "--preset", "forward", "--delta", "0.01", "--out", str(out)]) == 2
    assert not out.exists()
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_fig4_bl_start_builds_the_reduced_kernels_once():
    # the start solves for the upper root and reconstructs it from the same
    # kernels and h scan
    params, grid = ss.preset("backward", 2.5e7), ss.preset_grid("backward", 0.01)
    bifurcation.build_reduced_kernels.cache_clear()
    with mock.patch.object(bifurcation, "ReducedKernels",
                           wraps=bifurcation.ReducedKernels) as built:
        start = cli._upper_endemic_start(params, grid)
    assert built.call_count == 1
    assert start.mode == "reduced" and float(np.sum(start.i_h)) > 0.0


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


def test_simulate_frees_its_seed_before_the_first_step(tmp_path):
    # the command hands the seed to the run without keeping it, so a
    # full-mode seed is gone once the rings hold it
    cfg = tmp_path / "model.cfg"
    cfg.write_text(GOOD_CONFIG)
    refs, freed = [], []
    seed, step = cli.default_initial, solver._step_inplace

    def kept_seed(*args, **kwargs):
        init = seed(*args, **kwargs)
        refs.append(weakref.ref(init.i_h))
        return init

    def checked(*args):
        freed.append(refs[0]() is None)
        step(*args)

    with mock.patch.object(cli, "default_initial", kept_seed), \
            mock.patch.object(solver, "_step_inplace", checked):
        assert main(["simulate", "--config", str(cfg), "--a-max-h", "2", "--mode", "full",
                     "--t-end", "0.02", "--out", str(tmp_path / "run.csv"),
                     "--snapshot", str(tmp_path / "final.bin"), "--quiet"]) == 0
    assert freed and all(freed)


@pytest.mark.parametrize("mode", ["full", "reduced", "bifurcate"])
def test_manifest_digests_are_the_outputs_sha256(tmp_path, mode):
    # the snapshot's digest is taken while it is written, the others from
    # their files: each is the SHA-256 of the file's bytes
    cfg = tmp_path / "model.cfg"
    cfg.write_text(GOOD_CONFIG)
    out, svg = str(tmp_path / "run.csv"), str(tmp_path / "run.svg")
    if mode == "bifurcate":
        command = ["bifurcate", "--lambda-m-min", "1e6", "--lambda-m-max", "1e8",
                   "--points", "5"]
    else:
        command = ["simulate", "--a-max-h", "2", "--mode", mode, "--t-end", "0.05",
                   "--snapshot", str(tmp_path / "final.bin")]
    assert main([*command, "--config", str(cfg), "--out", out, "--svg", svg, "--quiet"]) == 0
    with open(out + ".manifest.json") as fh:
        outputs = json.load(fh)["outputs"]
    assert len(outputs) == (2 if mode == "bifurcate" else 3)
    for path, digest in outputs.items():
        with open(path, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest(), path


@pytest.mark.parametrize("nbytes", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
def test_digests_take_openssl_from_one_mib_with_the_same_value(nbytes):
    # below 1 MiB CPython's built-in SHA-256 hashes and OpenSSL is not loaded
    data = np.random.default_rng(nbytes).bytes(nbytes)
    digest = manifest.sha256(nbytes)
    digest.update(data)
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    openssl = type(hashlib.sha256())
    assert isinstance(digest, openssl) == (nbytes >= manifest.BUILTIN_SHA256_MAX_BYTES)


def test_digests_take_openssl_without_a_builtin_sha256():
    with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None}):
        digest = manifest.sha256(1)
    digest.update(b"x")
    assert isinstance(digest, type(hashlib.sha256()))
    assert digest.hexdigest() == hashlib.sha256(b"x").hexdigest()


_QUERIES_THEN_MANIFESTS = """\
import json, sys
from structsim.cli import main
result, model = sys.argv[1], ["--preset", "forward", "--lambda-m", "7e6", "--delta", "0.01"]
codes = [main(command + model) for command in
         (["validate"], ["r0", "--method", "all"], ["report"], ["growth-rate"])]
loaded = [sorted({"hashlib", "_hashlib"} & set(sys.modules))]
out_dir = sys.argv[2]
codes.append(main(["simulate", *sys.argv[3:], *model]))
codes.append(main(["bifurcate", "--lambda-m-min", "1e6", "--lambda-m-max", "1e8",
                   "--points", "3", "--out", out_dir + "/branch.csv", "--quiet", *model]))
codes.append(main(["reproduce", "--figure", "fig4-bl", "--t-end", "1", "--delta", "0.01",
                   "--out-dir", out_dir, "--quiet"]))
loaded.append(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
with open(result, "w") as fh:
    json.dump({"codes": codes, "loaded": loaded}, fh)
"""


def test_query_commands_load_no_hashlib(tmp_path, capsys):
    # hashlib loads OpenSSL's libcrypto, which sets the peak RSS of a small
    # command: a command that writes no digest never imports it, and nor do
    # a reduced simulate with an SVG and a snapshot, bifurcate and reproduce,
    # whose files are all below the size from which digests use OpenSSL; the
    # simulate records the same digests as one run where hashlib was loaded
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ss.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    digests = []
    for side in ("fresh", "here"):
        out, snap = str(tmp_path / f"{side}.csv"), str(tmp_path / f"{side}.bin")
        simulate = ["--t-end", "0.5", "--seed-fraction", "0.01", "--out", out,
                    "--snapshot", snap, "--svg", str(tmp_path / f"{side}.svg"), "--quiet"]
        if side == "fresh":
            result = tmp_path / "result.json"
            subprocess.run([sys.executable, "-c", _QUERIES_THEN_MANIFESTS, str(result),
                            str(tmp_path), *simulate], env=env, capture_output=True, check=True)
            ran = json.loads(result.read_text())
            assert ran["codes"] == [0] * 7 and ran["loaded"] == [[], []]
            for csv in ("fresh.csv", "branch.csv", "fig4-bl.csv"):
                assert (tmp_path / f"{csv}.manifest.json").exists(), csv
        else:
            assert main(["simulate", *simulate, "--preset", "forward", "--lambda-m", "7e6",
                         "--delta", "0.01"]) == 0
        with open(out + ".manifest.json") as fh:
            outputs = json.load(fh)["outputs"]
        for path, digest in outputs.items():
            with open(path, "rb") as fh:
                assert digest == hashlib.sha256(fh.read()).hexdigest(), path
        digests.append((outputs[out], outputs[snap]))
    assert digests[0] == digests[1]


def test_manifest_records_peak_rss_outside_the_input_digest():
    # peak RSS sits beside wall_time_s; the digest covers only the inputs,
    # so a run that peaks higher has the same input_digest
    params, grid = ss.preset("forward", 7e6), ss.preset_grid("forward")
    manifest = RunManifest(["simulate", "--preset", "forward"], "forward", params, grid)
    first = manifest.to_dict()
    assert first["peak_rss_mb"] > 0.0
    inputs = {key: first[key] for key in ("command", "preset", "params", "grid", "version")}
    assert first["input_digest"] == hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with mock.patch.object(resource, "getrusage",
                           return_value=mock.Mock(ru_maxrss=peak_kib + 2048)):
        higher = manifest.to_dict()
    assert higher["peak_rss_mb"] == pytest.approx(first["peak_rss_mb"] + 2.0, abs=0.11)
    assert higher["input_digest"] == first["input_digest"]


def test_manifest_records_the_argv_given_to_main(tmp_path):
    # two runs from one process record their own command lines, not the
    # host's, so their input digests differ; cli.main is the one reader of
    # sys.argv, and only when it is given no argv
    model = ["--preset", "forward", "--lambda-m", "7e6", "--delta", "0.01", "--quiet"]
    commands = [["simulate", "--t-end", t_end, "--out", str(tmp_path / f"{t_end}.csv"), *model]
                for t_end in ("0.1", "0.2")]
    commands.append(["bifurcate", "--lambda-m-min", "1e6", "--lambda-m-max", "1e7",
                     "--points", "3", "--out", str(tmp_path / "branch.csv"), *model])
    manifests = []
    with mock.patch.object(sys, "argv", ["host", "--not-a-structsim-option"]):
        for argv in commands:
            assert main(argv) == 0
            with open(argv[argv.index("--out") + 1] + ".manifest.json") as fh:
                manifests.append(json.load(fh))
    assert [m["command"] for m in manifests] == commands
    assert len({m["input_digest"] for m in manifests}) == len(commands)
    src = os.path.dirname(ss.__file__)
    readers = [name for name in sorted(os.listdir(src)) if name.endswith(".py")
               and "sys.argv" in open(os.path.join(src, name)).read()]
    assert readers == ["cli.py"]


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


def test_bifurcate_sweeps_to_huge_recruitment_without_overflow(tmp_path):
    # r0 reaches 1.8e293: roots are bracketed and bisected on signs, whose
    # products cannot overflow, so no RuntimeWarning is raised as an error
    ran = _cli_child(["bifurcate", "--preset", "forward", "--lambda-m-min", "1e6",
                      "--lambda-m-max", "1e300", "--points", "5", "--out", "b.csv"],
                     tmp_path, "-W", "error::RuntimeWarning")
    assert ran.returncode == 0 and ran.stderr == "", ran.stderr
    rows = [ln.split(",") for ln in (tmp_path / "b.csv").read_text().splitlines()[4:]]
    values = [float(v) for row in rows for v in row if v]
    assert len(rows) == 5 and float(rows[-1][1]) > 1e292
    assert np.all(np.isfinite(values))


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


@pytest.mark.parametrize("name", ["forward", "backward"])
def test_presets_print_no_sign_note(tmp_path, capsys, name):
    # c_bif and h'(0) agree in sign on both presets
    assert main(["bifurcate", "--preset", name, "--lambda-m-min", "5e6",
                 "--lambda-m-max", "1e8", "--points", "5", "--delta", "0.01",
                 "--out", str(tmp_path / "branch.csv"), "--quiet"]) == 0
    assert main(["report", "--preset", name, "--delta", "0.01"]) == 0
    assert "note:" not in capsys.readouterr().err


def test_report_consistency_gate(capsys):
    assert main(["report", "--preset", "backward", "--lambda-m", "2.5e7",
                 "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "endemic roots at this R0    2:" in out
    assert "backward" in out


def test_report_names_the_route_that_breaks_agreement(capsys, monkeypatch):
    reduced = cli.r0_reduced
    monkeypatch.setattr(cli, "r0_reduced", lambda p, g: reduced(p, g) * (1 + 3e-5))
    assert main(["report", "--preset", "backward", "--lambda-m", "2.5e7",
                 "--delta", "0.01"]) == 1
    captured = capsys.readouterr()
    assert "MISMATCH" not in captured.out
    assert "r0 squared (reduced)" in captured.out
    assert "furthest from the closed form: reduced (3.00e-05 relative)" in captured.err


@pytest.mark.parametrize("mu_h", ["constant(0.022)", "piecewise(40, 0.02, 0.024)"],
                         ids=["eligible", "general"])
def test_report_without_transmission_agrees_at_zero(tmp_path, capsys, mu_h):
    # with no mosquito->human kernel there is no endemic branch: the eligible
    # path drops its bifurcation part, which the general path never has
    path = tmp_path / "dead.cfg"
    path.write_text(DEAD_CONFIG.replace("mu_h    = constant(0.022)", f"mu_h    = {mu_h}"))
    assert main(["report", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    values = {ln.split(")")[0]: ln.split(")")[1].split()[0]
              for ln in captured.out.splitlines() if ln.startswith(("r0 squared", "g(0)"))}
    assert len(values) == (4 if mu_h.startswith("constant") else 3)
    assert set(values.values()) == {"0.0"}, values
    assert "== bifurcation ==" not in captured.out
    assert "MISMATCH" not in captured.err and "Traceback" not in captured.err


def test_bifurcate_without_mosquito_kernel_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "dead.cfg"
    path.write_text(DEAD_CONFIG)
    out = tmp_path / "branch.csv"
    assert main(["bifurcate", "--config", str(path), "--lambda-m-min", "5e6",
                 "--lambda-m-max", "1e7", "--points", "5", "--out", str(out),
                 "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the mosquito->human kernel vanishes")
    assert not out.exists()


def test_simulate_without_human_removal(tmp_path, capsys):
    # no human ever leaves but by ageing off the axis: the full layout runs,
    # the reduced one has no susceptible balance and says so
    path = tmp_path / "immortal.cfg"
    path.write_text(GOOD_CONFIG.replace("a_max_h   = 100.0", "a_max_h   = 1.0")
                    .replace("mu_h    = constant(0.022)", "mu_h    = constant(0)")
                    .replace("nu_h    = constant(0.1)", "nu_h    = constant(0)")
                    .replace("piecewise(0.1, 0, 50)", "constant(0)")
                    .replace("piecewise(0.1, 0, 40)", "constant(0)"))
    out = tmp_path / "run.csv"
    args = ["simulate", "--config", str(path), "--t-end", "0.5", "--out", str(out),
            "--quiet"]
    assert main(args + ["--mode", "full"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(rows) > 1 and np.all(np.isfinite(rows))
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: reduced mode needs mu_h > 0")


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


@pytest.mark.parametrize("figure, refused", [
    ("fig3-left", ["--t-end", "0.074"]),                # between grid steps
    ("fig3-left", ["--t-end", "1", "--tau-max-h", "1e4"]),   # a grid error
    ("fig2-forward", ["--tau-max-h", "1e4"]),
])
def test_a_refused_reproduce_leaves_no_out_dir(tmp_path, capsys, figure, refused):
    # the directory is made only once the recipe's grid and --t-end are
    # accepted, so a refused run leaves none behind
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "--figure", figure, "--out-dir", str(out_dir), "--delta", "0.01",
                 "--quiet", *refused]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["reproduce", "--figure", "fig3-left", "--out-dir", str(out_dir),
                 "--t-end", "0.07", "--delta", "0.01", "--quiet"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "fig3-left.csv", "fig3-left.csv.manifest.json", "fig3-left.svg"]


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
