import re
import tracemalloc

import numpy as np
import pytest

import structsim as ss
from structsim.cli import main
from structsim.config import ConfigError, load_config
from structsim.params import preset, preset_grid, validate
from structsim.rates import Arity, RateKind, RateSpec

from conftest import make_params

GOOD = """
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


def test_document_matches_forward_preset():
    params, grid = load_config(GOOD)
    ref = preset("forward", 7e6)
    assert params.lambda_h == ref.lambda_h
    assert params.theta == ref.theta
    assert params.mu_h == ref.mu_h
    assert params.gamma_h == ref.gamma_h
    assert params.beta_m == ref.beta_m
    assert params.reduced_mode_eligible
    assert grid is not None and grid.delta == 0.01


def test_preset_values():
    p = preset("forward")
    assert p.lambda_h == 8.4e5
    assert p.mu_h.params == (0.022,)
    assert p.mu_m.params == (20.0,)
    assert p.nu_h.params == (0.1,)
    assert p.nu_m.params == (25.0,)
    assert p.theta == 3.65e4
    assert p.gamma_h.params == (0.1, 0.0, 50.0)
    assert p.k_h.params == (0.1, 0.0, 40.0)
    b = preset("backward")
    assert b.mu_h.params == (0.002,)
    assert preset("forward").reduced_mode_eligible
    assert preset("backward").reduced_mode_eligible
    with pytest.raises(ValueError, match="unknown preset"):
        preset("sideways")


def test_negative_parameter_is_an_error():
    bad = GOOD.replace("theta    = 3.65e4", "theta    = -1")
    with pytest.raises(ConfigError, match="negative parameter"):
        load_config(bad)[0]


def test_unknown_key_and_kind_and_syntax():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(GOOD + "\n[population]\nbites = 3\n")[0]
    with pytest.raises(ConfigError, match="unknown rate kind"):
        load_config(GOOD.replace("constant(20)", "lorentzian(20)"))[0]
    err = None
    try:
        load_config(GOOD.replace("mu_m    = constant(20)", "mu_m  constant(20)"))[0]
    except ConfigError as exc:
        err = exc
    assert err is not None and err.line is not None  # position-annotated


def _error_line(doc: str, line_text: str) -> int:
    return doc.splitlines().index(line_text) + 1


@pytest.mark.parametrize("value", ["constant(3)", "bogus(3)"])
def test_duplicate_key_is_reported_before_its_value(tmp_path, capsys, value):
    # a repeated key is the error, whether or not its value would parse
    doc = GOOD.replace("mu_m    = constant(20)\n", f"mu_m    = constant(20)\nmu_m = {value}\n")
    line = _error_line(doc, f"mu_m = {value}")
    with pytest.raises(ConfigError, match=f"line {line}: duplicate key 'mu_m'") as err:
        load_config(doc)
    assert err.value.line == line
    config = tmp_path / "dup.cfg"
    config.write_text(doc)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: line {line}: duplicate "
                                                    f"key 'mu_m'"]


@pytest.mark.parametrize("old, new, message", [
    ("mu_m    = constant(20)", "mu_m    = constant(1, 2)", "constant(c) takes one argument"),
    ("gamma_h = piecewise(0.1, 0, 50)", "gamma_h = piecewise(0.1, 0)",
     "piecewise(threshold, low, high) takes three arguments"),
    ("mu_h    = constant(0.022)", "mu_h    = table()", "table(path) takes one argument"),
    ("beta_h  = gauss(0.1, 0.3, 0.1)", "beta_h  = gauss_exp(0.1, 0.3, 0.1, 1.0)",
     "gauss_exp is only supported for beta_m"),
])
def test_rate_argument_errors_name_their_line(tmp_path, capsys, old, new, message):
    doc = GOOD.replace(old, new)
    line = _error_line(doc, new)
    with pytest.raises(ConfigError, match=re.escape(f"line {line}: {message}")) as err:
        load_config(doc)
    assert err.value.line == line
    config = tmp_path / "args.cfg"
    config.write_text(doc)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: line {line}: {message}"]


@pytest.mark.parametrize("old, new, at, message", [
    ("theta    = 3.65e4\n", "theta    = 3.65e4\nbites = 3\n", "bites = 3",
     "unknown key 'bites' in [population]"),
    ("mu_m    = constant(20)\n", "mu_m    = constant(20)\nmu_x = constant(1)\n",
     "mu_x = constant(1)", "unknown key 'mu_x' in [rates]"),
    ("eta_max   = 1.0\n", "eta_max   = 1.0\nzeta = 1\n", "zeta = 1",
     "unknown key 'zeta' in [grid]"),
    ("theta    = 3.65e4\n", "theta    = 3.65e4\nlambda_h = 9\n", "lambda_h = 9",
     "duplicate key 'lambda_h'"),
    ("k_h     = piecewise(0.1, 0, 40)\n", "k_h     = piecewise(0.1, 0, 40)\nk_h = constant(1)\n",
     "k_h = constant(1)", "duplicate key 'k_h'"),
    ("eta_max   = 1.0\n", "eta_max   = 1.0\ndelta = 0.02\n", "delta = 0.02",
     "duplicate key 'delta'"),
    ("\n[population]\n", "\ntheta = 1\n[population]\n", "theta = 1",
     "key outside of any [section]"),
    ("theta    = 3.65e4\n", "", None, "missing [population] key 'theta'"),
    ("beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)\n", "", None, "missing [rates] key 'beta_m'"),
    ("a_max_m   = 1.5\n", "", None, "[grid] section incomplete, missing ['a_max_m']"),
], ids=["unknown-population", "unknown-rates", "unknown-grid", "duplicate-population",
        "duplicate-rates", "duplicate-grid", "outside-section", "missing-population",
        "missing-rates", "incomplete-grid"])
def test_key_errors_are_one_line_with_their_line_number(tmp_path, capsys, old, new, at,
                                                        message):
    # every section checks its keys by one rule: the exact message, and the
    # line of the offending key where there is one
    doc = GOOD.replace(old, new, 1)
    if at is not None:
        message = f"line {_error_line(doc, at)}: {message}"
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert str(err.value) == message
    config = tmp_path / "keys.cfg"
    config.write_text(doc)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


def test_missing_rate_is_an_error():
    lines = [ln for ln in GOOD.splitlines() if not ln.startswith("k_h")]
    with pytest.raises(ConfigError, match="missing .rates. key 'k_h'"):
        load_config("\n".join(lines))[0]


def test_table_rate_roundtrip(tmp_path):
    table = tmp_path / "mu.tsv"
    table.write_text("0.0 0.5\n2.0 0.5\n4.0 1.5\n")
    doc = GOOD.replace("mu_h    = constant(0.022)", "mu_h    = table(mu.tsv)")
    params, _ = load_config(doc, base_dir=str(tmp_path))
    assert params.mu_h.kind is RateKind.TABLE
    assert params.mu_h(1.0) == pytest.approx(0.5)
    assert params.mu_h(3.0) == pytest.approx(1.0)
    assert not params.reduced_mode_eligible   # tabulated mu_h varies with age


@pytest.mark.parametrize("bad_line", ["2.0", "2.0 abc", "2.0 0.5 9"])
def test_malformed_table_line_names_file_and_line(tmp_path, capsys, bad_line):
    (tmp_path / "mu.tsv").write_text(f"# x value\n0.0 0.5\n{bad_line}\n4.0 1.5\n")
    doc = GOOD.replace("mu_h    = constant(0.022)", "mu_h    = table(mu.tsv)")
    with pytest.raises(ConfigError, match=r"mu\.tsv' line 3: expected two numbers") as err:
        load_config(doc, base_dir=str(tmp_path))
    assert err.value.line == doc.splitlines().index("mu_h    = table(mu.tsv)") + 1
    config = tmp_path / "table.cfg"
    config.write_text(doc)
    assert main(["validate", "--config", str(config)]) == 2
    assert "mu.tsv' line 3" in capsys.readouterr().err


def test_validate_presets_all_pass():
    # default desk-scale grids, including the long backward human-age axis
    for name in ("forward", "backward"):
        rep = validate(preset(name), preset_grid(name))
        assert rep.all_passed, str(rep)


def test_validate_flags_zero_kernel_and_zero_mortality():
    g = preset_grid("forward", 0.01)
    dead_kernel = make_params(beta_m=RateSpec.constant(0.0, Arity.AGE_TAU))
    rep = validate(dead_kernel, g)
    failed = {c.name for c in rep.failed()}
    assert "beta_m_not_identically_zero" in failed

    no_mortality = make_params(mu_h=RateSpec.constant(0.0, Arity.AGE))
    rep = validate(no_mortality, g)
    assert "mortality_floor" in {c.name for c in rep.failed()}


def test_validate_accepts_scalar_rates_on_a_pair():
    # piecewise on (a, tau) / (a, eta) reads only the second variable, so the
    # model stays reduced-mode eligible and the grid probe agrees
    params = make_params(gamma_h=RateSpec.piecewise(0.1, 0.0, 50.0, Arity.AGE_TAU),
                         k_h=RateSpec.piecewise(0.1, 0.0, 40.0, Arity.AGE_ETA))
    assert params.reduced_mode_eligible
    rep = validate(params, preset_grid("forward", 0.01))
    assert rep.all_passed, str(rep)


def test_an_age_reading_rate_flat_on_the_grid_passes_the_flag_check():
    # mu_h reads age but jumps only at 300, past a_max_h = 100: declared not
    # eligible, flat on the probe ages, which is safe (the general path runs)
    params = make_params(mu_h=RateSpec.piecewise(300.0, 0.022, 0.03, Arity.AGE))
    grid = ss.Grid(delta=0.01, a_max_h=100.0, a_max_m=1.5, tau_max_h=0.6, tau_max_m=1.5,
                   eta_max=1.0)
    check = {c.name: c for c in validate(params, grid).checks}["reduced_mode_flag_consistent"]
    assert check.passed and check.detail == "declared False, grid probe says True"


def test_an_eligible_flag_on_an_age_varying_rate_fails_the_flag_check():
    # forced eligible while mu_h varies on the probe ages: the reduced path
    # would drop the age axis a rate reads
    params = make_params(mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE))
    object.__setattr__(params, "reduced_mode_eligible", True)
    report = validate(params, preset_grid("forward", 0.01))
    assert [c.name for c in report.failed()] == ["reduced_mode_flag_consistent"]
    assert report.failed()[0].detail == "declared True, grid probe says False"


def test_validate_and_floor_memory_on_backward_preset():
    # age-free rates are scanned on the axes they read, never on the
    # 500 000-cell human age axis crossed with infection age
    params, grid = preset("backward"), preset_grid("backward")
    tracemalloc.start()
    try:
        validate(params, grid)
        params.epsilon_floor(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_epsilon_floor_builds_no_human_age_axis():
    # no human rate of the backward preset reads age, so the floor scans the
    # structure axes only and never builds the 500 000-cell human age axis
    params, grid = preset("backward"), preset_grid("backward")
    tracemalloc.start()
    try:
        params.epsilon_floor(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"epsilon_floor peaked at {peak / 1e6:.2f} MB"


def test_epsilon_floor_positive(forward):
    params, grid = forward
    eps = params.epsilon_floor(grid)
    assert eps == pytest.approx(8.4e5 / (0.022 + 0.1 + 50.0 + 40.0), rel=1e-12)
    # a short age axis caps the floor at its steady population
    short = ss.Grid(delta=0.01, a_max_h=0.02, a_max_m=0.01, tau_max_h=0.01,
                    tau_max_m=0.01, eta_max=0.01)
    sup = 0.022 + 0.1 + 0.0 + 0.0          # gamma_h and k_h are 0 below 0.1
    assert params.epsilon_floor(short) == pytest.approx(
        8.4e5 * (1 - np.exp(-sup * 0.02)) / sup, rel=1e-12)
