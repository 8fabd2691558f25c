from unittest import mock

import numpy as np
import pytest

import structsim as ss
from structsim import characteristics
from structsim.characteristics import dominant_growth_rate, g_of_lambda, volterra_decoupled
from structsim.params import estimate_mu0
from structsim.r0 import lambda0_closed_form, lambda_m_for_target_r0
from structsim.rates import Arity, RateSpec

from conftest import fast_grid, fast_params, random_full_state


def no_transmission():
    return fast_params(beta_h=RateSpec.constant(0.0, Arity.AGE_TAU),
                       beta_m=RateSpec.constant(0.0, Arity.AGE_TAU))


def rel_l1(a, b):
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    return float(np.sum(np.abs(a - b)) / max(np.sum(np.abs(b)), 1e-300))


def test_decoupled_solver_matches_closed_forms():
    params = no_transmission()
    grid = fast_grid(0.02)
    for seed in (0, 1, 2):
        init = random_full_state(params, grid, seed=seed)
        rows, fin = ss.simulate(params, grid, init, t_end=0.5, return_final=True)
        oracle = volterra_decoupled(params, grid, init, 0.5)
        for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
            assert rel_l1(getattr(fin, name), getattr(oracle, name)) <= 1e-10, name


def test_decoupled_solver_matches_closed_forms_with_entry_cell_removal():
    # recovery and immunity loss already act in the first structure-age cell
    params = fast_params(beta_h=RateSpec.constant(0.0, Arity.AGE_TAU),
                         beta_m=RateSpec.constant(0.0, Arity.AGE_TAU),
                         gamma_h=RateSpec.constant(1.5, Arity.TAU_ONLY),
                         k_h=RateSpec.constant(0.7, Arity.ETA_ONLY))
    grid = fast_grid(0.05)
    init = random_full_state(params, grid, seed=4)
    rows, fin = ss.simulate(params, grid, init, t_end=0.5, return_final=True)
    oracle = volterra_decoupled(params, grid, init, 0.5)
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        assert rel_l1(getattr(fin, name), getattr(oracle, name)) <= 1e-10, name


def test_decoupled_large_time_infection_gone():
    params = no_transmission()
    grid = fast_grid(0.05)
    init = random_full_state(params, grid, seed=5)
    t = grid.tau_max_h + grid.delta * 4   # past the infection-age span
    oracle = volterra_decoupled(params, grid, init, t)
    assert np.all(oracle.i_h == 0.0)
    # renewal branch: susceptible mosquitoes at ages below t are fresh births
    n = round(t / grid.delta)
    expect = params.lambda_m * np.exp(-1.2 * grid.ages_m[:n])
    assert np.allclose(oracle.s_m[:n], expect, rtol=1e-10)


def test_decoupled_sh_renewal_without_immunity_return():
    params = fast_params(beta_h=RateSpec.constant(0.0, Arity.AGE_TAU),
                         beta_m=RateSpec.constant(0.0, Arity.AGE_TAU),
                         k_h=RateSpec.constant(0.0, Arity.AGE_ETA))
    grid = fast_grid(0.05)
    init = random_full_state(params, grid, seed=6)
    t = 1.0
    oracle = volterra_decoupled(params, grid, init, t)
    n = round(t / grid.delta)
    expect = params.lambda_h * np.exp(-0.8 * grid.ages_h[:n])
    assert np.allclose(oracle.s_h[:n], expect, rtol=1e-10)


def test_decoupled_requires_zero_transmission():
    params = fast_params()
    grid = fast_grid(0.05)
    init = random_full_state(params, grid, seed=7)
    with pytest.raises(ValueError, match="beta"):
        volterra_decoupled(params, grid, init, 0.2)


def test_decoupled_requires_a_whole_number_of_steps():
    # the grid's whole-step rule: 0.15 / 0.05 is 2.9999999999999996, three
    # steps; a time between steps, before the start or none at all is refused
    params = no_transmission()
    grid = fast_grid(0.05)
    init = random_full_state(params, grid, seed=8)
    three = volterra_decoupled(params, grid, init, 3 * grid.delta)
    near = volterra_decoupled(params, grid, init, 0.15)
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        assert np.array_equal(getattr(near, name), getattr(three, name)), name
    for t in (0.17, 0.15 + 1e-6, -0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t must be a multiple of the grid step"):
            volterra_decoupled(params, grid, init, t)


# ---------------------------------------------------------------------------
# characteristic function


def test_g_at_zero_equals_threshold(forward, backward):
    for params, grid in (forward, backward):
        assert g_of_lambda(params, grid, 0.0) == pytest.approx(
            lambda0_closed_form(params, grid), rel=1e-12)


def test_g_monotone_decreasing_positive(forward):
    params, grid = forward
    lams = np.linspace(-0.01, 3.0, 50)
    vals = [g_of_lambda(params, grid, lam) for lam in lams]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert g_of_lambda(params, grid, 200.0) < 1e-2   # dominated decay


def test_g_requires_lambda_above_minus_mu0(forward):
    params, grid = forward
    with pytest.raises(ValueError, match="mu_0"):
        g_of_lambda(params, grid, -0.03)


def test_growth_rate_positive_above_threshold(forward):
    params, grid = forward                     # threshold value 1.29 > 1
    res = dominant_growth_rate(params, grid)
    assert res.lambda_star is not None and res.lambda_star > 0
    assert g_of_lambda(params, grid, res.lambda_star) == pytest.approx(1.0, abs=1e-8)


def test_growth_rate_estimates_the_floor_once(forward):
    # the floor mu_0 scans the age axes; the root search reads it once, not
    # once per evaluation, and evaluates g as g_of_lambda does
    params, grid = forward
    calls = []

    def counted(p, g):
        calls.append(1)
        return estimate_mu0(p, g)

    with mock.patch.object(characteristics, "estimate_mu0", counted):
        res = dominant_growth_rate(params, grid)
    assert len(calls) == 1 and res.evaluations > 30
    assert res.g0 == g_of_lambda(params, grid, 0.0)


def test_growth_rate_zero_at_tuned_threshold(forward):
    params, grid = forward
    lam_m = lambda_m_for_target_r0(params, grid, 1.0)
    tuned = params.with_lambda_m(lam_m)
    res = dominant_growth_rate(tuned, grid)
    assert res.lambda_star == pytest.approx(0.0, abs=1e-8)


def test_growth_rate_below_threshold(forward):
    params, grid = forward
    small = params.with_lambda_m(5e6)          # threshold value ~0.92
    res = dominant_growth_rate(small, grid)
    assert res.g0 < 1.0
    if res.lambda_star is not None:            # root only if bracketable above -mu_0
        assert -0.022 < res.lambda_star < 0.0
