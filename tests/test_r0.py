import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim.bifurcation import build_reduced_kernels
from structsim.characteristics import dominant_growth_rate, g_of_lambda
from structsim import grids
from structsim.grids import characteristic_cumulative, cumulative_to_centers
from structsim.kernels import spectral_kernels
from structsim.r0 import (lambda0_closed_form, lambda_m_for_target_r0,
                          lambda_m_slope, power_iteration_r0, r0_closed_form,
                          r0_reduced)
from structsim.rates import Arity, RateSpec, eval_rate, rate_table

from conftest import fast_grid, fast_params, make_params

# Reference threshold values (squared convention) from adaptive quadrature of
# the closed-form integrals, converged to ~1e-12; midpoint desk-scale grids
# land within ~0.3% of these.
EXACT = {
    ("forward", 7e6): 1.296448,
    ("forward", 5e6): 0.926034,
    ("backward", 7.4e7): 1.248288,
    ("backward", 1e7): 0.168688,
    ("backward", 2.5e7): 0.421719,
}


def test_threshold_values_against_quadrature_reference(forward, backward):
    for (name, lam), expect in EXACT.items():
        params, grid = forward if name == "forward" else backward
        val = lambda0_closed_form(params.with_lambda_m(lam), grid)
        assert val == pytest.approx(expect, rel=7e-3), (name, lam)


def test_zero_transmission_gives_zero(forward):
    params, grid = forward
    dead = ss.ModelParams(**{**{f: getattr(params, f) for f in
                                ("lambda_h", "lambda_m", "theta", "mu_h", "mu_m",
                                 "nu_h", "nu_m", "gamma_h", "k_h", "beta_h")},
                             "beta_m": RateSpec.constant(0.0, Arity.AGE_TAU)})
    assert r0_closed_form(dead, grid).r0 == 0.0


def _age_dependent():
    # age-dependent human mortality breaks reduced-mode eligibility, so power
    # iteration runs on the grid profile pi_h with per-age contraction weights
    params = fast_params(mu_h=RateSpec.table([0.0, 1.0, 6.0], [0.6, 0.9, 1.4],
                                             Arity.AGE))
    assert not params.reduced_mode_eligible
    return params, fast_grid(0.05)


def _routes(params, grid):
    """Power iteration report and every other route's lambda0."""
    rep = power_iteration_r0(params, grid)
    others = [rep.r0_squared_power_iter, g_of_lambda(params, grid, 0.0)]
    if params.reduced_mode_eligible:
        others.append(r0_reduced(params, grid))
    return rep, others


def test_cross_method_agreement(forward, backward):
    for params, grid in (forward, backward, _age_dependent()):
        rep, others = _routes(params, grid)
        base = rep.r0_squared_closed_form
        for v in others:
            assert abs(v - base) <= 1e-8 * base
        assert rep.r0 == pytest.approx(np.sqrt(base), rel=1e-12)
        assert rep.residual < 1e-10


# the benchmark's age-dependent config: forward rates, mu_h steps at a_star
_AGE_GRID = ss.Grid(delta=0.005, a_max_h=250.0, a_max_m=1.5, tau_max_h=0.6,
                    tau_max_m=1.5, eta_max=1.0)
_AGE_CASE = (dataclasses.replace(ss.preset("forward", 8e6),
                                   mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE)),
               _AGE_GRID)


@given(case=st.one_of(
    st.tuples(st.sampled_from(["forward", "backward"]), st.floats(1e6, 1e8)),
    st.tuples(st.just("age"), st.floats(20.0, 60.0))))
@settings(max_examples=30, deadline=None)
def test_power_iteration_rank_one_converges_immediately(case):
    # the block has rank one: with a constant contraction weight the first
    # quotient is already exact (2 iterations), with per-age weights the
    # second is (3 iterations); the count must not depend on rounding
    name, value = case
    if name == "age":
        params = dataclasses.replace(ss.preset("forward", 8e6),
                                     mu_h=RateSpec.piecewise(value, 0.02, 0.024, Arity.AGE))
        grid, expected = _AGE_GRID, 3
    else:
        params, grid, expected = ss.preset(name, value), ss.preset_grid(name), 2
    rep, others = _routes(params, grid)
    assert rep.iterations == expected
    base = rep.r0_squared_closed_form
    for v in others:
        assert abs(v - base) <= 1e-8 * base


def _survival(params, grid):
    """The human survival profile on the grid's age cells as one vector: with
    constant mu_h the open-class profile exp(-mu_h a) on cell centers, whose
    last cell holds the geometric tail past the grid, otherwise the midpoint
    rule of mu_h's cumulative."""
    if params.reduced_mode_eligible:
        mu = params.mu_h_value()
        pi_h = np.exp(-mu * grid.ages_h)
        pi_h[-1] /= -np.expm1(-mu * grid.delta)
        return pi_h
    return np.exp(-cumulative_to_centers(rate_table(params.mu_h, grid.ages_h), grid.delta))


def _row_sums(params, grid):
    """The row sums of the explicit human kernel; with age-free human rates
    every row is the same, so one row is built and repeated."""
    if params.reduced_mode_eligible:
        return np.full(grid.n_ah, np.sum(_explicit_human_kernel(params, grid, grid.ages_h[:1])))
    return np.sum(_explicit_human_kernel(params, grid), axis=1)


def test_power_iteration_survival_start_is_eigenvector(forward):
    # the human block maps the survival profile to lambda0 times itself, on
    # the open-class profile (constant mu_h) and on the grid pi_h
    for params, grid in (forward, _age_dependent()):
        sk = spectral_kernels(params, grid)
        pi_h = _survival(params, grid)
        lam0 = lambda0_closed_form(params, grid)
        coef = params.lambda_m * params.theta ** 2 / (params.lambda_h * sk.int_pi_h ** 2) \
            * sk.mosquito_factor(0.0)
        weights = _row_sums(params, grid) * sk.delta
        image = pi_h * (coef * float(np.sum(weights * pi_h)) * sk.delta)
        resid = np.sum(np.abs(image - lam0 * pi_h)) / np.sum(np.abs(pi_h))
        assert resid < 1e-10


def _vector_power_iteration(params, grid):
    """Power iteration on age vectors (the loop before the two-coefficient
    form): the reference whose count, quotient and residual that form must
    reproduce.  Returns (lambda, iterations, residual)."""
    tol, max_iter = 1e-12, 64
    sk = spectral_kernels(params, grid)
    pi_h = _survival(params, grid)
    w = _row_sums(params, grid) * grid.delta ** 2
    coef = params.lambda_m * params.theta ** 2 / (params.lambda_h * sk.int_pi_h ** 2) \
        * sk.mosquito_factor(0.0)

    def apply_h(b):
        return pi_h * (coef * float(np.sum(w * b)))

    b = np.ones(len(pi_h))
    lam_prev = 0.0
    for it in range(1, max_iter + 1):
        hb = apply_h(b)
        lam = float(np.sum(hb * b) / np.sum(b * b))
        nrm = float(np.sqrt(np.sum(hb * hb)))
        if nrm == 0.0:
            lam = 0.0
            break
        b = hb / nrm
        if it > 1 and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            break
        lam_prev = lam
    else:
        raise RuntimeError(f"power iteration did not converge in {max_iter} steps")
    hb = apply_h(b)
    residual = float(np.sum(np.abs(hb - lam * b)) / max(np.sum(np.abs(b)), 1e-300))
    return lam, it, residual


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_coefficient_power_iteration_is_the_vector_iteration(data):
    # random small grids, human rates age-free (eligible: the sums are closed
    # forms) or reading age (general: the contractions are built in blocks
    # of age rows, the last one ragged)
    delta = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
    n_ah = data.draw(st.integers(1, 60))
    n_th = data.draw(st.integers(1, n_ah))
    n_am = data.draw(st.integers(1, 30))
    n_tm = data.draw(st.integers(1, n_am))
    grid = ss.Grid(delta=delta, a_max_h=n_ah * delta, a_max_m=n_am * delta,
                   tau_max_h=n_th * delta, tau_max_m=n_tm * delta, eta_max=delta)
    mu = data.draw(st.floats(0.05, 2.0))
    over = {"lambda_m": data.draw(st.floats(1.0, 1e4))}
    if data.draw(st.booleans()):
        over["mu_h"] = RateSpec.constant(mu, Arity.AGE)
    else:
        over["mu_h"] = RateSpec.piecewise(data.draw(st.floats(0.0, n_ah * delta)), mu,
                                          data.draw(st.floats(0.05, 2.0)), Arity.AGE)
        if data.draw(st.booleans()):
            over["beta_h"] = RateSpec.gauss_exp(0.3, 0.4, 0.5, 0.8)
    params = fast_params(**over)
    block = data.draw(st.integers(1, n_ah + 1)) * 8
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        rep = power_iteration_r0(params, grid)
        lam, iterations, _ = _vector_power_iteration(params, grid)
    assert isinstance(rep.iterations, int)
    assert rep.iterations == iterations
    assert abs(rep.r0_squared_power_iter - lam) <= 1e-13 * abs(lam)
    assert rep.residual <= 1e-12


@pytest.mark.parametrize("routine", ["power_iteration_r0", "validate", "build_reduced_kernels",
                                     "dominant_growth_rate"])
def test_age_free_routines_hold_no_human_age_vector(routine):
    # the backward preset's human age axis has 500 000 cells, 4 MB a vector;
    # with cold caches each age-free route peaks below 6 MiB, most of it the
    # mosquito kernel build
    params, grid = ss.preset("backward", 7.4e7), ss.preset_grid("backward")
    run = {"power_iteration_r0": power_iteration_r0, "validate": ss.validate,
           "build_reduced_kernels": build_reduced_kernels,
           "dominant_growth_rate": dominant_growth_rate}[routine]
    spectral_kernels.cache_clear()
    build_reduced_kernels.cache_clear()
    tracemalloc.start()
    try:
        run(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20, f"{routine} peaked at {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("routine, bound_mib", [("validate", 1.5), ("power_iteration_r0", 3.5)])
def test_backward_queries_peak_below_their_bounds(routine, bound_mib):
    # with cold caches on the backward preset: validate scans the rates in
    # row blocks, and power_iteration_r0's peak is the mosquito kernel build
    # (300 x 300 cells, 0.7 MB a table)
    params, grid = ss.preset("backward", 7.4e7), ss.preset_grid("backward")
    run = {"validate": ss.validate, "power_iteration_r0": power_iteration_r0}[routine]
    spectral_kernels.cache_clear()
    tracemalloc.start()
    try:
        run(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20, f"{routine} peaked at {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("routine", ["power_iteration_r0", "build_reduced_kernels",
                                     "dominant_growth_rate"])
def test_eligible_routines_sample_beta_m_in_row_blocks(routine):
    # on the backward preset the mosquito kernel (300 x 300 cells, 0.69 MiB)
    # is the largest table of these routines.  Its removal cumulative needs
    # one more table while it is formed (1.39 MiB); beta_m (gauss_exp) is
    # sampled a block of offsets at a time, so it adds a few block-sized
    # temporaries, not the 2.2 MiB of whole-table ones
    params, grid = ss.preset("backward", 7.4e7), ss.preset_grid("backward")
    run = {"power_iteration_r0": power_iteration_r0,
           "build_reduced_kernels": build_reduced_kernels,
           "dominant_growth_rate": dominant_growth_rate}[routine]
    spectral_kernels.cache_clear()
    build_reduced_kernels.cache_clear()
    tracemalloc.start()
    try:
        run(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * 2 ** 20, f"{routine} peaked at {peak / 2 ** 20:.2f} MiB"
    spectral_kernels.cache_clear()
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", 8 * 300 * 7 + 5):   # ragged blocks
        sk = spectral_kernels(params, grid)
    spectral_kernels.cache_clear()
    assert np.array_equal(sk.mosq_kernel, _where_mosquito_kernel(params, grid))


_BLOCK_SIZES = (1 << 20, 1 << 18, 8 * 120 * 37 + 5)   # the last ragged on every axis


def _under_row_blocks(block, tmp_path):
    """What the blocked routines give with ``grids.ROW_BLOCK_BYTES`` at
    ``block``, from cold caches: the eligible and the general power
    iteration, the general path's contractions, the validation reports and
    the bytes and digest of a full-mode run's streamed snapshot."""
    backward = ss.preset("backward", 7.4e7), ss.preset_grid("backward")
    params, grid = fast_params(), fast_grid(0.005)
    init = ss.default_initial(params, grid, 0.01, mode="full", infected_fraction_m=0.01)
    path = str(tmp_path / f"{block}.bin")
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        spectral_kernels.cache_clear()
        out = {"r0": [power_iteration_r0(*case) for case in (backward, _AGE_CASE)],
               "kernels": spectral_kernels(*_AGE_CASE),
               "validate": [str(ss.validate(*case)) for case in (backward, _AGE_CASE)],
               "digest": ss.simulate(params, grid, init, t_end=3 * grid.delta,
                                     snapshot=path)[1]}
    spectral_kernels.cache_clear()
    with open(path, "rb") as fh:
        out["bytes"] = fh.read()
    return out


def test_row_block_size_moves_rounding_only(tmp_path):
    # the block size changes the order of the blocked sums, nothing else: the
    # snapshot bytes are exact, the contractions and the eigenvalue move by
    # rounding
    want = _under_row_blocks(_BLOCK_SIZES[0], tmp_path)
    for block in _BLOCK_SIZES[1:]:
        got = _under_row_blocks(block, tmp_path)
        for a, b in zip(got["r0"], want["r0"]):
            assert a.iterations == b.iterations
            for field in ("r0_squared_power_iter", "r0_squared_closed_form"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-13, abs=0.0)
        for field in ("rows_total", "rows_pi_h"):
            assert getattr(got["kernels"], field) == pytest.approx(
                getattr(want["kernels"], field), rel=1e-13, abs=0.0)
        np.testing.assert_allclose(got["kernels"].human_tau, want["kernels"].human_tau,
                                   rtol=1e-13, atol=0.0)
        assert got["validate"] == want["validate"]
        assert got["bytes"] == want["bytes"] and got["digest"] == want["digest"]
        assert got["digest"] == hashlib.sha256(got["bytes"]).hexdigest()


def test_eligible_kernels_keep_no_human_age_vector():
    # the backward preset and, on the general path, the benchmark's age config
    for params, grid in ((ss.preset("backward", 7.4e7), ss.preset_grid("backward")),
                         _AGE_CASE):
        sk = spectral_kernels(params, grid)
        arrays = [v for v in vars(sk).values() if isinstance(v, np.ndarray)]
        assert arrays and all(grid.n_ah not in v.shape for v in arrays)
        assert len(sk.ages_h) == grid.n_ah


@given(mu=st.floats(0.01, 2.0), delta=st.floats(0.002, 0.05), n_ah=st.integers(1, 5000))
@settings(max_examples=40, deadline=None)
def test_closed_form_survival_integral_matches_lattice_sum(mu, delta, n_ah):
    # the geometric series of sum pi_h and sum pi_h^2 against the sums of the
    # grid profile power iteration runs on, whose last cell is an open age
    # class holding the tail past the grid
    params = fast_params(mu_h=RateSpec.constant(mu, Arity.AGE))
    grid = ss.Grid(delta=delta, a_max_h=n_ah * delta, a_max_m=delta, tau_max_h=delta,
                   tau_max_m=delta, eta_max=delta)
    profile = _survival(params, grid)
    assert len(profile) == n_ah
    sk = spectral_kernels(params, grid)
    assert sk.int_pi_h == pytest.approx(float(np.sum(profile)) * delta, rel=1e-12)
    assert sk.sum_pi_h2 == pytest.approx(float(np.sum(profile * profile)), rel=1e-12)


def test_survival_integral_needs_positive_mortality():
    params = fast_params(mu_h=RateSpec.constant(0.0, Arity.AGE))
    with pytest.raises(ValueError, match="mu_h > 0"):
        r0_closed_form(params, fast_grid(0.05))


def test_linearity_in_lambda_m(forward):
    params, grid = forward
    base = lambda0_closed_form(params, grid)
    assert lambda0_closed_form(params.with_lambda_m(1.4e7), grid) \
        == pytest.approx(2.0 * base, rel=1e-12)
    # the ratio checks are exact by linearity
    r1 = lambda0_closed_form(params.with_lambda_m(7e6), grid)
    r2 = lambda0_closed_form(params.with_lambda_m(5e6), grid)
    assert r1 / r2 == pytest.approx(1.4, abs=1e-12)


def test_lambda_m_for_target(forward):
    params, grid = forward
    assert lambda_m_for_target_r0(params, grid, 0.0) == 0.0
    lam = lambda_m_for_target_r0(params, grid, 1.16)
    assert lambda0_closed_form(params.with_lambda_m(lam), grid) \
        == pytest.approx(1.16, rel=1e-12)
    # the tuned threshold is consistent with the characteristic function
    assert g_of_lambda(params.with_lambda_m(lam), grid, 0.0) \
        == pytest.approx(1.16, rel=1e-12)
    # reproduces the nominal recruitment within a few percent
    assert lam == pytest.approx(7e6, rel=0.15)
    with pytest.raises(ValueError):
        lambda_m_for_target_r0(params, grid, -1.0)


def test_monotone_in_biting_rate(forward):
    params, grid = forward
    vals = []
    for theta in (2e4, 3e4, 4e4):
        p = ss.ModelParams(**{**{f: getattr(params, f) for f in
                                 ("lambda_h", "lambda_m", "mu_h", "mu_m", "nu_h",
                                  "nu_m", "gamma_h", "k_h", "beta_h", "beta_m")},
                              "theta": theta})
        vals.append(lambda0_closed_form(p, grid))
    assert vals[0] < vals[1] < vals[2]


def test_grid_convergence_better_than_half_percent():
    for name in ("forward", "backward"):
        coarse = lambda0_closed_form(ss.preset(name, 2e7), ss.preset_grid(name, 0.005))
        fine = lambda0_closed_form(ss.preset(name, 2e7), ss.preset_grid(name, 0.0025))
        assert abs(fine - coarse) / coarse < 0.005


def test_kernel_masses_reported(forward):
    params, grid = forward
    rep = r0_closed_form(params, grid)
    assert rep.kernel_mass_mh > 0 and rep.kernel_mass_hm > 0
    sk = spectral_kernels(params, grid)
    recombined = (params.lambda_m * sk.int_pi_m / (params.lambda_h * sk.int_pi_h)
                  * params.theta ** 2 * rep.kernel_mass_mh * rep.kernel_mass_hm)
    assert recombined == pytest.approx(rep.r0_squared_closed_form, rel=1e-12)


def test_general_path_builds_no_age_table_for_age_free_transmission():
    # the general path multiplies its kernels by beta_h and beta_m; a rate
    # that reads no age is evaluated on infection age alone, without the
    # (offset + infection age) table (48 MB on the benchmark's age config)
    params = make_params(mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE),
                         beta_m=RateSpec.gauss(0.05, 0.2, 0.2, Arity.TAU_ONLY))
    grid = ss.Grid(delta=0.01, a_max_h=200.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    table = grid.n_ah * grid.n_th * 8
    live, ages = [], []

    def traced(spec, a, second=0.0):
        if spec is params.beta_h:
            live.append(tracemalloc.get_traced_memory()[0])
            ages.append(a)
        return eval_rate(spec, a, second)

    spectral_kernels.cache_clear()
    tracemalloc.start()
    try:
        with mock.patch.object(grids, "eval_rate", traced):
            sk = spectral_kernels(params, grid)
    finally:
        tracemalloc.stop()
    # held while beta_h is sampled, once per block of age rows: less than
    # the removal kernel, never a second table
    assert len(live) == len(grids.row_blocks(grid.n_ah, grid.n_th))
    assert max(live) < 1.5 * table, f"{max(live) / table:.2f} tables"
    assert all(isinstance(a, float) for a in ages)
    # the contractions of the explicit age table
    expect = _explicit_human_kernel(params, grid)
    pi_h, rows = _survival(params, grid), np.sum(expect, axis=1)
    assert sk.rows_total == pytest.approx(float(np.sum(rows)), rel=1e-13, abs=0.0)
    assert sk.rows_pi_h == pytest.approx(float(pi_h @ rows), rel=1e-13, abs=0.0)
    np.testing.assert_allclose(sk.human_tau, pi_h @ expect, rtol=1e-13, atol=0.0)
    assert np.array_equal(sk.mosq_kernel, _where_mosquito_kernel(params, grid))


def _where_mosquito_kernel(params, grid):
    """The mosquito kernel beta_m exp(-removal) pi_m on (xi, tau) as whole
    temporaries, with the cells past the age span (xi + tau beyond a_max_m)
    zeroed by ``np.where`` over an index table: the reference the kernel
    formed in place must equal bit for bit."""
    d, xis, taus = grid.delta, grid.ages_m, grid.taus_m
    pi_m = np.exp(-cumulative_to_centers(rate_table(params.mu_m, xis), d))
    mosq = (eval_rate(params.beta_m, xis[:, None] + taus[None, :], taus[None, :])
            * np.exp(-characteristic_cumulative(params.removal_rate("i_m"), xis, taus, d))
            * pi_m[:, None])
    live_cells = np.add.outer(np.arange(grid.n_am), np.arange(grid.n_tm)) + 1 <= grid.n_am
    return np.where(live_cells, mosq, 0.0)


@given(n_am=st.integers(1, 30), data=st.data())
@settings(max_examples=40, deadline=None)
def test_mosquito_kernel_is_the_where_rule(n_am, data):
    # the presets, the benchmark's age config and random small mosquito axes
    # with every infection-age extent up to the age extent
    n_tm = data.draw(st.integers(1, n_am))
    delta = data.draw(st.sampled_from([0.05, 0.1]))
    grid = ss.Grid(delta=delta, a_max_h=delta, a_max_m=n_am * delta, tau_max_h=delta,
                   tau_max_m=n_tm * delta, eta_max=delta)
    beta_m = data.draw(st.sampled_from([RateSpec.gauss_exp(0.3, 0.4, 0.5, 0.8),
                                        RateSpec.gauss(0.2, 0.6, 0.3, Arity.TAU_ONLY)]))
    params = fast_params(beta_m=beta_m)
    sk = spectral_kernels.__wrapped__(params, grid)
    assert np.array_equal(sk.mosq_kernel, _where_mosquito_kernel(params, grid))


@pytest.mark.parametrize("name", ["forward", "backward", "age"])
def test_preset_mosquito_kernels_are_the_where_rule(name):
    params, grid = _AGE_CASE if name == "age" else (ss.preset(name), ss.preset_grid(name))
    sk = spectral_kernels(params, grid)
    assert np.array_equal(sk.mosq_kernel, _where_mosquito_kernel(params, grid))


def _explicit_human_kernel(params, grid, ages=None):
    """The human kernel K[xi, tau] (pi_h left out) as one table, on the rows
    ``ages`` (the whole human age axis by default): the reference the
    general path's blocked contractions must reproduce."""
    ages = grid.ages_h if ages is None else ages
    cum = characteristic_cumulative(params.removal_rate("i_h"), ages, grid.taus_h, grid.delta)
    return np.exp(-cum) * eval_rate(params.beta_h, ages[:, None] + grid.taus_h[None, :],
                                    grid.taus_h[None, :])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_blocked_human_contractions_match_the_explicit_table(data):
    # random small age-dependent grids, blocks of one row up to the whole
    # axis with a ragged last block: the row totals, plain and weighted by
    # pi_h, and human_factor for lambdas of both signs agree to rounding
    delta = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
    n_ah = data.draw(st.integers(1, 40))
    n_th = data.draw(st.integers(1, n_ah))
    grid = ss.Grid(delta=delta, a_max_h=n_ah * delta, a_max_m=delta, tau_max_h=n_th * delta,
                   tau_max_m=delta, eta_max=delta)
    a_star = data.draw(st.floats(0.0, n_ah * delta))
    beta_h = data.draw(st.sampled_from([
        RateSpec.gauss(0.2, 0.6, 0.3, Arity.TAU_ONLY),
        RateSpec.gauss_exp(0.3, 0.4, 0.5, 0.8),
        RateSpec.table([0.0, 1.0, 4.0], [0.1, 0.5, 0.2], Arity.AGE)]))
    params = fast_params(mu_h=RateSpec.piecewise(a_star, data.draw(st.floats(0.1, 2.0)),
                                                 data.draw(st.floats(0.1, 2.0)), Arity.AGE),
                         beta_h=beta_h)
    assert not params.reduced_mode_eligible
    rows = data.draw(st.one_of(st.just(1), st.integers(1, n_ah + 1)))
    block = rows * 8 * n_th + data.draw(st.integers(0, 8 * n_th - 1))
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        assert len(grids.row_blocks(n_ah, n_th)) == -(-n_ah // rows)
        sk = spectral_kernels.__wrapped__(params, grid)
    table = _explicit_human_kernel(params, grid)
    pi_h, rows = _survival(params, grid), np.sum(table, axis=1)
    assert sk.rows_total == pytest.approx(float(np.sum(rows)), rel=1e-13, abs=0.0)
    assert sk.rows_pi_h == pytest.approx(float(pi_h @ rows), rel=1e-13, abs=0.0)
    for lam in (-1.5, -0.2, 0.0, 0.7, 6.0):
        expect = float(pi_h @ (table @ np.exp(-lam * grid.taus_h))) * delta ** 2
        assert sk.human_factor(lam) == pytest.approx(expect, rel=1e-13, abs=0.0), lam


def test_general_path_holds_only_the_contractions():
    # on the benchmark's age config (50 000 x 120 cells, 48 MB a table) the
    # build holds one block of age rows at a time, and the entry it keeps
    # holds no (age, infection age) table
    params = dataclasses.replace(ss.preset("forward", 8e6),
                                 mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE))
    table = _AGE_GRID.n_ah * _AGE_GRID.n_th * 8
    tracemalloc.start()
    try:
        sk = spectral_kernels.__wrapped__(params, _AGE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table / 4, f"general-path build peaked at {peak / table:.2f} tables"
    arrays = [v for v in vars(sk).values() if isinstance(v, np.ndarray)]
    assert all(v.size < _AGE_GRID.n_ah * _AGE_GRID.n_th for v in arrays)
    assert sum(v.nbytes for v in arrays) < 2e6
