import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim import solver
from structsim.rates import Arity, RateSpec
from structsim.solver import (DegeneratePopulationError, _kernel, load_snapshot, n_human,
                              n_mosquito, observe, save_snapshot)

from conftest import fast_grid, fast_params, make_params, random_full_state


# ---------------------------------------------------------------------------
# forces of infection


def test_force_zero_without_infectious(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.0, mode="reduced")
    assert np.all(ss.force_mh(st, params, grid) == 0.0)
    assert np.all(ss.force_hm(st, params, grid) == 0.0)


def test_force_zero_without_susceptibles():
    params = fast_params()
    grid = fast_grid()
    st = random_full_state(params, grid, seed=3)
    st.s_h = np.zeros_like(st.s_h)
    assert np.all(ss.force_mh(st, params, grid) == 0.0)
    st2 = random_full_state(params, grid, seed=4)
    st2.s_m = np.zeros_like(st2.s_m)
    assert np.all(ss.force_hm(st2, params, grid) == 0.0)


def test_force_single_cell_hand_value():
    # one infected-mosquito cell of mass M at (s0, tau0): the infection
    # pressure on humans is S_h(a) * theta * beta_m(s0 + delta/2, tau0) * M / N_h
    params = fast_params()
    grid = fast_grid()
    st = ss.default_initial(params, grid, 0.0, mode="full")
    i_idx, j_idx = 30, 10
    density = 7.0
    st.i_m[i_idx, j_idx] = density
    mass = density * grid.delta ** 2
    nh = n_human(st, grid)
    beta = params.beta_m(grid.ages_m[i_idx] + 0.5 * grid.delta, grid.taus_m[j_idx])
    expect = st.s_h * params.theta * beta * mass / nh
    got = ss.force_mh(st, params, grid)
    assert np.allclose(got, expect, rtol=1e-12)


def test_degenerate_population_error():
    params = fast_params()
    grid = fast_grid()
    st = ss.default_initial(params, grid, 0.0, mode="full")
    st.s_h = st.s_h * 1e-9     # far below the guaranteed floor
    with pytest.raises(DegeneratePopulationError):
        ss.force_mh(st, params, grid)


# ---------------------------------------------------------------------------
# initial data


def test_default_initial_dfe_and_mass_reallocation(forward):
    params, grid = forward
    dfe = ss.default_initial(params, grid, 0.0, mode="reduced")
    assert np.all(dfe.i_h == 0.0) and np.all(dfe.i_m == 0.0)
    n0 = n_human(dfe, grid)
    seeded = ss.default_initial(params, grid, 0.01, mode="reduced")
    assert n_human(seeded, grid) == pytest.approx(n0, rel=1e-12)
    assert float(np.sum(seeded.i_h)) * grid.delta == pytest.approx(0.01 * n0, rel=1e-12)
    assert seeded.s_h >= 0 and np.all(seeded.i_h >= 0)

    full_dfe = ss.default_initial(params, grid, 0.0, mode="full")
    full = ss.default_initial(params, grid, 0.01, mode="full")
    assert n_human(full, grid) == pytest.approx(n_human(full_dfe, grid), rel=1e-10)

    with pytest.raises(ValueError):
        ss.default_initial(params, grid, 1.0)


def test_default_initial_mosquito_seed(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.01, mode="reduced", infected_fraction_m=0.3)
    nm0 = n_mosquito(ss.default_initial(params, grid, 0.0, mode="reduced"), grid)
    assert n_mosquito(st, grid) == pytest.approx(nm0, rel=1e-12)
    assert float(np.sum(st.i_m)) * grid.delta ** 2 == pytest.approx(0.3 * nm0, rel=1e-12)


# ---------------------------------------------------------------------------
# stepping invariants


def test_dfe_is_a_fixed_point_reduced(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.0, mode="reduced")
    rows, fin = ss.simulate(params, grid, st, t_end=5.0, output_every=200,
                            return_final=True)
    assert fin.s_h == st.s_h                     # bit-frozen
    assert np.array_equal(fin.s_m, st.s_m)
    assert np.all(fin.i_h == 0.0) and np.all(fin.i_m == 0.0)


def test_dfe_is_a_fixed_point_full():
    params = fast_params()
    grid = fast_grid()
    st = ss.default_initial(params, grid, 0.0, mode="full")
    rows, fin = ss.simulate(params, grid, st, t_end=2.0, return_final=True)
    assert np.max(np.abs(fin.s_h - st.s_h) / st.s_h) < 1e-12
    assert np.all(fin.i_h == 0.0)


def test_positivity_and_step_equals_simulate(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    one = ss.step(st, params, grid)
    rows, fin = ss.simulate(params, grid, st, t_end=grid.delta, return_final=True)
    assert one.s_h == fin.s_h
    assert np.array_equal(one.i_m, fin.i_m)
    assert one.s_h >= 0 and np.all(one.i_h >= 0) and np.all(one.i_m >= 0)


def test_t_end_zero_returns_initial_row(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.02, mode="reduced")
    rows = ss.simulate(params, grid, st, t_end=0.0)
    assert len(rows) == 1
    assert rows[0].t == 0.0
    assert rows[0].n_h == pytest.approx(n_human(st, grid))


def test_gronwall_sandwich(forward):
    # discrete population totals must respect the continuous two-sided bounds
    # up to a tolerance of a few boundary cells of mass
    params, grid = forward
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    rows = ss.simulate(params, grid, st, t_end=5.0, output_every=50)
    n_h0, n_m0 = rows[0].n_h, rows[0].n_m
    mu0 = 0.022
    sup_h = 0.022 + 0.1                      # ||mu_h|| + ||nu_h||
    sup_m = 20.0 + 25.0
    tol_h = 3 * grid.delta * params.lambda_h
    tol_m = 3 * grid.delta * params.lambda_m
    for r in rows:
        up_h = n_h0 * math.exp(-mu0 * r.t) + params.lambda_h / mu0 * (1 - math.exp(-mu0 * r.t))
        lo_h = n_h0 * math.exp(-sup_h * r.t) + params.lambda_h / sup_h * (1 - math.exp(-sup_h * r.t))
        assert r.n_h <= up_h + tol_h
        assert r.n_h >= lo_h - tol_h
        up_m = n_m0 * math.exp(-mu0 * r.t) + params.lambda_m / mu0 * (1 - math.exp(-mu0 * r.t))
        lo_m = n_m0 * math.exp(-sup_m * r.t) + params.lambda_m / sup_m * (1 - math.exp(-sup_m * r.t))
        assert r.n_m <= up_m + tol_m
        assert r.n_m >= lo_m - tol_m


def test_population_balance_defect_is_first_order():
    # dN_h/dt should match recruitment minus weighted removals to O(delta):
    # halving the step must at least halve the worst per-step defect
    params = fast_params()
    defects = []
    for delta in (0.05, 0.025):
        # domain large enough that truncation outflow is far below the
        # first-order time-stepping defect being measured
        grid = ss.Grid(delta=delta, a_max_h=16.0, a_max_m=5.0,
                       tau_max_h=8.0, tau_max_m=2.5, eta_max=8.0)
        st = ss.default_initial(params, grid, 0.1, mode="full")
        worst = 0.0
        state = st
        for _ in range(int(round(0.4 / delta))):
            nxt = ss.step(state, params, grid)
            d_dt = (n_human(nxt, grid) - n_human(state, grid)) / delta
            mu = np.asarray(params.mu_h(grid.ages_h, 0.0), dtype=float)
            mu = np.full(grid.n_ah, float(mu)) if mu.ndim == 0 else mu
            nu_g = params.nu_h(grid.ages_h[:, None],
                               np.broadcast_to(grid.taus_h[None, :],
                                               (grid.n_ah, grid.n_th)))
            removal = (np.sum(mu * state.s_h) * delta
                       + np.sum(mu[:, None] * state.r_h) * delta ** 2
                       + np.sum((mu[:, None] + nu_g) * state.i_h) * delta ** 2)
            rhs = params.lambda_h - removal
            worst = max(worst, abs(d_dt - rhs))
            state = nxt
        defects.append(worst / params.lambda_h)
    assert defects[1] <= defects[0] / 1.7


def test_late_time_susceptible_mosquito_floor(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    rows, fin = ss.simulate(params, grid, st, t_end=3.0, return_final=True)
    beta_sup = float(np.max(np.asarray(params.beta_h(0.0, grid.taus_h))))
    floor = params.lambda_m * np.exp(-(20.0 + params.theta * beta_sup) * grid.ages_m)
    tol = 3 * grid.delta * params.lambda_m
    assert np.all(fin.s_m >= floor - tol)


def test_reduced_full_consistency():
    # with age-independent human rates the reduced dynamics is the exact
    # age-marginal of the full dynamics; observables agree within quadrature
    params = make_params(mu_h=0.022, lambda_m=7e6)
    delta = 0.05
    grid = ss.Grid(delta=delta, a_max_h=round(5.0 / 0.022 / delta) * delta,
                   a_max_m=1.5, tau_max_h=0.6, tau_max_m=1.5, eta_max=1.0)
    red0 = ss.default_initial(params, grid, 0.01, mode="reduced")
    # start the reduced run from the truncated-profile mass so both begin equal
    full0 = ss.default_initial(params, grid, 0.01, mode="full")
    red0.s_h = float(np.sum(full0.s_h)) * delta
    red0.i_h = np.sum(full0.i_h, axis=0) * delta
    rows_r = ss.simulate(params, grid, red0, t_end=2.0, output_every=10)
    rows_f = ss.simulate(params, grid, full0, t_end=2.0, output_every=10)
    for rr, rf in zip(rows_r, rows_f):
        assert rf.total_i_h == pytest.approx(rr.total_i_h, rel=0.01)
        assert rf.n_h == pytest.approx(rr.n_h, rel=0.01)


def test_snapshot_roundtrip(tmp_path, forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.02, mode="reduced")
    rows, fin = ss.simulate(params, grid, st, t_end=0.5, return_final=True)
    path = str(tmp_path / "state.bin")
    save_snapshot(fin, grid, path)
    loaded, g2 = load_snapshot(path)
    assert g2 == grid
    assert loaded.t == pytest.approx(fin.t)
    assert loaded.s_h == fin.s_h
    assert np.array_equal(loaded.i_m, fin.i_m)
    # and it can continue stepping
    more = ss.simulate(params, grid, loaded, t_end=0.1)
    assert more[-1].t == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# one transport rule in both layouts


def _triangle(n_a, n_s):
    return np.arange(n_s)[None, :] <= np.arange(n_a)[:, None]


@st.composite
def _small_case(draw, tm_spans_age=None, min_n_ah=2):
    """Random small grid, age-free human rates and a random triangular state
    in the drawn layout; ``first`` nonzero gives removal in the entry cell.
    ``tm_spans_age`` True or False forces ``n_tm == n_am`` or ``n_tm < n_am``.
    A human age axis of at least ``min_n_ah`` cells keeps N_h above the floor
    over runs of many steps."""
    delta = draw(st.sampled_from([0.05, 0.1, 0.25]))
    n_ah, n_am = draw(st.integers(min_n_ah, min_n_ah + 8)), draw(st.integers(2, 10))
    if tm_spans_age is None:
        n_th, n_tm = draw(st.integers(1, n_ah)), draw(st.integers(1, n_am))
    else:
        n_th = draw(st.integers(1, n_ah))
        n_tm = n_am if tm_spans_age else draw(st.integers(1, n_am - 1))
    n_eta = draw(st.integers(1, 12))
    grid = ss.Grid(delta=delta, a_max_h=n_ah * delta, a_max_m=n_am * delta,
                   tau_max_h=n_th * delta, tau_max_m=n_tm * delta, eta_max=n_eta * delta)
    first, late = draw(st.sampled_from([0.0, 0.7])), draw(st.floats(0.0, 5.0))
    params = fast_params(
        gamma_h=RateSpec.piecewise(draw(st.floats(0.0, 1.0)), first, late, Arity.TAU_ONLY),
        k_h=RateSpec.piecewise(draw(st.floats(0.0, 1.0)), first, late / 2, Arity.ETA_ONLY))
    mode = draw(st.sampled_from(["full", "reduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_star = params.lambda_h / 0.8          # disease-free human total: above the floor
    if mode == "full":
        s_h = rng.uniform(0.5, 1.5, n_ah) * n_star / (n_ah * delta)
        i_h = rng.uniform(0.0, 1.0, (n_ah, n_th)) * _triangle(n_ah, n_th)
        r_h = rng.uniform(0.0, 1.0, (n_ah, n_eta)) * _triangle(n_ah, n_eta)
    else:
        s_h = rng.uniform(0.5, 1.5) * n_star
        i_h, r_h = rng.uniform(0.0, 1.0, n_th), rng.uniform(0.0, 1.0, n_eta)
    state = ss.StateFields(mode, 0.0, s_h, i_h, r_h, rng.uniform(0.5, 2.0, n_am),
                           rng.uniform(0.0, 1.0, (n_am, n_tm)) * _triangle(n_am, n_tm))
    return params, grid, state


@given(_small_case())
@settings(max_examples=60, deadline=None)
def test_step_rule_on_random_small_grids(case):
    params, grid, state = case
    one = ss.step(state, params, grid)
    _, fin = ss.simulate(params, grid, state, t_end=grid.delta, return_final=True)
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        got = np.asarray(getattr(one, name))
        assert np.array_equal(got, np.asarray(getattr(fin, name))), name
        assert np.all(got >= 0.0), name
        if got.ndim == 2:
            assert np.all(got[~_triangle(*got.shape)] == 0.0), name
    # without infected humans or mosquitoes nobody is infected during the step
    state.i_h, state.i_m = np.zeros_like(state.i_h), np.zeros_like(state.i_m)
    clean = ss.step(state, params, grid)
    assert np.all(clean.i_h == 0.0) and np.all(clean.i_m == 0.0)


# fast_params as is, and with recovery and immunity loss in the entry cell
RATE_SETS = [{}, {"gamma_h": RateSpec.constant(1.5, Arity.TAU_ONLY),
                  "k_h": RateSpec.constant(0.7, Arity.ETA_ONLY)}]


@pytest.mark.parametrize("over", RATE_SETS)
def test_outflow_weights_hand_value(over):
    # channel share of the trapezoid removal times the fraction removed
    params = fast_params(**over)
    grid = fast_grid(0.05)
    k = _kernel(params, grid, "reduced")
    d = grid.delta
    for key, part, other in (("ih", params.gamma_h(0.0, grid.taus_h), 0.8 + 0.3),
                             ("rh", params.k_h(0.0, grid.etas), 0.8)):
        pair = part[:-1] + part[1:]
        expect = pair / (2 * other + pair) * -np.expm1(-0.5 * d * (2 * other + pair))
        assert np.allclose(k[key + "_out"][1:], expect, rtol=1e-13, atol=0.0), key
        expect0 = part[0] / (other + part[0]) * -math.expm1(-0.5 * d * (other + part[0]))
        assert k[key + "_out0"] == pytest.approx(expect0, rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("over", RATE_SETS)
def test_full_tables_repeat_reduced_tables_when_rates_are_age_free(over):
    # with age-free human rates every age row of the full layout's tables is
    # the reduced layout's table (row 0 only has the padding of the shift)
    params = fast_params(**over)
    grid = fast_grid(0.05)
    full, red = _kernel(params, grid, "full"), _kernel(params, grid, "reduced")
    for key in ("ih_step", "rh_step", "ih_out", "rh_out", "beta_h"):
        assert full[key].shape[1:] == red[key].shape
        assert all(np.array_equal(row, red[key]) for row in full[key][1:]), key
    for key in ("ih_entry", "rh_entry", "ih_out0", "rh_out0"):
        assert np.all(full[key] == red[key]), key


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_entry_cell_recovery_hand_value(mode):
    # with no infected or recovered humans, the recovered entry column after a
    # step is the recovery share of what the newly infected lose on the way to
    # the first infection-age center, carried to the first recovery-age center
    params = fast_params(gamma_h=RateSpec.constant(1.5, Arity.TAU_ONLY),
                         k_h=RateSpec.constant(0.7, Arity.ETA_ONLY))
    grid = fast_grid(0.05)
    st0 = ss.default_initial(params, grid, 0.0, mode=mode, infected_fraction_m=0.3)
    d, r_ih, r_rh = grid.delta, 0.8 + 0.3 + 1.5, 0.8 + 0.7
    expect = (ss.force_mh(st0, params, grid) * (1.5 / r_ih) * (1.0 - math.exp(-0.5 * d * r_ih))
              * math.exp(-0.5 * d * r_rh))
    got = np.atleast_1d(ss.step(st0, params, grid).r_h[..., 0])
    assert np.all(expect > 0.0)
    assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# infected mosquitoes as a cohort ring


class _ShiftRing:
    """The cohort ring's interface over the i_m field moved by the shift rule
    (``_advance``), the reference the ring must reproduce."""

    def __init__(self, k, i_m):
        self.k, self.i_m, self.spare = k, i_m.copy(), np.zeros_like(i_m)

    def push(self, infected):
        moved = solver._advance(self.i_m, self.spare, self.k["im_step"], self.k["im_entry"],
                                infected)
        self.i_m, self.spare = moved, self.i_m

    def sum_beta(self):
        return float(np.vdot(self.k["beta_m"], self.i_m))

    def sum(self):
        return float(np.sum(self.i_m))

    def field(self):
        return self.i_m.copy()


@pytest.mark.parametrize("tm_spans_age", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cohort_ring_matches_the_shift(tm_spans_age, data):
    # the same run with i_m moved by the shift; only the rounding order of
    # the products along the diagonal may differ
    params, grid, state = data.draw(_small_case(tm_spans_age, min_n_ah=30))
    n_steps = data.draw(st.integers(1, 25))
    assert (grid.n_tm == grid.n_am) == tm_spans_age
    rows, fin = ss.simulate(params, grid, state, t_end=n_steps * grid.delta,
                            output_every=3, return_final=True)
    with mock.patch.object(solver, "_CohortRing", _ShiftRing):
        ref_rows, ref = ss.simulate(params, grid, state, t_end=n_steps * grid.delta,
                                    output_every=3, return_final=True)
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        np.testing.assert_allclose(getattr(fin, name), getattr(ref, name), rtol=1e-12,
                                   atol=0.0, err_msg=name)
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert row.t == ref_row.t
        for got, want in zip(vars(row).values(), vars(ref_row).values()):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cohort_ring_rejects_underflowed_survival():
    # mosquito removal of 1e4 per year: one step factor is exp(-1000) = 0, so
    # a cohort past infection age 0 cannot be divided back to its entry row
    params = fast_params(mu_m=RateSpec.constant(1e4, Arity.AGE))
    grid = fast_grid(0.1)
    state = ss.default_initial(params, grid, 0.01, mode="reduced")
    state.s_m = np.ones(grid.n_am)
    state.i_m[:, 0] = 1.0                  # entry column: C = 1, fine
    rows = ss.simulate(params, grid, state, t_end=0.3)
    assert rows[-1].total_i_m == 0.0
    state.i_m[4, 2] = 1.0
    with pytest.raises(ValueError, match="underflow"):
        ss.simulate(params, grid, state, t_end=0.3)


# ---------------------------------------------------------------------------
# guarded states and snapshots


def _bad_nan_i_m(st, grid):
    st.i_m[grid.n_am // 2, 3] = np.nan


def _bad_negative_i_h(st, grid):
    st.i_h[3] = -1e9


def _bad_inf_s_m(st, grid):
    st.s_m[0] = np.inf


def _bad_outside_triangle(st, grid):
    st.i_m[1, 4] = 1e-3                   # infection age above age


def _bad_shape(st, grid):
    st.r_h = np.zeros(grid.n_eta + 1)


@pytest.mark.parametrize("spoil", [_bad_nan_i_m, _bad_negative_i_h, _bad_inf_s_m,
                                   _bad_outside_triangle, _bad_shape])
def test_simulate_rejects_bad_states(spoil):
    params, grid = fast_params(), fast_grid(0.05)
    st = ss.default_initial(params, grid, 0.01, mode="reduced", infected_fraction_m=0.1)
    spoil(st, grid)
    with pytest.raises(ValueError, match="state field"):
        ss.simulate(params, grid, st, t_end=0.5)
    with pytest.raises(ValueError, match="state field"):
        ss.step(st, params, grid)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_rejects_non_finite_observables():
    # every cell finite, but their sum overflows
    params, grid = fast_params(), fast_grid(0.05)
    st = ss.default_initial(params, grid, 0.01, mode="reduced")
    st.s_m = np.full(grid.n_am, 1e308)
    with pytest.raises(ValueError, match="non-finite observable"):
        ss.simulate(params, grid, st, t_end=0.5)


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_truncated_snapshot_is_a_clear_error(tmp_path, mode):
    params, grid = fast_params(), fast_grid(0.25)
    path = tmp_path / "state.bin"
    save_snapshot(ss.default_initial(params, grid, 0.01, mode=mode), grid, str(path))
    data = path.read_bytes()
    load_snapshot(str(path))
    for cut in sorted({0, 4, 10, 11, 40, 67, 68, 70, 90, len(data) // 2,
                       len(data) - 8, len(data) - 1}):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated|not a state snapshot"):
            load_snapshot(str(path))
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="after its last array"):
        load_snapshot(str(path))
    # the header says twice the mosquito age extent; the arrays do not follow
    header = bytearray(data)
    struct.pack_into("<d", header, 11 + 16, 2 * grid.a_max_m)
    path.write_bytes(bytes(header))
    with pytest.raises(ValueError, match="shape"):
        load_snapshot(str(path))
