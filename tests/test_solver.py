import dataclasses
import hashlib
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim import grids, solver
from structsim.grids import decay_factors
from structsim.rates import Arity, RateSpec, rate_table
from structsim.solver import (DegeneratePopulationError, _kernel, load_snapshot, n_human,
                              n_mosquito, observe, save_snapshot)

from conftest import fast_grid, fast_params, make_params, random_full_state


# ---------------------------------------------------------------------------
# forces of infection


def force_mh(state, params, grid):
    """Infection pressure on humans by age: S_h(a)/N_h * theta * iint beta_m I_m,
    from the state's fields."""
    solver._check_reduced(state.mode, params)
    nh = solver._above_floor(n_human(state, grid), params.epsilon_floor(grid), state.t)
    s_h = np.atleast_1d(np.asarray(state.s_h, dtype=float))
    return s_h / nh * solver._mosquito_pressure(state, params, grid)


def force_hm(state, params, grid):
    """Infection pressure on mosquitoes by age: S_m(a)/N_h * theta * iint beta_h I_h,
    from the state's fields."""
    nh = solver._above_floor(n_human(state, grid), params.epsilon_floor(grid), state.t)
    return state.s_m / nh * solver._human_pressure(state, params, grid)


def test_force_zero_without_infectious(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.0, mode="reduced")
    assert np.all(force_mh(st, params, grid) == 0.0)
    assert np.all(force_hm(st, params, grid) == 0.0)


def test_force_zero_without_susceptibles():
    params = fast_params()
    grid = fast_grid()
    st = random_full_state(params, grid, seed=3)
    st.s_h = np.zeros_like(st.s_h)
    assert np.all(force_mh(st, params, grid) == 0.0)
    st2 = random_full_state(params, grid, seed=4)
    st2.s_m = np.zeros_like(st2.s_m)
    assert np.all(force_hm(st2, params, grid) == 0.0)


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
    got = force_mh(st, params, grid)
    assert np.allclose(got, expect, rtol=1e-12)


def test_force_of_an_age_only_transmission_probability():
    # beta_h read on chronological age alone is sampled as one age column;
    # the full layout's pressure table repeats it along infection age
    params = fast_params(beta_h=RateSpec.gauss(0.2, 2.0, 0.8, Arity.AGE))
    grid = fast_grid(0.05)
    st = ss.default_initial(params, grid, 0.1, mode="full")
    beta = params.beta_h(grid.ages_h + 0.5 * grid.delta)
    phi = params.theta * float(np.sum(beta[:, None] * st.i_h)) * grid.delta ** 2
    expect = st.s_m / n_human(st, grid) * phi
    assert np.allclose(force_hm(st, params, grid), expect, rtol=1e-12, atol=0.0)
    # a reduced state has no age axis to sample such a rate on
    reduced = ss.default_initial(fast_params(), grid, 0.1, mode="reduced")
    for force in (force_mh, force_hm, ss.observe):
        with pytest.raises(ValueError, match="reduced mode requires age-independent"):
            force(reduced, params, grid)


def test_degenerate_population_error():
    params = fast_params()
    grid = fast_grid()
    st = ss.default_initial(params, grid, 0.0, mode="full")
    st.s_h = st.s_h * 1e-9     # far below the guaranteed floor
    with pytest.raises(DegeneratePopulationError):
        force_mh(st, params, grid)


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


def _row_major_band(removal, ages, taus, d, mass):
    """The seed band built row-major on whole rows: the survival profile of
    each age row on ``taus <= SEED_TAU_BAND``, inside the triangle, divided by
    the sum of its whole row and scaled to ``mass``."""
    nb = int(np.count_nonzero(taus <= solver.SEED_TAU_BAND + 1e-12))
    prof = np.zeros((len(ages), len(taus)))
    entry, step = decay_factors(rate_table(removal, ages, taus[:nb, None]), d)
    prof[:, :nb] = entry[:, None] * np.cumprod(step, axis=0).T
    prof[:, :nb] *= taus[None, :nb] <= ages[:, None] + 1e-12
    norms = np.sum(prof, axis=1) * d
    np.divide(prof, norms[:, None], out=prof, where=norms[:, None] > 0)
    return prof * mass[:, None]


# human rows of 60 and 300 cells, and rows of 1 100 cells in both populations
# on short axes; on the last, the sums of the band alone round apart from the
# sums of whole rows
@pytest.mark.parametrize("grid", [
    pytest.param(fast_grid(0.05), id="0.05"), pytest.param(fast_grid(0.01), id="0.01"),
    pytest.param(ss.Grid(delta=0.002, a_max_h=2.2, a_max_m=2.2, tau_max_h=2.2, tau_max_m=2.2,
                         eta_max=0.02), id="rows-1100")])
@pytest.mark.parametrize("fraction_m", [0.0, 0.3])
@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_seed_is_the_row_major_band_in_structure_age_major_layout(tmp_path, mode, fraction_m,
                                                                  grid):
    # every field of the seed equals a row-major build of the same band; a
    # seeded full-mode i_h is column-major, and a run from the seed writes the
    # snapshot of a run from its C-contiguous copy
    params = fast_params()
    seed = ss.default_initial(params, grid, 0.01, mode=mode, infected_fraction_m=fraction_m)
    dfe = ss.default_initial(params, grid, 0.0, mode=mode)
    d = grid.delta
    want = dfe.copy()
    want.s_m = (1.0 - fraction_m) * dfe.s_m
    if fraction_m:
        want.i_m = _row_major_band(params.removal_rate("i_m"), grid.ages_m, grid.taus_m, d,
                                   fraction_m * dfe.s_m)
    if mode == "full":
        want.s_h = (1.0 - 0.01) * dfe.s_h
        want.i_h = _row_major_band(params.removal_rate("i_h"), grid.ages_h, grid.taus_h, d,
                                   0.01 * dfe.s_h)
        assert seed.i_h.flags.f_contiguous
    else:
        want.s_h, want.i_h = seed.s_h, seed.i_h       # the reduced seed rule is its own
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        assert np.array_equal(getattr(seed, name), getattr(want, name)), name
    if fraction_m:
        assert seed.i_m.flags.f_contiguous

    contiguous = seed.copy()
    for name in ("i_h", "r_h", "i_m"):
        setattr(contiguous, name, np.ascontiguousarray(getattr(seed, name)))
    runs = [ss.simulate(params, grid, start, t_end=3 * d, snapshot=str(tmp_path / f"{i}.bin"))
            for i, start in enumerate((seed, contiguous))]
    assert runs[0] == runs[1]
    assert (tmp_path / "0.bin").read_bytes() == (tmp_path / "1.bin").read_bytes()


_SEED_RSS = """\
import sys
import structsim as ss
from structsim.rates import Arity, RateSpec
params = ss.ModelParams(
    lambda_h=8.4e5, lambda_m=1e7, theta=3.65e4,
    mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE),
    mu_m=RateSpec.constant(20.0, Arity.AGE), nu_h=RateSpec.constant(0.1, Arity.AGE_TAU),
    nu_m=RateSpec.constant(25.0, Arity.AGE_TAU),
    gamma_h=RateSpec.piecewise(0.1, 0.0, 50.0, Arity.TAU_ONLY),
    k_h=RateSpec.piecewise(0.1, 0.0, 40.0, Arity.ETA_ONLY),
    beta_h=RateSpec.gauss(0.1, 0.3, 0.1, Arity.TAU_ONLY),
    beta_m=RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0))
grid = ss.Grid(delta=0.005, a_max_h=250.0, a_max_m=1.5, tau_max_h=2.0, tau_max_m=1.5,
               eta_max=1.0)

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) * 1024

before = rss()
state = ss.default_initial(params, grid, 0.01, mode="full")
print(rss() - before, state.i_h.nbytes)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_full_mode_seed_touches_only_its_band():
    # an age-dependent grid of 50 000 ages with a 160 MB i_h, of which the
    # seed band is 21 of 400 columns: seeding it grows the resident set by
    # far less than the field, since its cells past the band stay untouched
    # zero pages (tracemalloc counts the allocation, not the touched pages)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ss.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _SEED_RSS], env=env, capture_output=True,
                         text=True, check=True).stdout
    grown, field_bytes = map(int, out.split())
    assert field_bytes == 50_000 * 400 * 8
    assert grown < field_bytes / 4, f"seeding grew the resident set by {grown / 1e6:.1f} MB"


@given(case=st.deferred(lambda: _small_case()), data=st.data())
@settings(max_examples=60, deadline=None)
def test_seed_band_in_row_blocks_is_the_whole_band_rule(case, data):
    # the seed's factors sampled a few age rows at a time, each block with the
    # age row before it, give the whole band's profile bit for bit: with a
    # mortality that reads age, with block edges inside the seed triangle and
    # with bands from one column to the whole structure axis
    params, grid, _ = case
    d, removal = grid.delta, params.removal_rate("i_h")
    band = data.draw(st.integers(1, grid.n_th)) * d
    mass = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(
        0.0, 2.0, grid.n_ah)
    block = 8 * grid.n_th * data.draw(st.integers(1, 3))      # 1 to 3 age rows
    with mock.patch.object(solver, "SEED_TAU_BAND", band), \
            mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        got = solver._band_profile(removal, grid.ages_h, grid.taus_h, d, mass)
        want = _row_major_band(removal, grid.ages_h, grid.taus_h, d, mass)
    assert np.array_equal(got, want)


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
        mu = rate_table(params.mu_h, grid.ages_h)
        nu_g = rate_table(params.nu_h, grid.ages_h[:, None], grid.taus_h[None, :])
        worst = 0.0
        state = st
        for _ in range(int(round(0.4 / delta))):
            nxt = ss.step(state, params, grid)
            d_dt = (n_human(nxt, grid) - n_human(state, grid)) / delta
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


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_snapshot_bytes_are_the_header_and_each_array_row_major(tmp_path, mode):
    # the file a snapshot writes from its arrays' own buffers is the header
    # followed by each array's tobytes(): a state returned by a run, and one
    # whose fields are not C-contiguous
    params, grid = fast_params(), fast_grid(0.1)
    init = ss.default_initial(params, grid, 0.05, mode=mode, infected_fraction_m=0.1)
    _, fin = ss.simulate(params, grid, init, t_end=4 * grid.delta, return_final=True)
    strided = fin.copy()
    strided.i_m = np.asfortranarray(fin.i_m)
    strided.i_h = np.asfortranarray(fin.i_h)
    path = tmp_path / "state.bin"
    for state in (fin, strided):
        save_snapshot(state, grid, str(path))
        expect = [solver.SNAPSHOT_MAGIC, struct.pack("<B", mode == "full"),
                  struct.pack("<7d", grid.delta, grid.a_max_h, grid.a_max_m, grid.tau_max_h,
                              grid.tau_max_m, grid.eta_max, state.t)]
        for arr in (np.atleast_1d(state.s_h), state.i_h, state.r_h, state.s_m, state.i_m):
            a = np.asarray(arr, dtype="<f8")
            expect += [struct.pack("<B", a.ndim), struct.pack(f"<{a.ndim}q", *a.shape),
                       a.tobytes()]
        assert path.read_bytes() == b"".join(expect)


# ---------------------------------------------------------------------------
# one transport rule in both layouts


def _triangle(n_a, n_s):
    return np.arange(n_s)[None, :] <= np.arange(n_a)[:, None]


@st.composite
def _small_case(draw, spans_age=None):
    """Random small grid, human rates that read no age (but see below) and a
    random triangular state in the drawn layout; ``first`` nonzero gives
    removal in the entry cell.  In the full layout about half the cases take
    a transmission probability ``beta_h`` that reads age alone, so the
    kernel keeps a table of ``beta_h * G``; otherwise it keeps ``beta_h *
    G`` on the infection-age axis.  Independently, about half of them take a
    mortality ``mu_h`` that reads age, so the human rings take age factors
    at each step.
    ``spans_age`` True gives structure axes as long as their age axes
    (``n_th == n_eta == n_ah``, ``n_tm == n_am``); False gives shorter
    infection-age axes and a recovery-age axis of any length.  About half
    the states keep mass only in the first ``j`` structure-age columns of
    each structured field, ``0 <= j <= n``: a run from them reaches fewer
    than ``n`` rows until its steps carry the last of that mass to the end
    of the axis (``j == n`` reaches every row from the start)."""
    delta = draw(st.sampled_from([0.05, 0.1, 0.25]))
    n_ah, n_am = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    if spans_age is None:
        n_th, n_tm = draw(st.integers(1, n_ah)), draw(st.integers(1, n_am))
        n_eta = draw(st.integers(1, 12))
    elif spans_age:
        n_th, n_tm, n_eta = n_ah, n_am, n_ah
    else:
        n_th, n_tm = draw(st.integers(1, n_ah - 1)), draw(st.integers(1, n_am - 1))
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
    if draw(st.booleans()):
        for name in ("i_h", "r_h", "i_m"):
            field = getattr(state, name)
            field[..., draw(st.integers(0, field.shape[-1])):] = 0.0
    if mode == "full" and draw(st.booleans()):
        # 0 or a normal probability: a subnormal one makes the pressure
        # subnormal, which keeps too few digits for the rtol of the run checks
        beta = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        params = dataclasses.replace(params, beta_h=RateSpec.piecewise(
            draw(st.floats(0.0, n_ah * delta)), draw(beta), draw(beta), Arity.AGE))
    if mode == "full" and draw(st.booleans()):
        # a mortality that reads age: the human rings scale their rows by the
        # age factors; at least 0.6 keeps the state above the population floor
        mortality = st.floats(0.6, 3.0)
        params = dataclasses.replace(params, mu_h=RateSpec.piecewise(
            draw(st.floats(0.0, n_ah * delta)), draw(mortality), draw(mortality), Arity.AGE))
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


def _channel_flows(params, grid, pool, part, axis, cells, inflow):
    """One step of a human pool by the shift, from the rates: the mass its
    removal channel ``part`` takes, by the age row it arrives in (a number
    in the reduced layout), and the cell sums of its deaths and of what
    passes the end of an axis.  ``inflow`` enters the structure-age-0 cell
    and loses its share on the way to the first center."""
    d, full = grid.delta, cells.ndim == 2
    ages = grid.ages_h[:, None] if full else 0.0
    total = rate_table(params.removal_rate(pool), ages, axis)
    part = rate_table(part, ages, axis)
    cur, prev = _diagonal(cells.ndim)
    pair, part_pair = total[prev] + total[cur], part[prev] + part[cur]
    share = np.divide(part_pair, pair, out=np.zeros(pair.shape), where=pair > 0)
    loss = cells[prev] * -np.expm1(-0.5 * d * pair)
    total0, part0 = total[..., 0], part[..., 0]
    share0 = np.divide(part0, total0, out=np.zeros(np.shape(total0)), where=total0 > 0)
    loss0 = inflow * -np.expm1(-0.5 * d * total0)
    moved = np.sum(share * loss, axis=-1)       # taken from the cells of each age row
    channel = share0 * loss0 + (np.append(0.0, moved) if full else moved)
    deaths = float(np.sum(loss) + np.sum(loss0) - np.sum(channel))
    return channel, deaths, float(np.sum(cells) - np.sum(cells[prev]))


@given(_small_case(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_population_balance_identity_on_random_small_grids(case, entry_cell):
    # the discrete population balance of one step, in both layouts, from
    # flows sampled on the rates: what recovery takes from i_h enters r_h,
    # what immunity loss takes from r_h enters the susceptibles, and i_h + r_h
    # change by the new infections less deaths, returns and what leaves the axes.
    # Half the draws take constant recovery and immunity-loss rates, so mass
    # infected in the entry cell recovers and returns within the step.
    params, grid, state = case
    if entry_cell:
        params = dataclasses.replace(params, **_ENTRY_CELL)
    nxt = ss.step(state, params, grid)
    d, full = grid.delta, state.mode == "full"
    infected = force_mh(state, params, grid) if full else float(force_mh(state, params, grid)[0])
    recovered, deaths_i, past_i = _channel_flows(params, grid, "i_h", params.gamma_h,
                                                 grid.taus_h, state.i_h, infected)
    returned, deaths_r, past_r = _channel_flows(params, grid, "r_h", params.k_h,
                                                grid.etas, state.r_h, recovered)
    # a subnormal flow keeps too few digits for the relative 1e-12 checks below
    for flow in (recovered, returned):
        assume(np.all((flow == 0.0) | (flow >= np.finfo(float).tiny)))
    terms = (np.sum(state.i_h), np.sum(state.r_h), np.sum(infected), deaths_i, deaths_r,
             np.sum(returned), past_i, past_r)
    held = float(np.sum(nxt.i_h) + np.sum(nxt.r_h))
    balance = terms[0] + terms[1] + terms[2] - sum(terms[3:])
    assert held == pytest.approx(balance, rel=0.0, abs=1e-12 * (sum(terms) + held))
    # the susceptibles receive the returned mass; recovery into r_h is its entry row
    rate_mh = solver._mosquito_pressure(state, params, grid) / n_human(state, grid)
    entry_r = np.exp(-0.5 * d * rate_table(params.removal_rate("r_h"),
                                           grid.ages_h if full else 0.0, grid.etas[0]))
    np.testing.assert_allclose(nxt.r_h[..., 0], recovered * entry_r, rtol=1e-12, atol=0.0)
    if full:
        mu = rate_table(params.mu_h, grid.ages_h)
        expect = (state.s_h[:-1] + d * returned[1:]) * np.exp(-0.5 * d * (mu[:-1] + mu[1:])) \
            * np.exp(-d * rate_mh)
        np.testing.assert_allclose(nxt.s_h[1:], expect, rtol=1e-12, atol=0.0)
        # the entry row: births and what returns within the entry cell, carried
        # to the first age center
        expect0 = (params.lambda_h + d * returned[0]) * np.exp(-0.5 * d * (mu[0] + rate_mh))
        assert nxt.s_h[0] == pytest.approx(expect0, rel=1e-12, abs=0.0)
    else:
        r_tot = params.mu_h_value() + rate_mh
        expect = state.s_h - np.expm1(-r_tot * d) * ((params.lambda_h + returned) / r_tot
                                                     - state.s_h)
        assert nxt.s_h == pytest.approx(expect, rel=1e-12, abs=0.0)


# fast_params as is, with recovery and immunity loss in the entry cell, and
# with every human rate constant (each rate sample is a float)
_ENTRY_CELL = {"gamma_h": RateSpec.constant(1.5, Arity.TAU_ONLY),
               "k_h": RateSpec.constant(0.7, Arity.ETA_ONLY)}
RATE_SETS = [{}, _ENTRY_CELL, {**_ENTRY_CELL, "beta_h": RateSpec.constant(0.2, Arity.AGE_TAU)}]


# ---------------------------------------------------------------------------
# the whole-table rule: the independent reference of the streamed ring tables


def _channel_tables(part, total, delta):
    """Entry and step factors of a field with removal-rate table ``total``
    (structure age on the first axis), and the outflow weights of its
    removal channel ``part``: the channel's share of the rate trapezoid
    times the fraction a cell loses, whole tables at once."""
    entry, step = decay_factors(total, delta)
    cur, prev = _diagonal(total.ndim)
    pair = total[prev] + total[cur]
    out = np.zeros(total.shape)
    out[cur] = np.divide(part[prev] + part[cur], pair, out=np.zeros(pair.shape),
                         where=pair > 0) * (1.0 - step[cur])
    pair0 = total[0] + total[0]
    out0 = np.divide(part[0] + part[0], pair0, out=np.zeros(np.shape(pair0)),
                     where=pair0 > 0) * (1.0 - entry)
    return entry, step, out, out0


def _cohort_products(step):
    """``C[tau, x]``: the product of ``step`` (structure age first) along
    the diagonal from ``(0, x)`` to ``(tau, x + tau)``, zero past the age
    axis; along the one cohort of a table with no age axis."""
    if step.ndim == 1:
        return np.cumprod(step)        # step[0] is the padding 1
    n_s, n_a = step.shape
    c = np.zeros((n_s, n_a))
    c[0] = 1.0
    for tau in range(1, min(n_s, n_a)):
        c[tau, :n_a - tau] = c[tau - 1, :n_a - tau] * step[tau, tau:]
    return c


def _along_cohorts(table, c, lag):
    """``table[tau + lag, x + tau + lag] * c[tau, x]`` on the cohort layout
    of ``c``, zero where that cell of ``table`` lies past an axis."""
    out = np.zeros(c.shape)
    live_rows = max(min(len(c), len(table) - lag), 0)
    if c.ndim == 1:
        out[:live_rows] = table[lag:lag + live_rows] * c[:live_rows]
        return out
    n_a = c.shape[1]
    for tau in range(live_rows):
        live = max(n_a - tau - lag, 0)
        out[tau, :live] = table[tau + lag, tau + lag:] * c[tau, :live]
    return out


def _reference_ring_tables(params, grid, mode, rows):
    """The ring tables of a kernel for ``rows`` structure ages of (i_h, r_h,
    i_m) by the whole-table rule, with beta * C for both pressures."""
    d, full = grid.delta, mode == "full"
    human = grid.ages_h if full else 0.0
    k = {}
    for key, pool, part, beta, ages, axis, m in (
            ("ih", "i_h", params.gamma_h, params.beta_h, human, grid.taus_h, rows[0]),
            ("rh", "r_h", params.k_h, None, human, grid.etas, rows[1]),
            ("im", "i_m", None, params.beta_m, grid.ages_m, grid.taus_m, rows[2])):
        taus = axis[:m + (part is not None)]
        column = taus[:, None] if np.ndim(ages) else taus
        total = rate_table(params.removal_rate(pool), ages, column)
        entry, step, out, out0 = _channel_tables(
            total if part is None else rate_table(part, ages, column), total, d)
        c = _cohort_products(step[:m])
        k.update({key + "_entry": entry, key + "_c": c})
        if part is not None:
            k.update({key + "_out0": out0, key + "_out_c": _along_cohorts(out, c, 1)})
        if beta is not None:
            # beta at each cohort's age-lag midpoint (offset + tau, tau), on
            # the cohort layout [tau, x] of c
            lag = np.add(ages, column[:m])
            k[key + "_beta_c"] = rate_table(beta, lag, column[:m]) * c
    return k


def _age_products(k, key, m, n_a):
    """``E[tau, x]``, the product of a ring's age factors ``e[x + 1 .. x +
    tau]`` (1 where no removal rate reads age), zero past the age axis."""
    e = k.get(key + "_e", np.append(np.ones(n_a), np.zeros(m)))
    assert e.shape == (n_a + m,)
    prod = np.zeros((m, n_a))
    prod[0] = 1.0
    for tau in range(1, m):
        prod[tau] = prod[tau - 1] * e[tau:tau + n_a]
    return prod


def _padded_weights(k, key, m):
    """A ring's ``(m, n_a)`` outflow-weight table: the rows it keeps, from
    structure age ``lo`` on, after the ``lo`` zero rows it does not keep."""
    kept, lo = k[key + "_out_g"], k[key + "_out_lo"]
    assert kept.shape[0] == max(m - lo, 0), (key, kept.shape, lo)
    return np.concatenate((np.zeros((min(lo, m), kept.shape[1])), kept))


def _factored_tables(k, key, m, ages):
    """C, beta * C and the outflow weights times C of a ring, formed from
    its factored tables: G, the age factors and the weights and beta times
    G.  A weight on the structure axis alone applies to no cell that leaves
    the age axis; a weight table keeps its rows from ``lo`` on."""
    tables = {"_c": k[key + "_g"], "_beta_c": k.get(key + "_beta_g"),
              "_out_c": k.get(key + "_out_g")}
    if np.ndim(ages) == 0:
        return {key + name: t for name, t in tables.items() if t is not None}
    if np.ndim(tables["_out_c"]) == 2:
        tables["_out_c"] = _padded_weights(k, key, m)
    n_a = len(ages)
    prod = _age_products(k, key, m, n_a)
    stays = np.arange(n_a)[None, :] < n_a - 1 - np.arange(m)[:, None]
    out = {}
    for name, t in tables.items():
        if t is None:
            continue
        assert t.shape in ((m,), (m, n_a)), (key, name)
        if name == "_out_c" and t.ndim == 1:
            t = np.where(stays, t[:, None], 0.0)
        out[key + name] = (t if t.ndim == 2 else t[:, None]) * prod
    return out


def _assert_streamed_tables(params, grid, mode, rows, rtol=0.0):
    """Every ring table of the build for ``rows``, formed from its factors,
    is the whole-table rule's: bit for bit with ``rtol`` 0, else to
    ``rtol`` and exactly 0 where the rule's table is."""
    k = solver._kernel(params, grid, mode, rows)
    human = grid.ages_h if mode == "full" else 0.0
    got = {}
    for key, ages, m in (("ih", human, rows[0]), ("rh", human, rows[1]),
                         ("im", grid.ages_m, rows[2])):
        got.update(_factored_tables(k, key, m, ages))
    for key, want in _reference_ring_tables(params, grid, mode, rows).items():
        if key.endswith("_c"):          # C, out * C, beta * C
            assert np.shape(got[key]) == np.shape(want), (key, rows)
            if rtol:
                np.testing.assert_allclose(got[key], want, rtol=rtol, atol=0.0,
                                           err_msg=f"{key} {rows}")
                assert np.array_equal(got[key] == 0.0, want == 0.0), (key, rows)
                continue
            got_key = got[key]
        else:
            # an entry factor that reads no age is one number for every age
            got_key = np.broadcast_to(k[key], np.shape(want))
        assert np.array_equal(got_key, want), (key, rows)


_AGE_BETA = {"beta_h": RateSpec.piecewise(2.0, 0.1, 0.4, Arity.AGE),
             "mu_h": RateSpec.piecewise(3.0, 0.8, 1.1, Arity.AGE)}


@pytest.mark.parametrize("over, mode", [(over, mode) for over in RATE_SETS
                                        for mode in ("full", "reduced")] + [(_AGE_BETA, "full")])
def test_streamed_ring_tables_are_the_whole_table_rule(over, mode):
    # G is C bit for bit where no removal rate reads age; G times the products
    # of the age factors is C to rounding where one does
    params, grid = fast_params(**over), fast_grid(0.05)
    n = (grid.n_th, grid.n_eta, grid.n_tm)
    rtol = 1e-12 if over is _AGE_BETA else 0.0
    for rows in [(1, 1, 1), (2, 5, 3), (n[0] - 1, n[1] - 1, n[2] - 1), (n[0], 1, n[2] // 2), n]:
        _assert_streamed_tables(params, grid, mode, rows, rtol)
    # a transmission probability that reads no age leaves no (m, n_a) table
    k = solver._kernel(params, grid, mode, n)
    assert k["ih_beta_g"].ndim == (2 if params.beta_h.reads[0] else 1)


def _age_config():
    """The full-mode age config of the benchmark: 50 000 human ages."""
    params = make_params(mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE), lambda_m=1e7)
    grid = ss.Grid(delta=0.005, a_max_h=250.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    return params, grid


def test_streamed_ring_tables_are_the_whole_table_rule_on_an_age_dependent_grid():
    params, grid = _age_config()
    for rows in [(31, 10, 10), (1, 1, 1)]:
        _assert_streamed_tables(params, grid, "full", rows, rtol=1e-12)


def test_only_a_channel_of_an_age_reading_pool_keeps_an_age_table():
    # on the benchmark's age grid the two outflow-weight tables are the only
    # (m, n_a) tables; on a preset no removal rate reads age and full mode
    # keeps none
    params, grid = _age_config()
    k = solver._kernel(params, grid, "full", (30, 10, 10))
    wide = {key: v.shape for key, v in k.items() if np.ndim(v) == 2 and grid.n_ah in v.shape}
    # kept from structure age lo = 19 on, where the channels start to remove
    assert wide == {"ih_out_g": (30 - 19, grid.n_ah), "rh_out_g": (0, grid.n_ah)}
    assert (k["ih_out_lo"], k["rh_out_lo"]) == (19, 10)
    assert sorted(key for key in k if key.endswith("_e")) == ["ih_e", "rh_e"]
    params, grid = ss.preset("backward"), ss.preset_grid("backward")
    k = solver._kernel(params, grid, "full", (30, 10, 10))
    assert not [key for key, v in k.items() if np.ndim(v) == 2 and grid.n_ah in v.shape]
    assert not [key for key in k if key.endswith("_e")]


def test_a_weight_table_keeps_its_rows_from_the_first_move_its_channel_takes():
    # on the benchmark's age config recovery and immunity loss start at
    # structure age 0.1: of the 31 rows a run reaches, ih_out_g keeps rows
    # 19 .. 30, and r_h, whose run reaches 10 rows, keeps none
    params, grid = _age_config()
    k = solver._kernel(params, grid, "full", (31, 10, 10))
    assert (k["ih_out_lo"], k["ih_out_g"].shape) == (19, (12, grid.n_ah))
    assert (k["rh_out_lo"], k["rh_out_g"].shape) == (10, (0, grid.n_ah))
    assert np.any(k["ih_out_g"][0] > 0.0)
    # a channel that removes from tau = 0 keeps its whole table, one that
    # removes nowhere on the reach keeps none; the kept rows after the
    # dropped zero rows are the whole-table rule's
    params = fast_params(**_AGE_BETA, gamma_h=RateSpec.constant(2.0, Arity.TAU_ONLY),
                         k_h=RateSpec.piecewise(5.0, 0.0, 1.5, Arity.ETA_ONLY))
    grid = fast_grid(0.05)
    n = (grid.n_th, grid.n_eta, grid.n_tm)
    for rows in [(1, 1, 1), (2, 5, 3), n]:
        k = solver._kernel(params, grid, "full", rows)
        assert (k["ih_out_lo"], k["ih_out_g"].shape) == (0, (rows[0], grid.n_ah))
        assert (k["rh_out_lo"], k["rh_out_g"].shape) == (rows[1], (0, grid.n_ah))
        _assert_streamed_tables(params, grid, "full", rows, rtol=1e-12)


def test_full_kernel_build_peaks_at_its_tables():
    # the build forms one structure-age row at a time: on the benchmark's age
    # grid it allocates the tables it returns and a few rows of 50 000 cells,
    # where the whole-table rule held five (m + 1, n_a) tables per ring
    params, grid = _age_config()
    tracemalloc.start()
    try:
        k = solver._kernel(params, grid, "full", (31, 10, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(np.asarray(table).nbytes for table in k.values())
    assert peak <= kept + 4e6, f"build peaked {(peak - kept) / 1e6:.1f} MB above its tables"


@pytest.mark.parametrize("over", RATE_SETS)
def test_outflow_weights_hand_value(over):
    # channel share of the trapezoid removal times the fraction removed; the
    # kernel keeps the weights times the survival product G
    params = fast_params(**over)
    grid = fast_grid(0.05)
    k = _kernel(params, grid, "reduced")
    d = grid.delta
    for key, pool, part, axis, other in (
            ("ih", "i_h", params.gamma_h, grid.taus_h, 0.8 + 0.3),
            ("rh", "r_h", params.k_h, grid.etas, 0.8)):
        part = rate_table(part, 0.0, axis)
        _, _, out, out0 = _channel_tables(
            part, rate_table(params.removal_rate(pool), 0.0, axis), d)
        pair = part[:-1] + part[1:]
        expect = pair / (2 * other + pair) * -np.expm1(-0.5 * d * (2 * other + pair))
        assert np.allclose(out[1:], expect, rtol=1e-13, atol=0.0), key
        assert np.array_equal(k[key + "_out_g"], np.append(out[1:], 0.0) * k[key + "_g"]), key
        expect0 = part[0] / (other + part[0]) * -math.expm1(-0.5 * d * (other + part[0]))
        assert k[key + "_out0"] == out0 == pytest.approx(expect0, rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("over", RATE_SETS)
def test_full_tables_repeat_reduced_tables_when_rates_are_age_free(over):
    # with age-free human rates the full layout's human ring tables are the
    # reduced layout's, bit for bit: G, beta_h * G and the outflow weights
    # times G on the structure axis alone, no age factors, and the same entry
    # factors for every age
    params = fast_params(**over)
    grid = fast_grid(0.05)
    full, red = _kernel(params, grid, "full"), _kernel(params, grid, "reduced")
    for key in ("ih_g", "rh_g", "ih_beta_g", "ih_out_g", "rh_out_g"):
        assert full[key].shape == red[key].shape == (len(red[key[:2] + "_g"]),), key
        assert np.array_equal(full[key], red[key]), key
    assert "ih_e" not in full and "rh_e" not in full
    for key in ("ih_entry", "rh_entry", "ih_out0", "rh_out0"):
        assert np.all(full[key] == red[key]), key


_RING_KEYS = {"ih": ("ih_g", "ih_beta_g", "ih_out_g"), "rh": ("rh_g", "rh_out_g"),
              "im": ("im_g", "im_beta_g")}


def _assert_prefix_tables(params, grid, mode, rows):
    """A kernel built for ``rows`` structure ages of (i_h, r_h, i_m) holds
    the leading rows of every ring table of the whole-axis build (of a
    weight table, after the zero rows it does not keep), the leading
    ``n_a + m`` age factors, and the same other tables."""
    full = solver._kernel(params, grid, mode)
    part = solver._kernel(params, grid, mode, rows)
    assert part.keys() == full.keys()
    ring = {key: m for keys, m in zip(_RING_KEYS.values(), rows) for key in keys}
    ring.update({key + "_e": n_a + m for key, n_a, m in
                 zip(_RING_KEYS, (grid.n_ah, grid.n_ah, grid.n_am), rows)})
    whole = {"ih": grid.n_th, "rh": grid.n_eta}
    for key, table in full.items():
        if key.endswith("_out_g") and table.ndim == 2:
            # a weight table keeps its rows from lo on: compare them in place
            m, pool = ring[key], key[:2]
            assert part[pool + "_out_lo"] == min(full[pool + "_out_lo"], m), (key, rows)
            want = _padded_weights(full, pool, whole[pool])[:m]
            assert np.array_equal(_padded_weights(part, pool, m), want), (key, rows)
            continue
        if key.endswith("_out_lo"):
            continue                # compared with its table
        want = table[:ring[key]] if key in ring else table
        assert np.array_equal(part[key], want), (key, rows)


@pytest.mark.parametrize("mode", ["full", "reduced"])
@pytest.mark.parametrize("over", RATE_SETS)
def test_ring_tables_of_fewer_rows_are_a_prefix(over, mode):
    params, grid = fast_params(**over), fast_grid(0.05)
    n = (grid.n_th, grid.n_eta, grid.n_tm)
    for rows in [(1, 1, 1), (2, 5, 3), (n[0] - 1, n[1] - 1, n[2] - 1), (n[0], 1, n[2] // 2), n]:
        _assert_prefix_tables(params, grid, mode, rows)


def test_ring_tables_of_fewer_rows_are_a_prefix_on_an_age_dependent_grid():
    # the full-mode age config of the benchmark: 50 000 human ages; the rows
    # a 10-step run from a 20-column seed reaches, and one row each
    params, grid = _age_config()
    for rows in [(30, 10, 10), (1, 1, 1)]:
        _assert_prefix_tables(params, grid, "full", rows)


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_a_run_builds_its_ring_tables_once(mode):
    # the start state reads no ring table; a run builds its tables once, for
    # the rows it reaches
    params, grid = fast_params(), fast_grid(0.05)
    with mock.patch.object(solver, "_kernel", wraps=solver._kernel) as build:
        init = ss.default_initial(params, grid, 0.01, mode=mode, infected_fraction_m=0.1)
        assert build.call_count == 0
        ss.simulate(params, grid, init, t_end=3 * grid.delta, return_final=True)
    seeded = [int(np.flatnonzero(np.any(f, axis=0) if f.ndim == 2 else f)[-1]) + 1
              for f in (init.i_h, init.i_m)]
    assert [c.args[3] for c in build.call_args_list] == [(seeded[0] + 3, 3, seeded[1] + 3)]


def test_a_finished_run_holds_no_kernel():
    # a run's tables live no longer than the run: once a full-mode run that
    # read 400 KB of tables has returned, less than a sixth of that is left
    # allocated.  The parameters are this test's own, so no earlier run with
    # them could have built tables outside the trace.
    params, grid = fast_params(theta=0.75), fast_grid(0.02)
    init = ss.default_initial(params, grid, 0.01, mode="full", infected_fraction_m=0.01)
    tracemalloc.start()
    try:
        ss.simulate(params, grid, init, t_end=0.5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64e3, f"a finished run left {held / 1e3:.0f} KB allocated"


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_a_run_frees_a_start_state_only_it_holds(mode):
    # once the rings hold the start state the run drops it: a seed handed
    # over unnamed is freed before the first step, and a start state the
    # caller keeps comes back as it was
    params, grid = fast_params(), fast_grid(0.05)
    refs, freed = [], []
    step = solver._step_inplace

    def seed():
        init = ss.default_initial(params, grid, 0.01, mode=mode, infected_fraction_m=0.1)
        refs.append(weakref.ref(init.i_h))
        return init

    def checked(*args):
        freed.append(refs[0]() is None)
        step(*args)

    with mock.patch.object(solver, "_step_inplace", checked):
        ss.simulate(params, grid, seed(), t_end=3 * grid.delta)
    assert freed == [True] * 3
    init = seed()
    kept = init.copy()
    ss.simulate(params, grid, init, t_end=3 * grid.delta, return_final=True)
    assert init.t == kept.t
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        assert np.array_equal(getattr(init, name), getattr(kept, name)), name


def test_reduced_kernel_builds_no_human_age_table():
    # a reduced step reads no table on the human age axis, which has 500 000
    # cells on the backward preset's grid; building one took 28 MB
    params, grid = ss.preset("backward"), ss.preset_grid("backward")
    tracemalloc.start()
    try:
        k = _kernel(params, grid, "reduced")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"reduced kernel build peaked at {peak / 1e6:.1f} MB"
    assert all(grid.n_ah not in np.shape(v) for v in k.values())


def test_reduced_kernel_samples_beta_tables_in_row_blocks():
    # the i_m ring's beta * G table, 300 x 300 on the forward preset, is
    # sampled a row block at a time: the build peaks at its kept tables plus
    # one block's lag and gauss_exp temporaries (~3.4 blocks), where the
    # whole-table sample held the lag, the temporaries and the product at
    # once (~6.1 blocks above the kept tables)
    params, grid = ss.preset("forward"), ss.preset_grid("forward")
    tracemalloc.start()
    try:
        k = _kernel(params, grid, "reduced")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(np.asarray(table).nbytes for table in k.values())
    block = grids.row_blocks(grid.n_tm, grid.n_am)[0]
    block_bytes = 8 * grid.n_am * (block.stop - block.start)
    assert k["im_beta_g"].shape == (grid.n_tm, grid.n_am) and block.stop < grid.n_tm
    assert peak < kept + 4 * block_bytes, \
        f"build peaked {(peak - kept) / block_bytes:.1f} blocks above its tables"


@given(case=st.deferred(lambda: _small_case()), data=st.data())
@settings(max_examples=60, deadline=None)
def test_beta_tables_in_row_blocks_are_the_whole_table_sample(case, data):
    # a beta that reads age is sampled into its (m, n_a) table a few rows at
    # a time, bit for bit the whole table's sample times G: i_m's always,
    # i_h's under an age-reading beta_h, with block edges anywhere
    params, grid, state = case
    rows = tuple(data.draw(st.integers(1, n)) for n in (grid.n_th, grid.n_eta, grid.n_tm))
    block = data.draw(st.integers(1, 24 * max(grid.n_ah, grid.n_am)))   # 1 to 3 rows
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        k = _kernel(params, grid, state.mode, rows)
    human = grid.ages_h if state.mode == "full" else 0.0
    checked = 0
    for key, beta, ages, axis, m in (("ih", params.beta_h, human, grid.taus_h, rows[0]),
                                     ("im", params.beta_m, grid.ages_m, grid.taus_m, rows[2])):
        if beta.reads[0]:
            want = grids.lag_sample(beta, ages, axis[:m, None]) * k[key + "_g"][:, None]
            assert np.array_equal(k[key + "_beta_g"], want), key
            checked += 1
    assert checked >= 1


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
    expect = (force_mh(st0, params, grid) * (1.5 / r_ih) * (1.0 - math.exp(-0.5 * d * r_ih))
              * math.exp(-0.5 * d * r_rh))
    got = np.atleast_1d(ss.step(st0, params, grid).r_h[..., 0])
    assert np.all(expect > 0.0)
    assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# infected mosquitoes as a cohort ring


def _diagonal(ndim):
    return (slice(1, None),) * ndim, (slice(None, -1),) * ndim


def _shift(field, step, entry, inflow):
    """The shift rule: ``field`` moved one cell along every axis and decayed
    by ``step``, its structure-age-0 column filled with ``inflow * entry``."""
    cur, prev = _diagonal(field.ndim)
    out = np.zeros_like(field)
    out[cur] = field[prev] * step[cur]
    out[..., 0] = inflow * entry
    return out


def _shift_rings(params, grid):
    """A stand-in for ``solver._CohortRing`` that holds the ordinary field and
    moves it by the shift rule, with tables sampled from the rates: the
    reference a cohort ring must reproduce."""
    d = grid.delta
    pools = {"i_h": (grid.ages_h, grid.taus_h, params.gamma_h, params.beta_h),
             "r_h": (grid.ages_h, grid.etas, params.k_h, None),
             "i_m": (grid.ages_m, grid.taus_m, None, params.beta_m)}

    class ShiftRing:
        def __init__(self, k, pool, field, columns):
            ages, axis, part, beta = pools[pool]
            if field.ndim == 1:             # a reduced human field
                ages = 0.0
            # tables come structure age first; a field with an age axis is age-major
            sample = lambda rate: rate_table(rate, ages, axis[:, None] if field.ndim == 2 else axis)
            total = sample(params.removal_rate(pool))
            self.entry, step, out, _ = _channel_tables(
                total if part is None else sample(part), total, d)
            self.step, self.out = step.T, out.T
            lag = ages[:, None] if field.ndim == 2 else ages
            self.beta = None if beta is None else rate_table(beta, lag + 0.5 * d, axis)
            self.cells = field.copy()

        def push(self, inflow):
            self.cells = _shift(self.cells, self.step, self.entry, inflow)

        def outflow(self):
            cur, prev = _diagonal(self.cells.ndim)
            mass = np.zeros(self.cells.shape[:-1])
            mass[cur[:-1]] = np.sum(self.out[cur] * self.cells[prev], axis=-1)
            return mass

        def sum(self):
            return float(np.sum(self.cells))

        def sum_beta(self):
            return float(np.sum(self.beta * self.cells))

        def field(self):
            return self.cells.copy()

    return ShiftRing


SUBNORMAL_ULPS = 16


def _assert_rounding_only(got, want, name):
    """``got`` is exactly 0 where ``want`` is and holds its normal cells to
    rtol 1e-12; a nonzero subnormal cell of ``want`` carries fewer bits than
    rtol asks, so it is held to a few units in the last place instead, and
    may round to 0 in ``got``: the shift rounds a subnormal cell at each of
    its at most 25 steps."""
    got, want = np.asarray(got), np.asarray(want)
    zero, normal = want == 0.0, np.abs(want) >= np.finfo(float).tiny
    np.testing.assert_array_equal(got[zero], 0.0, err_msg=name)
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0, err_msg=name)
    subnormal = ~zero & ~normal
    np.testing.assert_array_max_ulp(got[subnormal], want[subnormal], maxulp=SUBNORMAL_ULPS)


def test_rounding_only_lets_a_subnormal_round_to_zero_but_not_back():
    # the smallest subnormal is one unit in the last place from 0, so the
    # ring may round it away; a cell the shift leaves at 0 must stay 0
    _assert_rounding_only(np.array([0.0]), np.array([5e-324]), "cell")
    with pytest.raises(AssertionError):
        _assert_rounding_only(np.array([5e-324]), np.array([0.0]), "cell")


@pytest.mark.parametrize("spans_age", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cohort_ring_matches_the_shift(spans_age, data):
    # the same run with every cohort ring replaced by the shifted field, in
    # the drawn layout; only the rounding order of the products and sums
    # may differ.  Structure axes have at most 12 cells, so some runs end
    # before their rings reach the end of an axis and some long after.
    params, grid, state = data.draw(_small_case(spans_age))
    n_steps = data.draw(st.integers(1, 25))
    assert (grid.n_tm == grid.n_am and grid.n_th == grid.n_eta == grid.n_ah) == spans_age
    rows, fin = ss.simulate(params, grid, state, t_end=n_steps * grid.delta,
                            output_every=3, return_final=True)
    with mock.patch.object(solver, "_CohortRing", _shift_rings(params, grid)):
        ref_rows, ref = ss.simulate(params, grid, state, t_end=n_steps * grid.delta,
                                    output_every=3, return_final=True)
    for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
        _assert_rounding_only(getattr(fin, name), getattr(ref, name), name)
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert row.t == ref_row.t
        for got, want in zip(vars(row).values(), vars(ref_row).values()):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # an age-free beta_h is kept on the infection-age axis alone: the full
    # layout holds no (m, n_a) table of it
    k = solver._kernel(params, grid, state.mode)
    if state.mode == "full":
        assert k["ih_beta_g"].ndim == (2 if params.beta_h.reads[0] else 1)


def _skewed(rows, width):
    """The view ``v[i, j] = rows[i, j - i]`` of a C-contiguous block of rows."""
    step_i, step_j = rows.strides
    return np.lib.stride_tricks.as_strided(rows, (len(rows), width), (step_i - step_j, step_j),
                                           writeable=False)


def _einsum_outflow(ring, weights):
    """A ring's outflow by its whole ``(m, n_a)`` weight table, summed along
    the skewed diagonals of each ring piece, every row of the table read."""
    m, n_a = ring.rows.shape
    h = ring.head
    mass = np.zeros(n_a)
    for tau0, w, rows in ((0, weights[:m - h], ring.rows[h:]),
                          (m - h, weights[m - h:], ring.rows[:h])):
        width = n_a - 1 - tau0
        if len(w) and width > 0:
            mass[1 + tau0:] += np.einsum("ij,ij->j", _skewed(w, width), _skewed(rows, width))
    return mass


def _weight_table(k, key, m, n_a):
    """A ring's outflow weights as a whole ``(m, n_a)`` table: a weight table
    with its ``lo`` zero rows put back, or a weight on the structure axis
    alone spread along the age axis, 0 on the cell of each row that leaves
    the axis (cohort offset ``n_a - 1 - tau``)."""
    if k[key + "_out_g"].ndim == 2:
        return _padded_weights(k, key, m)
    table = np.repeat(k[key + "_out_g"][:, None], n_a, axis=1)
    leaving = np.arange(min(m, n_a))
    table[leaving, n_a - 1 - leaving] = 0.0
    return table


@given(case=_small_case(), n_steps=st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_outflow_is_the_skewed_sum_of_the_whole_weight_table(case, n_steps):
    # outflow reads a weight table from lo on, or a weight on the structure
    # axis alone, and only the filled rows: bit for bit the skewed-diagonal
    # sums of the whole table, at every state of a run, as the ring's head
    # wraps and its rows fill
    params, grid, state = case
    assume(state.mode == "full")
    run, k, buf = solver._start(state, params, grid, n_steps)
    for n in range(n_steps + 1):
        for pool in ("i_h", "r_h"):
            ring, key = buf[pool], pool.replace("_", "")
            weights = _weight_table(k, key, *ring.rows.shape)
            assert np.array_equal(ring.outflow(), _einsum_outflow(ring, weights)), (pool, n)
        if n < n_steps:
            solver._step_inplace(run, params, grid, k, buf)


REDUCED_CONTRACTIONS = {"i_h": {"sum": "_g", "sum_beta": "_beta_g", "outflow": "_out_g"},
                        "r_h": {"sum": "_g", "outflow": "_out_g"},
                        "i_m": {"sum_beta": "_beta_g"}}


@given(case=_small_case(), extra=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_reduced_ring_contractions_are_the_unrotated_dot(case, extra):
    # a ring with no age axis answers sum, sum_beta and outflow from one
    # product of a window of its doubled block with the rows, and the i_m
    # pressure reads only the filled rows: at every state of a run whose
    # head wraps at least once, each is the dot product of its kernel table
    # with the rows in structure-age order
    params, grid, state = case
    assume(state.mode == "reduced")
    n_steps = max(grid.n_th, grid.n_eta, grid.n_tm) + extra   # a ring has at most n rows
    run, k, buf = solver._start(state, params, grid, n_steps)
    for n in range(n_steps + 1):
        for pool, contractions in REDUCED_CONTRACTIONS.items():
            ring, key = buf[pool], pool.replace("_", "")
            rows = np.roll(ring.rows, -ring.head, axis=0)
            for method, table in contractions.items():
                want = float(np.vdot(k[key + table], rows))
                assert getattr(ring, method)() == pytest.approx(want, rel=1e-14, abs=0.0), \
                    (pool, method, n)
        if n < n_steps:
            solver._step_inplace(run, params, grid, k, buf)


def test_cohort_ring_rejects_underflowed_survival():
    # removal of 1e4 per year: one step factor is exp(-1000) = 0, so a cohort
    # past structure age 0 cannot be divided back to its entry row
    params = fast_params(mu_m=RateSpec.constant(1e4, Arity.AGE))
    grid = fast_grid(0.1)
    state = ss.default_initial(params, grid, 0.01, mode="reduced")
    state.s_m = np.ones(grid.n_am)
    state.i_m[:, 0] = 1.0                  # entry column: C = 1, fine
    rows = ss.simulate(params, grid, state, t_end=0.3)
    assert rows[-1].total_i_m == 0.0
    state.i_m[4, 2] = 1.0
    with pytest.raises(ValueError, match="i_m is nonzero where its survival product underflows"):
        ss.simulate(params, grid, state, t_end=0.3)
    # the human rings of the full layout: disease mortality, immunity loss
    for over, name in (({"nu_h": RateSpec.constant(1e4, Arity.AGE_TAU)}, "i_h"),
                       ({"k_h": RateSpec.constant(1e4, Arity.ETA_ONLY)}, "r_h")):
        params = fast_params(**over)
        state = ss.default_initial(params, grid, 0.0, mode="full")
        getattr(state, name)[:, 0] = 1.0
        rows, fin = ss.simulate(params, grid, state, t_end=0.3, return_final=True)
        assert np.all(getattr(fin, name)[:, 1:] == 0.0)
        getattr(state, name)[4, 2] = 1.0
        with pytest.raises(ValueError, match=f"{name} is nonzero where its survival product"):
            ss.simulate(params, grid, state, t_end=0.3)
        with pytest.raises(ValueError, match="underflows"):
            ss.step(state, params, grid)


def test_an_underflowed_age_factor_zeroes_cells():
    # mortality 1e5 from age 0.3 on: the age factor into the fourth age row is
    # exp(-5000) = 0.  Nothing is divided by an age factor, so a run carries
    # its cohorts across the jump and every cell past it is exactly 0.
    params = fast_params(mu_h=RateSpec.piecewise(0.3, 0.8, 1e5, Arity.AGE))
    grid = fast_grid(0.1)
    state = ss.default_initial(params, grid, 0.05, mode="full", infected_fraction_m=0.1)
    state.i_h[1:3, :2] = 1.0                # cohorts that reach the jump within the run
    state.r_h[2, :3] = 1.0
    with np.errstate(divide="raise", invalid="raise"):     # no 0/0, no inf * 0
        rows, fin = ss.simulate(params, grid, state, t_end=0.5, return_final=True)
    assert all(np.isfinite(list(vars(row).values())).all() for row in rows)
    assert rows[-1].total_i_h > 0.0
    for name in ("s_h", "i_h", "r_h"):
        field = getattr(fin, name)
        assert np.all(np.isfinite(field)) and np.all(field[3:] == 0.0), name
    assert np.any(fin.s_h[:3] > 0.0) and np.any(fin.i_h[:3] > 0.0)


@given(_small_case(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_snapshot_round_trip_on_random_small_grids(case, n_steps):
    # a prepared state and the state a run returns, rebuilt from its rings,
    # read back bit for bit in both layouts
    params, grid, state = case
    _, fin = ss.simulate(params, grid, state, t_end=n_steps * grid.delta, return_final=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.bin")
        for want in (state, fin):
            save_snapshot(want, grid, path)
            got, got_grid = load_snapshot(path)
            assert got_grid == grid and got.mode == want.mode and got.t == want.t
            for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
                a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                assert a.dtype == b.dtype == np.float64, name
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@given(_small_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_streamed_snapshot_is_the_snapshot_of_the_final_state(case, data):
    # a run that writes its final state from its rings, a block of age rows
    # at a time, writes the bytes of the state it would return, after a few
    # steps and after more steps than any axis has cells; the digest it
    # returns is the file's, and its rows are those of the run that returns
    # its state
    params, grid, state = case
    longest = max(grid.n_ah, grid.n_th, grid.n_eta, grid.n_am, grid.n_tm)
    n_steps = data.draw(st.one_of(st.integers(0, 4), st.integers(longest + 1, longest + 4)))
    t_end = n_steps * grid.delta
    want_rows, fin = ss.simulate(params, grid, state, t_end=t_end, return_final=True)
    block = data.draw(st.integers(1, 400))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(grids, "ROW_BLOCK_BYTES", block):
        want, got = os.path.join(tmp, "want.bin"), os.path.join(tmp, "got.bin")
        save_snapshot(fin, grid, want)
        rows, digest = ss.simulate(params, grid, state, t_end=t_end, snapshot=got)
        with open(want, "rb") as fh_want, open(got, "rb") as fh_got:
            want_bytes, got_bytes = fh_want.read(), fh_got.read()
    assert got_bytes == want_bytes
    assert digest == hashlib.sha256(got_bytes).hexdigest()
    assert rows == want_rows


def test_streamed_snapshot_builds_no_field(tmp_path):
    # after the run starts, writing its final state allocates less than one
    # recovered-human field (5.8 MB here): no field is rebuilt to be written
    params, grid = fast_params(), fast_grid(0.005)
    init = ss.default_initial(params, grid, 0.01, mode="full", infected_fraction_m=0.01)
    field_bytes = 8 * grid.n_ah * grid.n_eta
    start, after_start = solver._start, []

    def traced_start(*args):
        run = start(*args)
        tracemalloc.reset_peak()
        after_start.append(tracemalloc.get_traced_memory()[0])
        return run

    path = str(tmp_path / "state.bin")
    ss.simulate(params, grid, init, t_end=3 * grid.delta, snapshot=path)   # builds the kernel
    tracemalloc.start()
    try:
        with mock.patch.object(solver, "_start", traced_start):
            _, digest = ss.simulate(params, grid, init, t_end=3 * grid.delta, snapshot=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_start[0] < field_bytes, \
        f"writing the snapshot allocated {(peak - after_start[0]) / 1e6:.1f} MB"
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()


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
