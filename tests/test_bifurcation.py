import dataclasses
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim import bifurcation, grids
from structsim.bifurcation import (bifurcation_constant, build_reduced_kernels,
                                   dk_f, endemic_roots, f_value, h_value, k_bar,
                                   reconstruct_equilibrium, solve_endemic, trace_branch)
from structsim.cli import main
from structsim.config import GRID_KEYS, POPULATION_KEYS, RATE_KEYS
from structsim.kernels import spectral_kernels
from structsim.r0 import lambda0_closed_form, lambda_m_for_target_r0, lambda_m_slope
from structsim.rates import Arity, RateSpec, rate_table
from structsim.solver import _kernel, observe

from conftest import fast_grid, fast_params, make_params
from test_acceptance import _random_assumption3_params

# Adaptive-quadrature references (converged to ~1e-12); the desk-scale grid
# reproduces them to ~0.3%.
EXACT = {
    "forward": dict(c_bif=-1.474557, dkf10=-0.350998, k_bar=4.130361,
                    root_116=0.433562),
    "backward": dict(c_bif=3.942000, dkf10=5.068224, k_bar=4.120110,
                     fold=0.308120, roots_038=(0.496384, 2.271308),
                     root_112=3.571173),
}


@pytest.fixture(scope="module")
def kern_forward(forward):
    return build_reduced_kernels(*forward)


@pytest.fixture(scope="module")
def kern_backward(backward):
    return build_reduced_kernels(*backward)


@pytest.mark.parametrize("name", ["forward", "backward"])
def test_chunked_h_scan_is_the_whole_table_scan(name, request):
    # h_scan is filled a row block of K points at a time; every value is the
    # sum over its own row, so it is h on the whole scan bit for bit
    kern = request.getfixturevalue(f"kern_{name}")
    assert len(grids.row_blocks(len(kern.k_scan), len(kern.xis_m))) > 1
    assert np.array_equal(kern.h_scan, h_value(kern.k_scan, kern))


@pytest.mark.parametrize("rows", [7, 1000])
def test_h_scan_is_the_whole_table_scan_for_any_row_block(rows, kern_backward):
    # rebuilt with blocks of 7 and of 1000 K points (the last one ragged):
    # h_scan does not depend on the block size, bit for bit
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", rows * 8 * len(kern_backward.xis_m)):
        kern = dataclasses.replace(kern_backward)
        assert len(grids.row_blocks(len(kern.k_scan), len(kern.xis_m))) > 1
    assert np.array_equal(kern.h_scan, h_value(kern.k_scan, kern))


def test_f_at_zero_is_identity(kern_forward):
    for r0 in (0.15, 0.83, 1.0, 1.16, 3.7):
        assert f_value(r0, 0.0, kern_forward) == r0      # bit-exact


def test_f_vanishes_at_kbar(kern_forward, kern_backward):
    for kern in (kern_forward, kern_backward):
        assert abs(f_value(1.16, k_bar(kern), kern)) < 1e-12


def test_f_domain_error(kern_forward):
    with pytest.raises(ValueError, match="admissible"):
        f_value(1.0, k_bar(kern_forward) * 1.01, kern_forward)
    with pytest.raises(ValueError, match="admissible"):
        dk_f(1.0, -0.1, kern_forward)


def test_kbar_closed_form_without_recovery_or_disease_death():
    # gamma_h = nu_h = 0 collapses K_bar to the bare mortality
    params = make_params(mu_h=0.5,
                         nu_h=RateSpec.constant(0.0, Arity.AGE_TAU),
                         gamma_h=RateSpec.constant(0.0, Arity.TAU_ONLY))
    grid = ss.Grid(delta=0.01, a_max_h=80.0, a_max_m=1.5, tau_max_h=60.0,
                   tau_max_m=1.5, eta_max=1.0)
    kern = build_reduced_kernels(params, grid)
    # midpoint quadrature bias of the survival mass is (mu*delta)^2/24 ~ 1e-6
    assert k_bar(kern) == pytest.approx(0.5, rel=1e-5)


def test_frozen_values(kern_forward, kern_backward):
    assert bifurcation_constant(kern_forward) == pytest.approx(
        EXACT["forward"]["c_bif"], rel=7e-3)
    assert bifurcation_constant(kern_backward) == pytest.approx(
        EXACT["backward"]["c_bif"], rel=7e-3)
    assert dk_f(1.0, 0.0, kern_forward) == pytest.approx(
        EXACT["forward"]["dkf10"], rel=7e-3)
    assert dk_f(1.0, 0.0, kern_backward) == pytest.approx(
        EXACT["backward"]["dkf10"], rel=7e-3)
    assert k_bar(kern_forward) == pytest.approx(EXACT["forward"]["k_bar"], rel=7e-3)
    assert k_bar(kern_backward) == pytest.approx(EXACT["backward"]["k_bar"], rel=7e-3)


def test_dk_f_matches_central_differences(kern_forward, kern_backward):
    rng = np.random.default_rng(11)
    for kern in (kern_forward, kern_backward):
        kb = k_bar(kern)
        h = 1e-6 * kb
        for _ in range(50):
            r0 = rng.uniform(0.05, 3.0)
            k = rng.uniform(2 * h, kb - 2 * h)
            fd = (f_value(r0, k + h, kern) - f_value(r0, k - h, kern)) / (2 * h)
            assert dk_f(r0, k, kern) == pytest.approx(fd, rel=1e-6)


def test_negative_disease_mortality_margin_forces_decrease(kern_forward):
    # when nu_h <= mu_h everywhere the derivative is negative on the whole
    # admissible strip (unique endemic state above threshold)
    params = make_params(mu_h=0.2, nu_h=RateSpec.constant(0.05, Arity.AGE_TAU))
    grid = ss.Grid(delta=0.01, a_max_h=60.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    kern = build_reduced_kernels(params, grid)
    kb = k_bar(kern)
    for r0 in (0.3, 1.0, 2.5):
        for k in np.linspace(0, kb * 0.999, 25):
            assert dk_f(r0, k, kern) < 0


def test_root_multiplicities(kern_forward, kern_backward):
    assert solve_endemic(0.83, kern_forward) == []
    roots = solve_endemic(1.16, kern_forward)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(EXACT["forward"]["root_116"], rel=7e-3)

    assert solve_endemic(0.15, kern_backward) == []
    two = solve_endemic(0.38, kern_backward)
    assert len(two) == 2
    assert two[0] == pytest.approx(EXACT["backward"]["roots_038"][0], rel=7e-3)
    assert two[1] == pytest.approx(EXACT["backward"]["roots_038"][1], rel=7e-3)
    one = solve_endemic(1.12, kern_backward)
    assert len(one) == 1
    assert one[0] == pytest.approx(EXACT["backward"]["root_112"], rel=7e-3)


def test_root_exists_at_threshold_when_backward(kern_backward):
    assert len(solve_endemic(1.0, kern_backward)) >= 1


def test_roots_continuous_along_branch(kern_backward):
    prev = None
    for r0 in np.linspace(0.45, 1.4, 40):
        roots = solve_endemic(r0, kern_backward)
        top = roots[-1]
        if prev is not None:
            assert abs(top - prev) < 0.15
        prev = top


@functools.lru_cache(maxsize=1)
def _backward_kernels():
    return build_reduced_kernels(ss.preset("backward", 7.4e7),
                                 ss.preset_grid("backward"))


@given(r0=st.floats(1.01, 6.0))
@settings(max_examples=25, deadline=None)
def test_at_least_one_root_above_threshold(r0):
    assert len(solve_endemic(r0, _backward_kernels())) >= 1


@given(r0=st.floats(0.05, 6.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_h_table_factors_f(r0, fractions):
    kern = _backward_kernels()
    ks = np.array(fractions) * k_bar(kern)
    hs = h_value(ks, kern)
    assert hs.shape == ks.shape
    for k, h in zip(ks, hs):
        assert h == pytest.approx(f_value(r0, k, kern) / r0, rel=1e-15, abs=0.0)
    assert f_value(r0, 0.0, kern) == r0                  # bit-exact
    for root in solve_endemic(r0, kern):
        assert abs(f_value(r0, root, kern) - 1.0) <= 1e-9


def test_trace_branch_forward(forward):
    params, grid = forward
    br = trace_branch(params, grid, 5e6, 1e7, 40)
    assert br.classification == "forward"
    assert br.fold_r0_star is None
    for pt in br.points:
        assert len(pt.roots) == (1 if pt.r0 > 1 else 0)


def test_trace_branch_backward_fold(backward):
    params, grid = backward
    br = trace_branch(params, grid, 5e6, 1e8, 120)
    assert br.classification == "backward"
    assert br.fold_r0_star == pytest.approx(EXACT["backward"]["fold"], abs=2e-3)
    # the fold is the first refined sub-point carrying a root: within three
    # 16-fold refinements of a sweep step above the table's 1/max h
    step = br.points[1].lambda_m - br.points[0].lambda_m
    gap = br.fold_r0_star - 1.0 / np.max(build_reduced_kernels(params, grid).h_scan)
    assert 0.0 <= gap <= lambda_m_slope(params, grid) * step / 16 ** 3
    below = [pt for pt in br.points if pt.r0 < br.fold_r0_star - 0.01]
    assert all(not pt.roots for pt in below)


def _searched_fold(params, grid, lambda_m_min, lambda_m_max, n_points):
    """The fold as a search by root solving finds it: the first sweep point
    carrying a root, if it lies below R0 = 1, with its bracket (from 0 when
    it is the first sweep point) refined three times on 17 sub-points, each
    sub-point solved."""
    kernels = build_reduced_kernels(params, grid)
    slope = lambda_m_slope(params, grid)
    lams = np.linspace(lambda_m_min, lambda_m_max, n_points)
    first = next((i for i, lm in enumerate(lams) if solve_endemic(slope * lm, kernels)), None)
    if first is None or not float(slope * lams[first]) < 1.0:
        return None
    lo = lams[first - 1] if first > 0 else 0.0
    hi = lams[first]
    for _ in range(3):
        sub = np.linspace(lo, hi, 17)
        idx = next((i for i, lm in enumerate(sub) if solve_endemic(slope * lm, kernels)),
                   None)
        if idx is None:
            break
        hi = sub[idx]
        lo = sub[idx - 1] if idx > 0 else lo
    return float(slope * hi)


@pytest.mark.parametrize("sweep", [(5e6, 1e8, 120), (1e6, 1e8, 200), (9.1e5, 1.13e8, 80),
                                   (1.2e6, 8.4e7, 80), (5e6, 3e7, 37), (1e6, 2e7, 13),
                                   (1e6, 1e8, 7), (3e6, 9e6, 50)])
@pytest.mark.parametrize("name", ["backward", "forward"])
def test_fold_rule_is_the_searched_fold(name, sweep, request):
    # r0 * max(h_scan) >= 1 marks the sub-points that carry a root, so the
    # refinement lands on the fold the solving search lands on, bit for bit
    params, grid = request.getfixturevalue(name)
    br = trace_branch(params, grid, *sweep)
    assert br.fold_r0_star == _searched_fold(params, grid, *sweep)
    if name == "forward" or sweep == (3e6, 9e6, 50):     # no root below R0 = 1 swept
        assert br.fold_r0_star is None
    else:
        assert br.fold_r0_star is not None


def test_fold_below_a_sweep_that_starts_inside_the_bistable_window():
    # the first sweep point already carries roots below R0 = 1, so the fold
    # lies below the sweep: its bracket runs from 0 to the first point
    params, grid = ss.preset("backward", 7.4e7), ss.preset_grid("backward", 0.01)
    slope = lambda_m_slope(params, grid)
    lo, hi = 0.5 / slope, 1.2 / slope
    br = trace_branch(params, grid, lo, hi, 20)
    assert br.points[0].roots and br.points[0].r0 < 1.0
    gap = br.fold_r0_star - 1.0 / np.max(build_reduced_kernels(params, grid).h_scan)
    assert 0.0 <= gap <= min(1e-3, br.points[0].r0 / 16 ** 3)
    assert br.fold_r0_star == _searched_fold(params, grid, lo, hi, 20)


def test_trace_branch_solves_each_sweep_point_once(backward):
    # one endemic_roots call carries the sweep's 80 threshold values, each once
    params, grid = backward
    with mock.patch.object(bifurcation, "endemic_roots", wraps=endemic_roots) as roots, \
            mock.patch.object(bifurcation, "solve_endemic", wraps=solve_endemic) as solve:
        br = trace_branch(params, grid, 1e6, 1e8, 80)
    assert br.fold_r0_star is not None
    assert roots.call_count == 1 and solve.call_count == 0
    assert list(roots.call_args.args[0]) == [pt.r0 for pt in br.points]


def test_trace_branch_forms_no_sweep_sized_table(backward):
    # a (points x scan) table of r0 * h - 1 at 2 000 points would be 31 MiB;
    # the sweep peaks below 1 MiB beyond the points it returns
    params, grid = backward
    build_reduced_kernels(params, grid)
    lambda_m_slope(params, grid)
    tracemalloc.start()
    try:
        br = trace_branch(params, grid, 1e6, 1e8, 2000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(br.points) == 2000 and br.fold_r0_star is not None
    assert peak - held < 1 << 20


def _scalar_roots(r0, kernels):
    """The roots of f(r0, K) = 1 as a bisection of one bracket at a time
    finds them: the sign changes of r0 * h - 1 on the scan table, each
    halved on f until f vanishes or the bracket is below 1e-12 K_bar."""
    kb = k_bar(kernels)
    ks = kernels.k_scan
    with np.errstate(over="ignore"):                # products of large r0 * h - 1
        vals = r0 * kernels.h_scan - 1.0
        roots = [float(k) for k in ks[vals == 0.0]]
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
            a, b, fa = ks[i], ks[i + 1], vals[i]
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = f_value(r0, m, kernels) - 1.0
                if fm == 0.0 or (b - a) < 1e-12 * kb:
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(float(0.5 * (a + b)))
    return sorted(r for r in roots if r > 1e-12 * kb)


@functools.lru_cache(maxsize=None)
def _oracle_kernels(which):
    """The reduced kernels of a preset, or of criterion 10's disagreeing draws."""
    if which in ("forward", "backward"):
        return build_reduced_kernels(ss.preset(which, 7e6), ss.preset_grid(which))
    grid, draws = _disagreeing_draws()
    return build_reduced_kernels(draws[int(which[-1])], grid)


def _first_midpoints(kern):
    """The first bisection midpoint of every scan cell."""
    return 0.5 * (kern.k_scan[:-1] + kern.k_scan[1:])


def _threshold_values(kern):
    """r0 draws: 0, a spread, exact scan hits 1/h_scan[i], hits at a first
    midpoint 1/h(m), the fold 1/max h and its neighbours, and 1e290."""
    positive = kern.h_scan[kern.h_scan > 0.0]
    h_mid = h_value(_first_midpoints(kern), kern)
    fold = 1.0 / float(np.max(kern.h_scan))
    return st.one_of(
        st.just(0.0), st.just(1e290), st.floats(0.0, 6.0),
        st.sampled_from(positive).map(lambda h: 1.0 / float(h)),
        st.sampled_from(h_mid[h_mid > 0.0]).map(lambda h: 1.0 / float(h)),
        st.floats(fold * (1 - 1e-3), fold * (1 + 1e-3)),
        st.sampled_from([np.nextafter(fold, 0.0), fold, np.nextafter(fold, 2.0)]))


@given(which=st.sampled_from(["forward", "backward", *(f"draw{i}" for i in range(5))]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_lane_roots_are_the_one_bracket_bisection_roots(which, data):
    kern = _oracle_kernels(which)
    r0s = data.draw(st.lists(_threshold_values(kern), max_size=12))
    got = endemic_roots(np.array(r0s, dtype=float), kern)
    assert got == [_scalar_roots(r0, kern) for r0 in r0s]     # bit for bit
    for r0, roots in zip(r0s, got):
        # f moves by r0 * |h'| * 1e-12 K_bar across the last bracket, so a
        # root resolves f to 1e-9 only for bounded r0
        if r0 <= 100.0:
            assert all(abs(f_value(r0, k, kern) - 1.0) <= 1e-9 for k in roots)


@pytest.mark.parametrize("which", ["forward", "backward"])
def test_lane_roots_at_exact_scan_and_midpoint_hits(which):
    # r0 = 1/h_scan[i] makes r0 * h - 1 vanish on the scan, and r0 = 1/h(m)
    # makes f - 1 vanish at the first midpoint m of a bracket, for most
    # cells: that scan point or midpoint is the root, while other lanes of
    # the same call still bisect
    kern = _oracle_kernels(which)
    for ks, hs in ((kern.k_scan, kern.h_scan), (_first_midpoints(kern), None)):
        ks = ks[1:-1:16]
        hs = h_value(ks, kern) if hs is None else hs[1:-1:16]
        ks, r0s = ks[hs > 0.0], 1.0 / hs[hs > 0.0]
        got = endemic_roots(r0s, kern)
        assert got == [_scalar_roots(r0, kern) for r0 in r0s]
        assert sum(float(k) in roots for k, roots in zip(ks, got)) > len(r0s) // 2
    assert endemic_roots([], kern) == [] and endemic_roots(np.zeros(0), kern) == []
    assert endemic_roots([0.0, 0.0], kern) == [[], []]


@pytest.mark.parametrize("which", ["forward", "backward"])
def test_h_vanishes_exactly_at_k_bar(which):
    # 1 - K_bar * recovered_weight rounds to an ulp above 0 on backward; h is
    # exactly 0 from K_bar on, so r0 * h - 1 ends the scan negative for any
    # r0 and a huge r0 still finds its root next to K_bar
    kern = _oracle_kernels(which)
    kb = k_bar(kern)
    assert kern.k_scan[-1] == kb and kern.h_scan[-1] == 0.0
    assert h_value(kb, kern) == 0.0 and h_value(0.0, kern) == 1.0
    for roots in endemic_roots([1e15, 1e16, 1e290], kern):
        assert len(roots) == 1 and kb - roots[0] <= 1e-12 * kb


# c_bif - h'(0) on the presets at lambda_m = 7e6
RECOVERED_POOL_GAP = {"forward": -1.12184, "backward": -1.12451}


@pytest.mark.parametrize("which", ["forward", "backward", *(f"draw{i}" for i in range(5))])
def test_c_bif_and_h_prime_differ_only_in_the_recovered_pool_term(which):
    # both read the reduced kernels' integrals and share the kernel-lag term
    # and int(nu_h c1)/mu_h - int c1; h'(0) carries the recovered pool as
    # int(gamma_h c1) times the immunity integral, c_bif as the one integral
    # of gamma_h against the immunity survival, and on the five disagreeing
    # draws of criterion 10 that gap outweighs h'(0)
    kern = _oracle_kernels(which)
    gap = bifurcation_constant(kern) - float(dk_f(1.0, 0.0, kern))
    assert gap == pytest.approx(kern.int_gamma_c1 * kern.immunity_integral
                                - kern.int_gamma_imm, rel=1e-12)
    if which in RECOVERED_POOL_GAP:
        assert gap == pytest.approx(RECOVERED_POOL_GAP[which], abs=5e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lane_roots_refuse_a_threshold_that_is_not_finite(bad, kern_backward):
    with pytest.raises(ValueError, match="r0 must be finite"):
        endemic_roots([1.0, bad], kern_backward)
    with pytest.raises(ValueError, match="r0 must be finite"):
        solve_endemic(bad, kern_backward)
    with pytest.raises(ValueError, match="r0 must be >= 0"):
        endemic_roots([1.0, -0.5], kern_backward)


@functools.lru_cache(maxsize=1)
def _disagreeing_draws():
    """Criterion 10's draws, on its grid, where sign(c_bif) != sign(h'(0))."""
    rng = np.random.default_rng(20260808)
    grid = ss.Grid(delta=0.01, a_max_h=60.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    draws, checked = [], 0
    while checked < 20:
        params = _random_assumption3_params(rng)
        kern = build_reduced_kernels(params, grid)
        cb = bifurcation_constant(kern)
        if abs(cb) < 0.25:
            continue
        checked += 1
        if np.sign(cb) != np.sign(dk_f(1.0, 0.0, kern)):
            draws.append(params)
    return grid, draws


def _config_text(params, grid) -> str:
    """A config document for ``params`` on ``grid``."""
    lines = ["[population]", *(f"{k} = {getattr(params, k)!r}" for k in POPULATION_KEYS),
             "[rates]"]
    for name in RATE_KEYS:
        spec = getattr(params, name)
        lines.append(f"{name} = {spec.kind.value}({', '.join(map(repr, spec.params))})")
    lines += ["[grid]", *(f"{k} = {getattr(grid, k)!r}" for k in GRID_KEYS)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("draw", range(5))
def test_branch_follows_h_where_c_bif_disagrees(draw, tmp_path, capsys):
    # c_bif < 0 < h'(0) on these draws: roots exist below R0 = 1, so the
    # branch is backward and its fold sits just above the table's 1/max h
    grid, draws = _disagreeing_draws()
    assert len(draws) == 5
    params = draws[draw]
    kern = build_reduced_kernels(params, grid)
    slope = lambda_m_slope(params, grid)
    lo, hi = 0.3 / slope, 1.2 / slope
    br = trace_branch(params, grid, lo, hi, 200)
    below = any(pt.roots for pt in br.points if pt.r0 < 1.0)
    assert below and br.classification == "backward"
    step = br.points[1].lambda_m - br.points[0].lambda_m
    gap = br.fold_r0_star - 1.0 / np.max(kern.h_scan)
    assert 0.0 <= gap <= slope * step / 16 ** 3
    for n_points in (200, 80):
        assert trace_branch(params, grid, lo, hi, n_points).fold_r0_star \
            == _searched_fold(params, grid, lo, hi, n_points)

    path = tmp_path / "draw.cfg"
    path.write_text(_config_text(params, grid))
    out = tmp_path / "branch.csv"
    assert main(["bifurcate", "--config", str(path), "--lambda-m-min", repr(lo),
                 "--lambda-m-max", repr(hi), "--points", "20", "--out", str(out),
                 "--quiet"]) == 0
    assert open(out).readline() == "# classification=backward\n"
    note = (f"note: c_bif = {bifurcation_constant(kern):.4f} and h'(0) = dk_f(1, 0) = "
            f"{dk_f(1.0, 0.0, kern):.4f} differ in sign; the branch direction follows h'(0)")
    assert capsys.readouterr().err.splitlines() == [note]
    assert main(["report", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert "direction                   backward" in captured.out
    assert captured.err.splitlines() == [note]


def test_reconstruction_small_root_approaches_dfe(forward):
    params, grid = forward
    kern = build_reduced_kernels(params, grid)
    state, n_star = reconstruct_equilibrium(1e-9, params, grid)
    assert n_star == pytest.approx(params.lambda_h / 0.022, rel=1e-6)
    assert float(np.sum(state.i_h)) * grid.delta < 1e-6 * n_star
    assert state.s_h == pytest.approx(n_star, rel=1e-6)


def test_reconstruction_mass_closure(backward):
    params, grid = backward
    kern = build_reduced_kernels(params, grid)
    k = solve_endemic(lambda0_closed_form(params, grid), kern)[0]
    state, n_star = reconstruct_equilibrium(k, params, grid)
    total = state.s_h + float(np.sum(state.i_h) + np.sum(state.r_h)) * grid.delta
    assert total == pytest.approx(n_star, rel=1e-12)
    with pytest.raises(ValueError):
        reconstruct_equilibrium(0.0, params, grid)


def test_reconstructed_equilibrium_is_nearly_stationary(forward):
    params, grid = forward
    lam = lambda_m_for_target_r0(params, grid, 1.16)
    tuned = params.with_lambda_m(lam)
    kern = build_reduced_kernels(tuned, grid)
    k = solve_endemic(1.16, kern)[0]
    state, _ = reconstruct_equilibrium(k, tuned, grid)
    ref = observe(state, tuned, grid)
    rows = ss.simulate(tuned, grid, state, t_end=10.0, output_every=500)
    for r in rows:
        assert abs(r.total_i_h / ref.total_i_h - 1) < 0.01
        assert abs(r.n_h / ref.n_h - 1) < 0.01


def _resummed_c_bif(kern, params, grid) -> tuple[float, float]:
    """The threshold constant with its third term re-summed from the sampled
    profile c1 * (nu_h / mu_h - 1), and the summed magnitudes of its terms."""
    nu_tau = rate_table(params.nu_h, 0.0, grid.taus_h)
    term1 = -kern.c2 * kern.age_lag_mass / kern.mosquito_kernel_mass
    term2 = -kern.int_gamma_imm
    term3 = float(np.sum(kern.c1 * (nu_tau / kern.mu_h - 1.0))) * grid.delta
    scale = abs(term1) + abs(term2) + kern.int_nu_c1 / kern.mu_h + kern.int_c1
    return term1 + term2 + term3, scale


def _resummed_human_fields(k_root, kern, params, grid):
    """The human fields of the equilibrium at K = ``k_root`` and N_h*,
    re-summed from the sampled profiles nu_h c1, gamma_h c1, c1 and the
    recovered density."""
    d = grid.delta
    gamma_tau = rate_table(params.gamma_h, 0.0, grid.taus_h)
    nu_tau = rate_table(params.nu_h, 0.0, grid.taus_h)
    i_norm = k_root * kern.c1
    n_star = params.lambda_h / (kern.mu_h + float(np.sum(nu_tau * i_norm)) * d)
    r_norm = float(np.sum(gamma_tau * i_norm)) * d * kern.immunity_decay
    s_norm = 1.0 - float(np.sum(i_norm)) * d - float(np.sum(r_norm)) * d
    return s_norm * n_star, i_norm * n_star, r_norm * n_star, n_star


def _assert_scalars_are_the_resummed_profiles(params, grid, fractions):
    kern = build_reduced_kernels(params, grid)
    want, scale = _resummed_c_bif(kern, params, grid)
    assert abs(bifurcation_constant(kern) - want) <= 1e-13 * scale
    for fraction in fractions:
        k = fraction * k_bar(kern)
        state, n_star = reconstruct_equilibrium(k, params, grid)
        s_h, i_h, r_h, n_want = _resummed_human_fields(k, kern, params, grid)
        assert n_star == pytest.approx(n_want, rel=1e-13, abs=0.0)
        assert state.s_h == pytest.approx(s_h, rel=1e-13, abs=0.0)
        np.testing.assert_allclose(state.i_h, i_h, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(state.r_h, r_h, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("which", ["forward", "backward", *(f"draw{i}" for i in range(5))])
def test_scalars_are_the_resummed_profiles(which):
    # c_bif and the equilibrium read int(nu_h c1), int(gamma_h c1) and the
    # recovered weight; they equal the sums over the sampled profiles
    if which in ("forward", "backward"):
        params, grid = ss.preset(which, 7e6), ss.preset_grid(which)
    else:
        grid, draws = _disagreeing_draws()
        params = draws[int(which[-1])]
    _assert_scalars_are_the_resummed_profiles(params, grid, (1e-9, 0.05, 0.3, 0.6, 0.9))


# no subnormal draw: two summation orders of a subnormal profile differ far
# above the relative tolerance of the comparison
@given(mu_h=st.floats(0.1, 2.0), nu_h=st.floats(0.0, 1.5, allow_subnormal=False),
       gamma_h=st.floats(0.0, 5.0, allow_subnormal=False),
       gamma_start=st.floats(0.0, 1.5, allow_subnormal=False),
       k_h=st.floats(0.0, 4.0, allow_subnormal=False),
       beta_center=st.floats(0.0, 2.0, allow_subnormal=False), fraction=st.floats(0.001, 0.95))
@settings(max_examples=30, deadline=None)
def test_scalars_are_the_resummed_profiles_on_small_grids(mu_h, nu_h, gamma_h, gamma_start,
                                                          k_h, beta_center, fraction):
    params = fast_params(mu_h=RateSpec.constant(mu_h, Arity.AGE),
                         nu_h=RateSpec.constant(nu_h, Arity.AGE_TAU),
                         gamma_h=RateSpec.piecewise(gamma_start, 0.0, gamma_h, Arity.TAU_ONLY),
                         k_h=RateSpec.piecewise(0.5, 0.0, k_h, Arity.ETA_ONLY),
                         beta_h=RateSpec.gauss(0.2, beta_center, 0.3, Arity.TAU_ONLY))
    _assert_scalars_are_the_resummed_profiles(params, fast_grid(0.05), (fraction,))


# ---------------------------------------------------------------------------
# constant rate samples


def _arrays(obj) -> list:
    """The values of a kernel table dict or kernels dataclass, in field order."""
    if isinstance(obj, dict):
        return [obj[key] for key in sorted(obj)]
    if dataclasses.is_dataclass(obj):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return [obj]


@pytest.mark.parametrize("mu_h", [RateSpec.constant(0.8, Arity.AGE),
                                  RateSpec.table([0.0, 6.0], [0.8, 1.1], Arity.AGE)],
                         ids=["eligible", "general"])
def test_constant_samples_build_the_tables_of_flat_rates(mu_h):
    # a constant rate is sampled as one float; every consumer must build the
    # same tables from it as from the same value read cell by cell on its axis
    consts = {"nu_h": RateSpec.constant(0.3, Arity.AGE_TAU),
              "gamma_h": RateSpec.constant(1.5, Arity.TAU_ONLY),
              "k_h": RateSpec.constant(0.7, Arity.ETA_ONLY),
              "beta_h": RateSpec.constant(0.2, Arity.AGE_TAU)}
    flat = {name: RateSpec.piecewise(0.0, spec.params[0], spec.params[0], spec.arity)
            for name, spec in consts.items()}
    grid = fast_grid(0.05)

    def tables(rates):
        params = fast_params(mu_h=mu_h, **rates)
        out = [str(ss.validate(params, grid)), params.epsilon_floor(grid),
               spectral_kernels(params, grid), _kernel(params, grid, "full")]
        if params.reduced_mode_eligible:
            kern = build_reduced_kernels(params, grid)
            out += [_kernel(params, grid, "reduced"), kern,
                    *reconstruct_equilibrium(solve_endemic(1.5, kern)[0], params, grid)]
        return [v for obj in out for v in _arrays(obj)]

    got, expect = tables(consts), tables(flat)
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert (g is None and e is None) or np.array_equal(g, e)
