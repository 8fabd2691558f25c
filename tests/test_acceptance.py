"""Acceptance gate: one test per criterion, at its stated tolerance.

Each check prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear for failing tests).  Three sub-criteria encode
reference windows that the exact closed-form definitions do not reproduce
(see README, "Known red acceptance checks"); they are kept as honest
failures rather than loosened.
"""

import math
import time

import numpy as np
import pytest

import structsim as ss
from structsim.bifurcation import (bifurcation_constant, build_reduced_kernels,
                                   dk_f, endemic_seed, f_value, reconstruct_equilibrium,
                                   solve_endemic, trace_branch)
from structsim.characteristics import dominant_growth_rate, g_of_lambda, \
    volterra_decoupled
from structsim.r0 import (lambda0_closed_form, lambda_m_for_target_r0,
                          power_iteration_r0, r0_reduced)
from structsim.rates import Arity, RateSpec
from structsim.solver import n_human, observe

from conftest import fast_grid, fast_params, make_params, random_full_state


def criterion(number: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1: bifurcation constant -------------------------------------------------


def test_criterion_01_bifurcation_constant_forward(forward):
    t0 = time.time()
    cb = bifurcation_constant(build_reduced_kernels(*forward))
    dt = time.time() - t0
    ok = -1.41 <= cb <= -1.27 and dt < 1.0
    criterion("1 forward", ok,
              f"c_bif = {cb:.4f}, window [-1.41, -1.27], {dt:.2f}s")


def test_criterion_01_bifurcation_constant_backward(backward):
    t0 = time.time()
    cb = bifurcation_constant(build_reduced_kernels(*backward))
    dt = time.time() - t0
    ok = 3.8 <= cb <= 4.2 and dt < 1.0
    criterion("1 backward", ok, f"c_bif = {cb:.4f}, window [3.8, 4.2], {dt:.2f}s")


# -- 2: threshold values over recruitment ------------------------------------

WINDOWS = [("forward", 7e6, 1.16, 0.03), ("forward", 5e6, 0.83, 0.03),
           ("backward", 7.4e7, 1.12, 0.03), ("backward", 1e7, 0.15, 0.01),
           ("backward", 2.5e7, 0.38, 0.02)]


def test_criterion_02_r0_absolute_windows(forward, backward):
    t0 = time.time()
    rows = []
    ok = True
    for name, lam, center, width in WINDOWS:
        params, grid = forward if name == "forward" else backward
        val = lambda0_closed_form(params.with_lambda_m(lam), grid)
        inside = center - width <= val <= center + width
        ok &= inside
        rows.append(f"{name}@{lam:g}: {val:.4f} vs {center}+-{width}"
                    f"{'' if inside else ' <-'}")
    dt = time.time() - t0
    criterion("2 absolute", ok and dt < 1.0, "; ".join(rows) + f" ({dt:.2f}s)")


def test_criterion_02_r0_exact_ratios(forward, backward):
    pf, gf = forward
    r_7 = lambda0_closed_form(pf.with_lambda_m(7e6), gf)
    r_5 = lambda0_closed_form(pf.with_lambda_m(5e6), gf)
    pb, gb = backward
    r_25 = lambda0_closed_form(pb.with_lambda_m(2.5e7), gb)
    r_10 = lambda0_closed_form(pb.with_lambda_m(1e7), gb)
    ok = abs(r_7 / r_5 - 1.4) <= 1e-12 and abs(r_25 / r_10 - 2.5) <= 1e-12
    criterion("2 ratios", ok,
              f"R0(7e6)/R0(5e6) = {r_7 / r_5:.15f}, "
              f"R0(2.5e7)/R0(1e7) = {r_25 / r_10:.15f}")


# -- 3: cross-method agreement ------------------------------------------------


def test_criterion_03_cross_method_agreement(forward, backward):
    worst = 0.0
    for params, grid in (forward, backward):
        rep = power_iteration_r0(params, grid)
        vals = [rep.r0_squared_closed_form, rep.r0_squared_power_iter,
                r0_reduced(params, grid), g_of_lambda(params, grid, 0.0)]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, abs(vals[i] - vals[j]) / vals[0])
    criterion("3", worst <= 1e-8, f"worst pairwise relative spread = {worst:.2e}")


# -- 4: fold point -------------------------------------------------------------


def test_criterion_04_fold_point(forward, backward):
    t0 = time.time()
    br = trace_branch(*backward, 5e6, 1e8, 200)
    dt = time.time() - t0
    ok = (br.classification == "backward" and br.fold_r0_star is not None
          and 0.27 <= br.fold_r0_star <= 0.31 and dt < 30.0)
    br_f = trace_branch(*forward, 5e6, 1e7, 50)
    ok &= br_f.classification == "forward" and br_f.fold_r0_star is None
    criterion("4", ok, f"backward R0* = {br.fold_r0_star:.4f} (window 0.29+-0.02, "
                       f"{dt:.1f}s); forward: {br_f.classification}, fold "
                       f"{br_f.fold_r0_star}")


# -- 5: root multiplicities -----------------------------------------------------


def test_criterion_05_root_multiplicity(forward, backward):
    kern_b = build_reduced_kernels(*backward)
    kern_f = build_reduced_kernels(*forward)
    counts = {
        "backward@0.15": len(solve_endemic(0.15, kern_b)),
        "backward@0.38": len(solve_endemic(0.38, kern_b)),
        "backward@1.12": len(solve_endemic(1.12, kern_b)),
        "forward@0.83": len(solve_endemic(0.83, kern_f)),
        "forward@1.16": len(solve_endemic(1.16, kern_f)),
    }
    expect = {"backward@0.15": 0, "backward@0.38": 2, "backward@1.12": 1,
              "forward@0.83": 0, "forward@1.16": 1}
    criterion("5", counts == expect, f"{counts}")


# -- 6: closed-form transport oracle -------------------------------------------


def test_criterion_06_oracle_equivalence():
    params = fast_params(beta_h=RateSpec.constant(0.0, Arity.AGE_TAU),
                         beta_m=RateSpec.constant(0.0, Arity.AGE_TAU))
    grid = fast_grid(0.01)
    worst = 0.0
    for seed in (11, 22, 33):
        init = random_full_state(params, grid, seed=seed)
        rows, fin = ss.simulate(params, grid, init, t_end=0.5, return_final=True)
        oracle = volterra_decoupled(params, grid, init, 0.5)
        for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
            a = np.atleast_1d(np.asarray(getattr(fin, name)))
            b = np.atleast_1d(np.asarray(getattr(oracle, name)))
            worst = max(worst, float(np.sum(np.abs(a - b)) / np.sum(np.abs(b))))
    criterion("6", worst <= 1e-10, f"worst relative L1 across 3 seeds = {worst:.2e}")


# -- 7: linear growth-rate consistency ------------------------------------------


def test_criterion_07_growth_rate(forward):
    params, grid = forward
    lam_star = dominant_growth_rate(params, grid).lambda_star
    st = ss.default_initial(params, grid, 1e-6, mode="reduced")
    rows = ss.simulate(params, grid, st, t_end=3.0, output_every=20)
    ts = np.array([r.t for r in rows])
    im = np.array([r.total_i_m for r in rows])
    sel = (ts >= 1.25) & (ts <= 2.75)
    fitted = float(np.polyfit(ts[sel], np.log(im[sel]), 1)[0])
    rel = abs(fitted - lam_star) / lam_star
    criterion("7", rel <= 0.05,
              f"lambda* = {lam_star:.4f}, fitted = {fitted:.4f}, rel = {rel:.3f}")


# -- 8: dynamical reproduction ---------------------------------------------------


def test_criterion_08_forward_supercritical_endemic_level(forward):
    params, grid = forward                        # threshold value 1.293 > 1
    kern = build_reduced_kernels(params, grid)
    r0 = lambda0_closed_form(params, grid)
    root = solve_endemic(r0, kern)[0]
    eq_state, _ = reconstruct_equilibrium(root, params, grid)
    eq = observe(eq_state, params, grid)
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    t0 = time.time()
    # the population mode relaxes on the 1/mu_h scale; t = 450 leaves the
    # transient three orders below the tolerance
    rows = ss.simulate(params, grid, st, t_end=450.0, output_every=10000)
    dt = time.time() - t0
    rel = abs(rows[-1].total_i_h / eq.total_i_h - 1)
    criterion("8 forward supercritical", rel <= 0.01 and dt <= 120.0,
              f"total_i_h within {rel:.4f} of the reconstructed level "
              f"({dt:.0f}s for t=450)")


def test_criterion_08_forward_subcritical_extinction(forward):
    params, grid = forward
    sub = params.with_lambda_m(5e6)               # threshold value 0.923 < 1
    st = ss.default_initial(sub, grid, 0.01, mode="reduced")
    t0 = time.time()
    rows = ss.simulate(sub, grid, st, t_end=50.0, output_every=2000)
    dt = time.time() - t0
    frac = rows[-1].total_i_h / rows[-1].n_h
    criterion("8 forward subcritical", frac < 1e-6 and dt <= 120.0,
              f"infected fraction at t=50 is {frac:.2e} ({dt:.0f}s)")


def test_criterion_08_backward_bistability(backward):
    params, grid = backward
    lam = lambda_m_for_target_r0(params, grid, 0.38)
    tuned = params.with_lambda_m(lam)
    kern = build_reduced_kernels(tuned, grid)
    roots = solve_endemic(0.38, kern)
    upper, _ = reconstruct_equilibrium(roots[-1], tuned, grid)
    eq = observe(upper, tuned, grid)

    big = endemic_seed(upper, grid)               # large seed
    t0 = time.time()
    rows_big = ss.simulate(tuned, grid, big, t_end=150.0, output_every=5000)
    dt1 = time.time() - t0
    rel = abs(rows_big[-1].total_i_h / eq.total_i_h - 1)

    small = ss.default_initial(tuned, grid, 1e-4, mode="reduced",
                               infected_fraction_m=1e-4)
    t0 = time.time()
    rows_small = ss.simulate(tuned, grid, small, t_end=60.0, output_every=3000)
    dt2 = time.time() - t0
    frac = rows_small[-1].total_i_h / rows_small[-1].n_h
    ok = rel <= 0.02 and frac < 1e-6 and dt1 <= 120.0 and dt2 <= 120.0
    criterion("8 backward bistability", ok,
              f"large seed -> endemic within {rel:.4f}; small seed -> "
              f"infected fraction {frac:.2e} ({dt1:.0f}s + {dt2:.0f}s)")


# -- 9: invariant suite -----------------------------------------------------------


def test_criterion_09_positivity_ten_thousand_steps(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    state = st
    worst = 0.0
    for chunk in range(20):                      # 20 x 500 = 10^4 steps
        rows, state = ss.simulate(params, grid, state, t_end=2.5,
                                  output_every=100, return_final=True)
        worst = min(worst, float(state.s_h), float(np.min(state.i_h)),
                    float(np.min(state.r_h)), float(np.min(state.s_m)),
                    float(np.min(state.i_m)))
    criterion("9 positivity", worst >= 0.0,
              f"minimum field value over 10^4 steps = {worst:.3e}")


def test_criterion_09_gronwall_sandwich(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.05, mode="reduced")
    rows = ss.simulate(params, grid, st, t_end=5.0, output_every=100)
    n_h0, n_m0 = rows[0].n_h, rows[0].n_m
    mu0, sup_h, sup_m = 0.022, 0.122, 45.0
    tol_h = 3 * grid.delta * params.lambda_h
    tol_m = 3 * grid.delta * params.lambda_m
    ok = True
    for r in rows:
        ok &= r.n_h <= n_h0 * math.exp(-mu0 * r.t) \
            + params.lambda_h / mu0 * (1 - math.exp(-mu0 * r.t)) + tol_h
        ok &= r.n_h >= n_h0 * math.exp(-sup_h * r.t) \
            + params.lambda_h / sup_h * (1 - math.exp(-sup_h * r.t)) - tol_h
        ok &= r.n_m <= n_m0 * math.exp(-mu0 * r.t) \
            + params.lambda_m / mu0 * (1 - math.exp(-mu0 * r.t)) + tol_m
        ok &= r.n_m >= n_m0 * math.exp(-sup_m * r.t) \
            + params.lambda_m / sup_m * (1 - math.exp(-sup_m * r.t)) - tol_m
    criterion("9 gronwall", ok, f"two-sided bounds hold at {len(rows)} sample times")


def test_criterion_09_asymptotic_bounds():
    params = fast_params()
    grid = fast_grid(0.02)
    mu0 = 0.8
    init = random_full_state(params, grid, seed=9)
    for f in ("s_h", "i_h", "r_h", "s_m", "i_m"):   # start far above the bounds
        setattr(init, f, getattr(init, f) * 40.0)
    rows, fin = ss.simulate(params, grid, init, t_end=20.0 / mu0,
                            output_every=250, return_final=True)
    d = grid.delta
    masses = {
        "s_h": np.sum(fin.s_h) * d, "i_h": np.sum(fin.i_h) * d * d,
        "r_h": np.sum(fin.r_h) * d * d, "s_m": np.sum(fin.s_m) * d,
        "i_m": np.sum(fin.i_m) * d * d,
    }
    bound_h = params.lambda_h / mu0 * 1.01
    bound_m = params.lambda_m / mu0 * 1.01
    ok = all(masses[f] <= bound_h for f in ("s_h", "i_h", "r_h")) \
        and all(masses[f] <= bound_m for f in ("s_m", "i_m"))
    criterion("9 asymptotic bounds", ok,
              f"masses at t=20/mu_0: " + ", ".join(f"{k}={v:.2f}" for k, v
                                                   in masses.items()))


def test_criterion_09_dfe_invariance(forward):
    params, grid = forward
    st = ss.default_initial(params, grid, 0.0, mode="reduced")
    rows, fin = ss.simulate(params, grid, st, t_end=50.0, output_every=2000,
                            return_final=True)
    drift = abs(fin.s_h - st.s_h) / st.s_h
    drift = max(drift, float(np.max(np.abs(fin.s_m - st.s_m) / st.s_m)))
    infected = max(float(np.max(fin.i_h)), float(np.max(fin.i_m)),
                   float(np.max(fin.r_h)))
    criterion("9 dfe invariance", drift <= 1e-12 and infected == 0.0,
              f"profile drift {drift:.2e} over 10^4 steps, infected stay {infected}")


# -- 10: derivative correctness -----------------------------------------------


def test_criterion_10_derivative_finite_differences(forward, backward):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for params, grid in (forward, backward):
        kern = build_reduced_kernels(params, grid)
        kb = 1.0 / kern.recovered_weight
        h = 1e-6 * kb
        for _ in range(50):
            r0 = rng.uniform(0.05, 3.0)
            k = rng.uniform(2 * h, kb - 2 * h)
            fd = (f_value(r0, k + h, kern) - f_value(r0, k - h, kern)) / (2 * h)
            worst = max(worst, abs(dk_f(r0, k, kern) - fd) / max(abs(fd), 1e-30))
    criterion("10 finite differences", worst <= 1e-6,
              f"worst relative deviation over 100 points = {worst:.2e}")


def _random_assumption3_params(rng):
    return make_params(
        mu_h=float(np.exp(rng.uniform(np.log(0.002), np.log(0.05)))),
        lambda_m=1e7,
        nu_h=RateSpec.constant(float(rng.uniform(0.0, 0.3)), Arity.AGE_TAU),
        gamma_h=RateSpec.piecewise(float(rng.uniform(0.05, 0.15)), 0.0,
                                   float(rng.uniform(20.0, 80.0)), Arity.TAU_ONLY),
        k_h=RateSpec.piecewise(0.1, 0.0, float(rng.uniform(10.0, 60.0)),
                               Arity.ETA_ONLY),
        beta_h=RateSpec.gauss(float(rng.uniform(0.05, 0.2)),
                              float(rng.uniform(0.2, 0.4)),
                              float(rng.uniform(0.05, 0.15)), Arity.TAU_ONLY),
        beta_m=RateSpec.gauss_exp(float(rng.uniform(0.02, 0.1)),
                                  float(rng.uniform(0.1, 0.3)),
                                  float(rng.uniform(0.1, 0.3)),
                                  float(rng.uniform(0.5, 2.0))),
    )


def test_criterion_10_sign_consistency_randomized():
    # sign(dk_f at the threshold) vs sign of the printed bifurcation constant
    # on 20 randomized age-independent parameter sets with the constant
    # bounded away from zero
    rng = np.random.default_rng(20260808)
    grid = ss.Grid(delta=0.01, a_max_h=60.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    checked = 0
    disagreements = []
    while checked < 20:
        params = _random_assumption3_params(rng)
        kern = build_reduced_kernels(params, grid)
        cb = bifurcation_constant(kern)
        if abs(cb) < 0.25:
            continue
        checked += 1
        der = dk_f(1.0, 0.0, kern)
        if np.sign(cb) != np.sign(der):
            disagreements.append((cb, der))
    ok = not disagreements
    detail = f"{20 - len(disagreements)}/20 agree"
    if disagreements:
        detail += "; disagreeing (c_bif, dk_f): " + ", ".join(
            f"({c:+.3f}, {d:+.3f})" for c, d in disagreements)
    criterion("10 sign consistency", ok, detail)
