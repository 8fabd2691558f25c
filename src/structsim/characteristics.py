"""Closed-form evaluation along characteristics, and the linearized
characteristic equation at the disease-free state.

With both transmission probabilities identically zero the system decouples:
every field is given explicitly by its renewal representation (shift the
initial data along characteristics and apply the accumulated removal;
recovered and susceptible humans additionally pick up explicitly computable
history integrals).  ``volterra_decoupled`` evaluates those formulas
directly at a requested time, with no time marching, and is used as an
independent reference for the transport solver.

``g_of_lambda`` evaluates the characteristic function of the linearization
at the disease-free state: a product of Laplace-type transforms of the two
generation kernels, positive, continuous, and strictly decreasing in real
lambda.  Its value at 0 is the squared reproduction number, and its real
root (when one exists) is the dominant linear growth rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (Grid, characteristic_cumulative, cumulative_to_centers, entry_factors,
                    step_factors, whole_steps)
from .kernels import spectral_kernels
from .params import ModelParams, estimate_mu0
from .rates import eval_rate, rate_table
from .solver import StateFields


# ---------------------------------------------------------------------------
# decoupled closed forms


def offset_cumulative(params: ModelParams, grid: Grid, which: str) -> np.ndarray:
    """D[x, j] = int_0^{tau_j} rate(x*delta + s, s) ds, offsets on cell edges.

    ``which`` names the pool whose removal rate is integrated (see
    :meth:`ModelParams.removal_rate`).
    """
    rate = params.removal_rate(which)
    n_off, taus = {"i_h": (grid.n_ah, grid.taus_h), "r_h": (grid.n_ah, grid.etas),
                   "i_m": (grid.n_am, grid.taus_m)}[which]
    offsets = np.arange(n_off) * grid.delta
    return characteristic_cumulative(rate, offsets, taus, grid.delta)


def _shift_decay(field0: np.ndarray, dcum: np.ndarray, n: int) -> np.ndarray:
    """Initial-data branch: move n cells along the diagonal, decay by the
    cumulative difference; entries with no ancestor are zero."""
    n_a, n_t = field0.shape
    out = np.zeros_like(field0)
    if n == 0:
        return field0.copy()
    if n >= n_t or n >= n_a:
        return out
    ii, jj = np.meshgrid(np.arange(n, n_a), np.arange(n, n_t), indexing="ij")
    x = ii - jj
    x = np.maximum(x, 0)
    decay = np.exp(-(dcum[x, jj] - dcum[x, jj - n]))
    out[n:, n:] = field0[:-n, :-n] * decay * (ii >= jj)
    return out


def volterra_decoupled(params: ModelParams, grid: Grid, init: StateFields,
                       t: float) -> StateFields:
    """All five fields at time t from the closed renewal formulas.

    Requires both transmission probabilities to vanish on the grid (the
    forces of infection are then identically zero and no fixed point is
    involved).  ``t`` must be a whole number of grid steps, >= 0.  ``init``
    must be a full-mode state at t = 0.
    """
    d = grid.delta
    bh = eval_rate(params.beta_h, grid.ages_h[:, None], grid.taus_h[None, :])
    bm = eval_rate(params.beta_m, grid.ages_m[:, None], grid.taus_m[None, :])
    if np.any(bh != 0.0) or np.any(bm != 0.0):
        raise ValueError("decoupled evaluation requires beta_h = beta_m = 0 on the grid")
    if init.mode != "full" or init.t != 0.0:
        raise ValueError("init must be a full-mode state at t = 0")
    n = whole_steps(t, d)
    if n is None or n < 0:
        raise ValueError(f"t must be a multiple of the grid step, >= 0 (got {t})")

    cum_h = cumulative_to_centers(rate_table(params.mu_h, grid.ages_h), d)
    cum_m = cumulative_to_centers(rate_table(params.mu_m, grid.ages_m), d)
    # the channels' outflow weights, sampled from the rates: of the cells
    # arriving at (a, s) for a, s >= 1 (age-major), and of the entry cells
    def outflow_weights(part, pool: str, seconds: np.ndarray):
        column = seconds[:, None]
        rates = (rate_table(params.removal_rate(pool), grid.ages_h, column),
                 rate_table(part, grid.ages_h, column))
        diagonal = (slice(None, -1),) * 2, (slice(1, None),) * 2
        return (step_factors(rates, rates, d, *diagonal)[1].T,
                entry_factors(rates[0][0], rates[1][0], d)[1])

    ih_out, _ = outflow_weights(params.gamma_h, "i_h", grid.taus_h)
    rh_out, rh_out0 = outflow_weights(params.k_h, "r_h", grid.etas)
    d_ih = offset_cumulative(params, grid, "i_h")
    d_rh = offset_cumulative(params, grid, "r_h")
    d_im = offset_cumulative(params, grid, "i_m")
    rh_surv = np.exp(-d_rh)

    def i_h_at(m: int) -> np.ndarray:
        return _shift_decay(init.i_h, d_ih, m)

    # recovery inflow at every intermediate step: the recovery share of the
    # removal between consecutive cells (one field shift per step); with the
    # transmission probabilities zero there is no fresh-infection term
    def recovery_inflow(field: np.ndarray) -> np.ndarray:
        out = np.zeros(grid.n_ah)
        out[1:] = np.sum(ih_out * field[:-1, :-1], axis=1)
        return out

    q_hist = [recovery_inflow(i_h_at(m)) for m in range(n)]

    def r_h_at(m: int) -> np.ndarray:
        out = _shift_decay(init.r_h, d_rh, m)
        # cohorts recovered after t=0: eta cell l was filled at step m-l
        for l in range(min(m, grid.n_eta)):
            q = q_hist[m - 1 - l]
            out[l:, l] = q[: grid.n_ah - l] * rh_surv[: grid.n_ah - l, l]
        return out

    def source_inflow(m: int) -> np.ndarray:
        field = r_h_at(m)
        out = np.zeros(grid.n_ah)
        out[1:] = np.sum(rh_out * field[:-1, :-1], axis=1)
        out += rh_out0 * q_hist[m]
        return out

    i_m_t = _shift_decay(init.i_m, d_im, n)
    i_h_t = i_h_at(n)
    r_h_t = r_h_at(n)

    s_m_t = np.zeros(grid.n_am)
    if n < grid.n_am:
        s_m_t[n:] = init.s_m[: grid.n_am - n] * np.exp(-(cum_m[n:] - cum_m[: grid.n_am - n]))
    s_m_t[: min(n, grid.n_am)] = params.lambda_m * np.exp(-cum_m[: min(n, grid.n_am)])

    s_h_t = np.zeros(grid.n_ah)
    if n < grid.n_ah:
        s_h_t[n:] = init.s_h[: grid.n_ah - n] * np.exp(-(cum_h[n:] - cum_h[: grid.n_ah - n]))
    s_h_t[: min(n, grid.n_ah)] = params.lambda_h * np.exp(-cum_h[: min(n, grid.n_ah)])
    # immunity-loss returns accumulated along each susceptible characteristic:
    # a packet entering at row y on step m+1 reaches row y + (n-1-m) at time t
    mh_prev = np.concatenate(([0.0], cum_h[:-1]))
    for m in range(n):
        src = source_inflow(m)
        shift = n - 1 - m
        y = np.arange(1, grid.n_ah - shift)
        if len(y) == 0:
            continue
        s_h_t[y + shift] += d * src[y] * np.exp(-(cum_h[y + shift] - mh_prev[y]))

    return StateFields("full", n * d, s_h_t, i_h_t, r_h_t, s_m_t, i_m_t)


# ---------------------------------------------------------------------------
# linearized growth at the disease-free state


def g_of_lambda(params: ModelParams, grid: Grid, lam: float) -> float:
    """Characteristic function of the linearization; g(0) equals lambda0."""
    return _g_above(params, grid, lam, estimate_mu0(params, grid))


def _g_above(params: ModelParams, grid: Grid, lam: float, mu0: float) -> float:
    """g(lam), after checking lam > -mu0 for the mortality floor mu0 of
    ``(params, grid)``."""
    if lam <= -mu0:
        raise ValueError(f"lambda must exceed -mu_0 = {-mu0:g}")
    return spectral_kernels(params, grid).generation(lam)


@dataclass(frozen=True)
class GrowthRateResult:
    lambda_star: float | None
    g0: float
    bracket: tuple[float, float] | None
    evaluations: int


def dominant_growth_rate(params: ModelParams, grid: Grid) -> GrowthRateResult:
    """Real root of g(lambda) = 1 by bracketed bisection to a 1e-10 bracket.

    g is strictly decreasing, so when g(0) > 1 a unique positive root
    exists; the initial upper bracket is expanded geometrically until the
    sign changes.  When g(0) < 1 the (negative) root is returned only if it
    is bracketable above -mu_0.  The floor mu_0 is estimated once per call.
    """
    mu0 = estimate_mu0(params, grid)
    evals = 0

    def g(lam: float) -> float:
        nonlocal evals
        evals += 1
        return _g_above(params, grid, lam, mu0)

    g0 = g(0.0)
    if g0 == 1.0:
        return GrowthRateResult(0.0, g0, (0.0, 0.0), evals)
    if g0 > 1.0:
        lo, hi = 0.0, 50.0 * mu0 * max(1.0, g0)
        for _ in range(200):
            if g(hi) < 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            return GrowthRateResult(None, g0, None, evals)
    else:
        lo = -mu0 + max(1e-6, 1e-6 * mu0)
        hi = 0.0
        if g(lo) < 1.0:
            return GrowthRateResult(None, g0, None, evals)
    bracket = (lo, hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return GrowthRateResult(0.5 * (lo + hi), g0, bracket, evals)
