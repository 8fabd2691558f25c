"""Endemic equilibria and the bifurcation at the epidemic threshold.

When no human rate depends on chronological age, an endemic equilibrium is
parameterized by a single infection intensity K > 0: the normalized
infected density is K times the infection-survival profile c1(tau), and
existence reduces to a scalar condition f(R0, K) = 1.  f is exactly linear
in R0, f(R0, K) = R0 * h(K), with the R0-free factor

    h(K) = (1 + K * int(nu_h c1)/mu_h)
           * (damped mosquito kernel mass at damping c2*K, normalized)
           * (1 - K * [int c1 + int(gamma_h c1) * immunity integral])

h(0) = 1 holds identically and h vanishes at the admissible upper bound
K_bar.  Each kernel build tabulates h once on a uniform scan of
[0, K_bar]; the roots for any R0 are the sign changes of R0 * h - 1 on
that table, each bisected on f (the scan is dense enough to separate the
two roots near the fold).  dk_f = R0 * h' is the exact analytic
K-derivative of that same expression.

``bifurcation_constant`` evaluates the three-term threshold constant whose
sign classifies the branch direction.  Note it is not algebraically
identical to dk_f at (R0=1, K=0): its recovered-pool term is a single
integral of gamma_h against the immunity survival, whereas the derivative
carries the product of int(gamma_h c1) with the immunity integral.  Both
are exposed; the sweep classifier follows the constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristics import offset_cumulative
from .grids import Grid, characteristic_cumulative, cumulative_to_centers, decay_factors
from .kernels import spectral_kernels
from .params import ModelParams
from .r0 import lambda0_closed_form, lambda_m_slope
from .rates import eval_rate, rate_table
from .solver import StateFields

SCAN_POINTS = 2048


@dataclass(frozen=True)
class ReducedKernels:
    """Precomputed pieces of f(R0, K) for one parameter set and grid."""

    delta: float
    mu_h: float
    c1: np.ndarray                  # exp(-int_0^tau (mu_h + nu_h + gamma_h))
    gamma_tau: np.ndarray
    nu_tau: np.ndarray
    immunity_decay: np.ndarray      # exp(-int_0^eta (mu_h + k_h))
    c2: float                       # theta * int beta_h c1
    immunity_integral: float        # int immunity_decay d eta
    int_c1: float
    int_gamma_c1: float
    int_nu_c1: float
    int_gamma_imm: float            # int gamma_h(tau) exp(-int_0^tau (mu_h + k_h))
    recovered_weight: float         # int c1 * (1 + gamma_h * immunity_integral)
    xis_m: np.ndarray
    mosq_row_mass: np.ndarray       # per-xi mass of the mosquito kernel (x delta^2)
    mosquito_kernel_mass: float
    age_lag_mass: float             # iint (a - tau) * mosquito kernel
    k_scan: np.ndarray = field(init=False, repr=False)  # SCAN_POINTS + 1 points of [0, K_bar]
    h_scan: np.ndarray = field(init=False, repr=False)  # h on k_scan

    def __post_init__(self) -> None:
        k_scan = np.linspace(0.0, k_bar(self), SCAN_POINTS + 1)
        object.__setattr__(self, "k_scan", k_scan)
        object.__setattr__(self, "h_scan", h_value(k_scan, self))


def build_reduced_kernels(params: ModelParams, grid: Grid) -> ReducedKernels:
    if not params.reduced_mode_eligible:
        raise ValueError("reduced kernels require age-independent human rates")
    d = grid.delta
    sk = spectral_kernels(params, grid)
    mu_h = params.mu_h_value()
    taus, etas = grid.taus_h, grid.etas
    c1 = sk.c1
    gamma_tau = rate_table(params.gamma_h, 0.0, taus)
    nu_tau = rate_table(params.nu_h, 0.0, taus)
    rh_removal = params.removal_rate("r_h")
    immunity_decay = np.exp(-cumulative_to_centers(rate_table(rh_removal, 0.0, etas), d))
    immunity_integral = float(np.sum(immunity_decay)) * d

    int_c1 = float(np.sum(c1)) * d
    int_gamma_c1 = float(np.sum(gamma_tau * c1)) * d
    int_nu_c1 = float(np.sum(nu_tau * c1)) * d
    c2 = params.theta * float(np.sum(sk.beta_h_tau * c1)) * d
    recovered_weight = int_c1 + int_gamma_c1 * immunity_integral
    # recovery outflow against the immunity survival, sampled in infection age
    int_gamma_imm = float(np.sum(gamma_tau * np.exp(-cumulative_to_centers(
        rate_table(rh_removal, 0.0, taus), d)))) * d

    row_mass = np.sum(sk.mosq_kernel, axis=1) * d * d
    mass = float(np.sum(row_mass))
    if not mass > 0.0:
        raise ValueError("the mosquito->human kernel vanishes on the grid (beta_m is 0 "
                         "wherever age exceeds infection age): no endemic branch exists")
    age_lag = float(np.sum(row_mass * sk.xis_m))
    return ReducedKernels(delta=d, mu_h=mu_h, c1=c1, gamma_tau=gamma_tau, nu_tau=nu_tau,
                          immunity_decay=immunity_decay, c2=c2,
                          immunity_integral=immunity_integral, int_c1=int_c1,
                          int_gamma_c1=int_gamma_c1, int_nu_c1=int_nu_c1,
                          int_gamma_imm=int_gamma_imm,
                          recovered_weight=recovered_weight, xis_m=sk.xis_m,
                          mosq_row_mass=row_mass,
                          mosquito_kernel_mass=mass, age_lag_mass=age_lag)


def k_bar(kernels: ReducedKernels) -> float:
    """Admissible upper bound of the infection intensity (f vanishes there)."""
    return 1.0 / kernels.recovered_weight


def _admissible(k, kernels: ReducedKernels) -> np.ndarray:
    """K as an array, after checking that every value lies in [0, K_bar]."""
    k = np.asarray(k, dtype=float)
    kb = k_bar(kernels)
    outside = ~((k >= -1e-12) & (k <= kb * (1 + 1e-12)))
    if np.any(outside):
        raise ValueError(f"K = {k[outside].flat[0]:g} outside the admissible range [0, {kb:g}]")
    return k


def h_value(k, kernels: ReducedKernels):
    """R0-free factor of the existence function, f(R0, K) = R0 * h(K).

    Vectorized over K; h(0) = 1 exactly and h(K_bar) = 0.
    """
    k = _admissible(k, kernels)
    growth = 1.0 + k * kernels.int_nu_c1 / kernels.mu_h
    w = np.exp(np.multiply.outer(-kernels.c2 * k, kernels.xis_m))  # (len(K), n_xi)
    damped = np.sum(np.multiply(w, kernels.mosq_row_mass, out=w), axis=-1)
    depletion = 1.0 - k * kernels.recovered_weight
    return growth * (damped / kernels.mosquito_kernel_mass) * depletion


def f_value(r0: float, k, kernels: ReducedKernels):
    """The existence function; endemic equilibria solve f(r0, K) = 1."""
    return r0 * h_value(k, kernels)


def dk_f(r0: float, k, kernels: ReducedKernels):
    """Exact partial derivative of f with respect to K: r0 * h'(K)."""
    k = _admissible(k, kernels)
    w = np.exp(np.multiply.outer(-kernels.c2 * k, kernels.xis_m)) * kernels.mosq_row_mass
    damped = np.sum(w, axis=-1)
    lag_damped = np.sum(w * kernels.xis_m, axis=-1)
    mass = kernels.mosquito_kernel_mass
    vm = kernels.int_nu_c1 / kernels.mu_h
    g = kernels.int_gamma_c1 * kernels.immunity_integral
    part1 = (damped / mass) * (vm * (1.0 - 2.0 * k * kernels.int_c1 - 2.0 * k * g)
                               - (kernels.int_c1 + g))
    part2 = (1.0 + k * vm) * (kernels.c2 * lag_damped / mass) \
        * (1.0 - k * kernels.int_c1 - k * g)
    return r0 * (part1 - part2)


def bifurcation_constant(kernels: ReducedKernels) -> float:
    """Three-term threshold constant; positive sign marks a backward branch.

    Terms: the transmission-weighted mean age lag of the mosquito kernel
    (negative, since age exceeds infection age on its support), minus the
    recovery outflow integrated against the immunity survival, plus the
    infection-survival mass weighted by (nu_h/mu_h - 1).
    """
    term1 = -kernels.c2 * kernels.age_lag_mass / kernels.mosquito_kernel_mass
    term2 = -kernels.int_gamma_imm
    term3 = float(np.sum(kernels.c1 * (kernels.nu_tau / kernels.mu_h - 1.0))) * kernels.delta
    return term1 + term2 + term3


def solve_endemic(r0: float, kernels: ReducedKernels) -> list[float]:
    """All strictly positive roots of f(r0, K) = 1 on [0, K_bar].

    The sign changes of r0 * h - 1 on the kernels' scan table bracket the
    roots, and each bracket is bisected on f to 1e-12 K_bar; the scan is
    dense enough to separate the two roots near the fold.
    """
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    kb = k_bar(kernels)
    ks = kernels.k_scan
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


# ---------------------------------------------------------------------------
# branch tracing


@dataclass(frozen=True)
class BranchPoint:
    lambda_m: float
    r0: float
    roots: tuple[float, ...]


@dataclass(frozen=True)
class BifurcationBranch:
    points: tuple[BranchPoint, ...]
    classification: str            # "forward" or "backward"
    fold_r0_star: float | None
    c_bif: float


def trace_branch(params: ModelParams, grid: Grid, lambda_m_min: float,
                 lambda_m_max: float, n_points: int = 200) -> BifurcationBranch:
    """Endemic roots across a mosquito-recruitment sweep.

    The threshold value is exactly linear in the recruitment rate, so every
    sweep point solves on the one scan table of h built with the kernels.
    For a backward branch the fold is the smallest threshold value still
    carrying a root: the first sweep bracket that gains a root is refined
    three times on 17 sub-points, which puts the fold within 1/16**3 of a
    sweep step above 1/max h.
    """
    if not (0 < lambda_m_min < lambda_m_max):
        raise ValueError("need 0 < lambda_m_min < lambda_m_max")
    kernels = build_reduced_kernels(params, grid)
    slope = lambda_m_slope(params, grid)
    cbif = bifurcation_constant(kernels)
    lams = np.linspace(lambda_m_min, lambda_m_max, n_points)
    points = [BranchPoint(float(lm), float(slope * lm),
                          tuple(solve_endemic(slope * lm, kernels))) for lm in lams]
    classification = "backward" if cbif > 0 else "forward"

    fold = None
    if classification == "backward":
        if any(p.roots for p in points):
            first = next(i for i, p in enumerate(points) if p.roots)
            lo = lams[first - 1] if first > 0 else lambda_m_min
            hi = lams[first]
            for _ in range(3):
                sub = np.linspace(lo, hi, 17)
                idx = next((i for i, lm in enumerate(sub)
                            if solve_endemic(slope * lm, kernels)), None)
                if idx is None:
                    break
                hi = sub[idx]
                lo = sub[idx - 1] if idx > 0 else lo
            fold = float(slope * hi)
    return BifurcationBranch(tuple(points), classification, fold, cbif)


# ---------------------------------------------------------------------------
# equilibrium reconstruction


def reconstruct_equilibrium(k_root: float, params: ModelParams,
                            grid: Grid) -> tuple[StateFields, float]:
    """Absolute-scale reduced-mode equilibrium fields for a root K.

    Returns the state and the equilibrium human population N_h*.  The
    mosquito profiles carry the equilibrium infection pressure c2*K as an
    extra exponential discount, matching the discrete fixed point of the
    transport step.
    """
    kernels = build_reduced_kernels(params, grid)
    kb = k_bar(kernels)
    if not (0.0 < k_root <= kb * (1 + 1e-12)):
        raise ValueError(f"K = {k_root:g} outside (0, K_bar]")
    d = grid.delta
    i_norm = k_root * kernels.c1                       # per-capita infected density
    n_star = params.lambda_h / (kernels.mu_h + float(np.sum(kernels.nu_tau * i_norm)) * d)
    r_norm = float(np.sum(kernels.gamma_tau * i_norm)) * d * kernels.immunity_decay
    s_norm = 1.0 - float(np.sum(i_norm)) * d - float(np.sum(r_norm)) * d
    if s_norm <= 0.0:
        raise ValueError(f"invalid root: susceptible share {s_norm:g} <= 0")

    lam_hm_rate = kernels.c2 * k_root                  # per-mosquito infection rate
    s_m = params.lambda_m * spectral_kernels(params, grid).pi_m \
        * np.exp(-lam_hm_rate * grid.ages_m)
    d_im = offset_cumulative(params, grid, "i_m")
    i_m = np.zeros((grid.n_am, grid.n_tm))
    for j in range(grid.n_tm):
        rows = np.arange(j, grid.n_am)
        i_m[rows, j] = lam_hm_rate * s_m[rows - j] * np.exp(-d_im[rows - j, j])

    state = StateFields("reduced", 0.0, s_norm * n_star, i_norm * n_star,
                        r_norm * n_star, s_m, i_m)
    return state, n_star


def endemic_seed(equilibrium: StateFields, grid: Grid) -> StateFields:
    """A 25%-deflated copy of an upper endemic equilibrium, inside its basin.

    A quarter of the infected and recovered humans return to the
    susceptibles and the infected mosquitoes shrink by a quarter.  In the
    bistable window a disease-free-adjacent seed cannot reach the endemic
    attractor: its population is an order of magnitude above the endemic
    level, diluting the bites.
    """
    seed = equilibrium.copy()
    moved = 0.25 * float(np.sum(seed.i_h) + np.sum(seed.r_h)) * grid.delta
    seed.i_h *= 0.75
    seed.r_h *= 0.75
    seed.i_m *= 0.75
    seed.s_h = seed.s_h + moved
    return seed


# ---------------------------------------------------------------------------
# general-model endemic residual


def lift_reduced_equilibrium(k_root: float, params: ModelParams,
                             grid: Grid) -> np.ndarray:
    """Normalized 2D infected density i*(a, tau) generating a reduced root.

    Marches the equilibrium age profile of normalized susceptibles with the
    same discrete shift/decay/source conventions as the transport step, then
    spreads the infection-age profile along it.
    """
    kernels = build_reduced_kernels(params, grid)
    state, n_star = reconstruct_equilibrium(k_root, params, grid)
    d = grid.delta
    entry_h, step_h = decay_factors(rate_table(params.mu_h, grid.ages_h), d)
    n_a, n_t, n_e = grid.n_ah, grid.n_th, grid.n_eta
    d_ih = offset_cumulative(params, grid, "i_h")      # edge offsets
    d_rh = offset_cumulative(params, grid, "r_h")
    gamma = kernels.gamma_tau
    k_eta = rate_table(params.k_h, 0.0, grid.etas)
    lam_rate = k_root / (state.s_h / n_star)           # per-susceptible-human rate

    ih_surv = np.exp(-d_ih)                            # [offset, tau]
    rh_surv = np.exp(-d_rh)
    s = np.zeros(n_a)
    rb = np.zeros(n_a)                                 # recovery inflow at each age
    s[0] = (params.lambda_h / n_star) * entry_h * np.exp(-0.5 * d * lam_rate)
    for i in range(n_a):
        if i > 0:
            js = np.arange(min(i, n_t))
            i_row_prev = lam_rate * s[i - 1 - js] * ih_surv[i - 1 - js, js]
            rb[i - 1] = float(np.sum(gamma[: len(js)] * i_row_prev)) * d
            ls = np.arange(min(i, n_e))
            r_row_prev = rb[i - 1 - ls] * rh_surv[i - 1 - ls, ls]
            src = float(np.sum(k_eta[: len(ls)] * r_row_prev)) * d
            s[i] = (s[i - 1] + d * src) * step_h[i] * np.exp(-d * lam_rate)
    i_star = np.zeros((n_a, n_t))
    for j in range(n_t):
        rows = np.arange(j, n_a)
        i_star[rows, j] = lam_rate * s[rows - j] * ih_surv[rows - j, j]
    return i_star


def general_endemic_residual(i_h_star: np.ndarray, params: ModelParams,
                             grid: Grid) -> float:
    """Evaluate the full-model endemic existence condition at a candidate
    normalized infected density; the value 1 certifies an equilibrium.

    The candidate enters through three functionals: the extra-mortality
    correction to the population profile, the transmission pressure on
    mosquitoes (which discounts the mosquito kernel by the age lag), and
    the susceptible-depletion bracket.  With a zero candidate the value
    reduces exactly to the threshold value lambda0.
    """
    if i_h_star.shape != (grid.n_ah, grid.n_th):
        raise ValueError("candidate must be sampled on the (human age, infection age) grid")
    if np.any(i_h_star < 0):
        raise ValueError("candidate density must be non-negative")
    d = grid.delta
    sk = spectral_kernels(params, grid)
    ages, taus, etas = grid.ages_h, grid.taus_h, grid.etas
    n_a = grid.n_ah

    a2, t2 = ages[:, None], taus[None, :]
    # int nu i* dtau and int gamma i* dtau, per age
    nh_loss = np.sum(eval_rate(params.nu_h, a2, t2) * i_h_star, axis=1) * d
    rec_in = np.sum(eval_rate(params.gamma_h, a2, t2) * i_h_star, axis=1) * d

    # population correction: iint (int nu i*) exp(-int_s^a mu) ds da
    mh_rate = rate_table(params.mu_h, ages)
    mh_c = cumulative_to_centers(mh_rate, d)
    inner = np.exp(-mh_c) * np.cumsum(nh_loss * np.exp(mh_c)) * d
    koef = float(np.sum(inner)) * d

    pressure = params.theta * float(np.sum(
        eval_rate(params.beta_h, a2, t2) * i_h_star)) * d * d

    damped = float(np.sum(sk.mosq_kernel
                          * np.exp(-pressure * sk.xis_m)[:, None])) * d * d
    mass = sk.mosquito_factor(0.0)
    r0_sq = lambda0_closed_form(params, grid)
    first = r0_sq * (1.0 + koef) ** 2 * (damped / mass)

    # bracket(alpha) on edge-aligned age offsets alpha = x * delta
    mh_edge = np.concatenate(([0.0], np.cumsum(mh_rate * d)))
    row_mass = np.sum(i_h_star, axis=1) * d                  # int i*(a, s) ds at centers
    # int_0^alpha i*(alpha, s) ds: i* at the edge age is the mean of the rows around it
    b1 = np.concatenate(([0.0], 0.5 * (row_mass[:-1] + row_mass[1:]), [row_mass[-1]]))

    cum_loss = np.concatenate(([0.0], np.cumsum(nh_loss * np.exp(mh_c)) * d))
    b2 = np.exp(-mh_edge) * cum_loss                          # int nh_loss e^{-int mu}

    d_rh_centers = characteristic_cumulative(        # center offsets
        params.removal_rate("r_h"), ages, etas, d)
    rh_surv_c = np.exp(-d_rh_centers)
    b3 = np.zeros(n_a + 1)
    n_e = grid.n_eta
    for x in range(1, n_a + 1):
        ls = np.arange(min(x, n_e))
        b3[x] = float(np.sum(rec_in[x - 1 - ls] * rh_surv_c[x - 1 - ls, ls])) * d
    bracket = b1 + b2 + b3

    d_ih = offset_cumulative(params, grid, "i_h")            # [edge offset, tau]
    bh_off = eval_rate(params.beta_h, (np.arange(n_a) * d)[:, None] + t2, t2)
    idx = np.add.outer(np.arange(n_a), np.arange(grid.n_th))
    valid = idx < n_a                                        # age = offset + tau on the grid
    inner_tau = np.sum(np.where(valid, bh_off * np.exp(-d_ih), 0.0), axis=1) * d
    bigint = params.theta * float(np.sum(inner_tau * bracket[:n_a])) * d

    second = (params.theta * damped) * params.lambda_m \
        * ((1.0 + koef) / (params.lambda_h * sk.int_pi_h)) * bigint
    return first - second
