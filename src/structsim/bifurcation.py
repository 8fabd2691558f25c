"""Endemic equilibria and the bifurcation at the epidemic threshold.

When no human rate depends on chronological age, an endemic equilibrium is
parameterized by a single infection intensity K > 0: the normalized
infected density is K times the infection-survival profile c1(tau), and
existence reduces to a scalar condition f(R0, K) = 1.  f is exactly linear
in R0, f(R0, K) = R0 * h(K), with the R0-free factor

    h(K) = (1 + K * int(nu_h c1)/mu_h)
           * (damped mosquito kernel mass at damping c2*K, normalized)
           * (1 - K * [int c1 + int(gamma_h c1) * immunity integral])

where the bracket of the last factor is the recovered weight W.  h(0) = 1
holds identically, and h is exactly 0 at the admissible upper bound
K_bar = 1/W and beyond.  Each kernel build tabulates h once on a uniform
scan of [0, K_bar]; the roots for any R0 are the sign changes of
R0 * h - 1 on that table, each bisected on f (the scan is dense enough to
separate the two roots near the fold).  The brackets of many R0 values are bisected
together, one lane each, so a sweep evaluates h once per halving.
dk_f = R0 * h' is the exact analytic K-derivative of that same
expression.

h, h', the paper's constant c_bif and the reconstructed equilibrium all
read one set of integrals, summed once per kernel build in
``ReducedKernels``: int c1, int(nu_h c1), int(gamma_h c1), W and the
mosquito kernel masses.  Every question about the branch is answered from
h: it is backward iff h'(0) = dk_f(1, 0) > 0, i.e. iff it leaves K = 0
below R0 = 1 (``direction``), and a sweep reports a fold when it finds
roots below R0 = 1.  ``bifurcation_constant`` evaluates the paper's
printed three-term threshold constant.  It shares the kernel-lag term and
int(nu_h c1)/mu_h - int c1 with h'(0) and differs only in the recovered
pool:

    c_bif - h'(0) = int(gamma_h c1) * immunity integral - int_gamma_imm,

where int_gamma_imm is the single integral of gamma_h against the
immunity survival.  On some parameter sets that gap flips the sign, so
c_bif is reported, not used to classify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .characteristics import offset_cumulative
from .grids import Grid, cumulative_to_centers, row_blocks
from .kernels import spectral_kernels
from .params import ModelParams
from .r0 import lambda_m_slope
from .rates import rate_table
from .solver import StateFields

SCAN_POINTS = 2048


@dataclass(frozen=True)
class ReducedKernels:
    """Precomputed pieces of f(R0, K) for one parameter set and grid: the
    one source of the integrals that h, h', c_bif and the equilibrium read."""

    mu_h: float
    c1: np.ndarray                  # exp(-int_0^tau (mu_h + nu_h + gamma_h))
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
        object.__setattr__(self, "h_scan", _h_in_row_blocks(k_scan, self))


@functools.lru_cache(maxsize=8)
def build_reduced_kernels(params: ModelParams, grid: Grid) -> ReducedKernels:
    """The pieces of f for ``(params, grid)``, kept for later calls as
    :func:`spectral_kernels` keeps its tables."""
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
    c2 = params.theta * sk.sum_beta_c1 * d
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
    return ReducedKernels(mu_h=mu_h, c1=c1, immunity_decay=immunity_decay, c2=c2,
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
    w = np.multiply.outer(-kernels.c2 * k, kernels.xis_m)           # (len(K), n_xi)
    damped = np.sum(np.multiply(np.exp(w, out=w), kernels.mosq_row_mass, out=w), axis=-1)
    # exactly 0 from K_bar on, where 1 - K_bar * W may round to an ulp
    depletion = np.where(k < k_bar(kernels), 1.0 - k * kernels.recovered_weight, 0.0)
    return growth * (damped / kernels.mosquito_kernel_mass) * depletion


def _h_in_row_blocks(k: np.ndarray, kernels: ReducedKernels) -> np.ndarray:
    """:func:`h_value` on a 1-d ``k``, a row block of the (K, xi) table at a
    time: each value is its row's own sum, so the result is the whole-table
    ``h_value(k)`` bit for bit, and the table is never built whole."""
    blocks = row_blocks(len(k), len(kernels.xis_m))
    return np.concatenate([h_value(k[rows], kernels) for rows in blocks])


def f_value(r0: float, k, kernels: ReducedKernels):
    """The existence function; endemic equilibria solve f(r0, K) = 1."""
    return r0 * h_value(k, kernels)


def dk_f(r0: float, k, kernels: ReducedKernels):
    """Exact partial derivative of f with respect to K: r0 * h'(K), the
    product rule over the three factors of :func:`h_value`, whose
    K-derivatives are int(nu_h c1)/mu_h, -c2 times the lag-weighted damped
    mass, and -recovered_weight."""
    k = _admissible(k, kernels)
    w = np.exp(np.multiply.outer(-kernels.c2 * k, kernels.xis_m)) * kernels.mosq_row_mass
    mass = kernels.mosquito_kernel_mass
    vm, weight = kernels.int_nu_c1 / kernels.mu_h, kernels.recovered_weight
    growth, depletion = 1.0 + k * vm, 1.0 - k * weight
    damped = np.sum(w, axis=-1) / mass
    d_damped = -kernels.c2 * np.sum(w * kernels.xis_m, axis=-1) / mass
    return r0 * (vm * damped * depletion + growth * d_damped * depletion
                 - growth * damped * weight)


def bifurcation_constant(kernels: ReducedKernels) -> float:
    """Three-term threshold constant; positive sign marks a backward branch.

    Terms: the transmission-weighted mean age lag of the mosquito kernel
    (negative, since age exceeds infection age on its support), minus the
    recovery outflow integrated against the immunity survival, plus the
    infection-survival mass weighted by (nu_h/mu_h - 1).
    """
    term1 = -kernels.c2 * kernels.age_lag_mass / kernels.mosquito_kernel_mass
    term2 = -kernels.int_gamma_imm
    term3 = kernels.int_nu_c1 / kernels.mu_h - kernels.int_c1
    return term1 + term2 + term3


def direction(dh0: float) -> str:
    """Branch direction from h'(0) = dk_f(1, 0): "backward" iff it is
    positive, so that small roots K exist just below R0 = 1."""
    return "backward" if dh0 > 0 else "forward"


def endemic_roots(r0s, kernels: ReducedKernels) -> list[list[float]]:
    """All strictly positive roots of f(r0, K) = 1 on [0, K_bar], for each
    finite r0 >= 0 of the 1-d ``r0s``, in its order.

    The sign changes of r0 * h - 1 on the kernels' scan table bracket the
    roots (a row block of r0 values at a time, so the (r0, scan) table is
    never built whole).  Every bracket of every r0 is then a lane of one
    bisection on f to 1e-12 K_bar: each halving evaluates h once on the
    midpoints of the live lanes, in row blocks, and a lane stops on its
    own when f vanishes at its midpoint or its bracket is narrow enough.
    The midpoint, the sign rule and the stop are those of a bisection of
    one bracket at a time, so every root is that bisection's root bit for
    bit.  Signs are compared, never multiplied, so no r0 overflows them.
    The scan is dense enough to separate the two roots near the fold.
    """
    r0s = np.asarray(r0s, dtype=float)
    if r0s.ndim != 1:
        raise ValueError("r0 values must form a 1-d sequence")
    if not np.all(np.isfinite(r0s)):
        raise ValueError(f"r0 must be finite, got {float(r0s[~np.isfinite(r0s)][0])}")
    if np.any(r0s < 0):
        raise ValueError("r0 must be >= 0")
    tol = 1e-12 * k_bar(kernels)
    ks, hs = kernels.k_scan, kernels.h_scan
    roots: list[list[float]] = [[] for _ in r0s]
    brackets = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=bool))]
    for rows in row_blocks(len(r0s), len(ks)):
        signs = np.multiply.outer(r0s[rows], hs)
        signs -= 1.0
        np.sign(signs, out=signs)               # of r0 * h - 1 on the scan
        for p, i in zip(*np.nonzero(signs == 0.0)):
            roots[rows.start + p].append(float(ks[i]))
        p, i = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0.0)
        brackets.append((rows.start + p, i, signs[p, i] < 0.0))

    # one lane per bracket [a, b] of point ``lane``; f keeps at a the sign
    # it has at the bracket's left scan point, so b moves iff f(m) has the other
    lane, i, negative = (np.concatenate(column) for column in zip(*brackets))
    a, b, r0 = ks[i], ks[i + 1], r0s[lane]
    for _ in range(200):
        narrow = (b - a) < tol
        for p, k in zip(lane[narrow], 0.5 * (a[narrow] + b[narrow])):
            roots[p].append(float(k))
        lane, a, b, r0, negative = (v[~narrow] for v in (lane, a, b, r0, negative))
        if not lane.size:
            break
        m = 0.5 * (a + b)
        fm = r0 * _h_in_row_blocks(m, kernels) - 1.0
        for p, k in zip(lane[fm == 0.0], m[fm == 0.0]):
            roots[p].append(float(k))
        moves_b = (fm < 0.0) != negative
        a, b = np.where(moves_b, a, m), np.where(moves_b, m, b)
        lane, a, b, r0, negative = (v[fm != 0.0] for v in (lane, a, b, r0, negative))
    for p, k in zip(lane, 0.5 * (a + b)):        # none unless 200 halvings ran
        roots[p].append(float(k))
    return [sorted(r for r in found if r > tol) for found in roots]


def solve_endemic(r0: float, kernels: ReducedKernels) -> list[float]:
    """All strictly positive roots of f(r0, K) = 1 on [0, K_bar]: the one
    lane-wise bisection of :func:`endemic_roots` on the single value r0."""
    return endemic_roots([r0], kernels)[0]


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
    classification: str            # "forward" or "backward", from h'(0)
    fold_r0_star: float | None
    c_bif: float
    dh0: float                     # h'(0) = dk_f(1, 0)


def trace_branch(params: ModelParams, grid: Grid, lambda_m_min: float,
                 lambda_m_max: float, n_points: int = 200) -> BifurcationBranch:
    """Endemic roots across a mosquito-recruitment sweep.

    The threshold value is exactly linear in the recruitment rate, so every
    sweep point solves on the one scan table of h built with the kernels,
    all in one :func:`endemic_roots` call: the roots of the whole sweep are
    the lanes of one bisection.
    When the first sweep point carrying a root lies below R0 = 1, the fold
    is the smallest threshold value still carrying a root: the bracket from
    the sweep point before it (from 0 when it is the first sweep point) is
    refined three times on 17 sub-points, which puts the fold within
    1/16**3 of the bracket above 1/max h.  Below R0 = 1 the scan starts
    under 1 (h(0) = 1) and ends at -1 (h(K_bar) = 0), so a value r0 carries
    a root exactly when r0 * max(h_scan) >= 1, and the refinement tests
    that instead of solving.
    """
    if not (0 < lambda_m_min < lambda_m_max):
        raise ValueError("need 0 < lambda_m_min < lambda_m_max")
    kernels = build_reduced_kernels(params, grid)
    slope = lambda_m_slope(params, grid)
    lams = np.linspace(lambda_m_min, lambda_m_max, n_points)
    r0s = slope * lams
    points = [BranchPoint(float(lm), float(r0), tuple(roots))
              for lm, r0, roots in zip(lams, r0s, endemic_roots(r0s, kernels))]

    fold = None
    first = next((i for i, p in enumerate(points) if p.roots), None)
    if first is not None and points[first].r0 < 1.0:
        h_max = float(np.max(kernels.h_scan))
        lo = lams[first - 1] if first > 0 else 0.0
        hi = lams[first]
        for _ in range(3):
            sub = np.linspace(lo, hi, 17)
            carries = np.flatnonzero(slope * sub * h_max >= 1.0)
            if not carries.size:
                break
            idx = carries[0]
            hi = sub[idx]
            lo = sub[idx - 1] if idx > 0 else lo
        fold = float(slope * hi)
    dh0 = float(dk_f(1.0, 0.0, kernels))
    return BifurcationBranch(tuple(points), direction(dh0), fold,
                             bifurcation_constant(kernels), dh0)


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
    i_norm = k_root * kernels.c1                       # per-capita infected density
    n_star = params.lambda_h / (kernels.mu_h + k_root * kernels.int_nu_c1)
    r_norm = k_root * kernels.int_gamma_c1 * kernels.immunity_decay
    s_norm = 1.0 - k_root * kernels.recovered_weight   # the depletion factor of h
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
