"""Unit-CFL transport solver for the structured transmission system.

The time step equals the grid step, so every transport characteristic
(speed 1 in age and in infection/recovery age) moves a density exactly one
cell per step: advection is an index shift with no numerical diffusion.
Removal is applied as an exponential factor per cell using the trapezoid of
the rate between the departure and arrival centers, which makes stationary
profiles of the pure transport-decay part exact fixed points (in
particular, the disease-free state is frozen to machine precision).
Sources and boundary inflows are explicit, evaluated on the start-of-step
state.

Two state layouts:

  FULL     human fields carry chronological age: s_h[a], i_h[a, tau],
           r_h[a, eta]; mosquitoes s_m[a], i_m[a, tau].
  REDUCED  valid when no human rate depends on age: the human age axis
           integrates out exactly and the state is (s_h scalar, i_h[tau],
           r_h[eta]); mosquitoes keep their age structure.

The last axis of a structured field is its structure age (infection or
recovery age); the leading axis, present except for the REDUCED human
fields, is chronological age.  Cells whose structure age exceeds their
chronological age are identically zero.  A step is the renewal
representation on a shifted index: a cell moves one cell along all of its
axes and is multiplied by its step factor, and the structure-age-0 column
is filled with the step's inflow times the entry factor.  The mass a removal
channel (recovery out of i_h, immunity loss out of r_h) takes during the
step is one row dot of the field with fused weights share * (1 - step
factor), and it is the inflow of the next pool.  The human fields are
advanced by this shift.  Only the susceptible humans are updated per layout:
an age profile in FULL, a scalar relaxing to its balance in REDUCED.

Infected mosquitoes are not shifted.  Under the shift the cell (a, tau)
after t steps is B_{t-tau}(x) * C[tau, x], with x = a - tau the cohort
offset: B_s is the entry row written at step s (the new infections by age
times the entry factor) and C[tau, x] the product of the step factors along
the diagonal from (x, 0) to (x + tau, tau), zero past the age axis.  C does
not depend on time, so a run keeps only the last n_tm entry rows in a ring
(the newest at row t mod n_tm) and writes one row per step.  The kernel
stores C and beta_m * C reversed and doubled along tau; rows c .. c + n_tm - 1
of a doubled table, with c = n_tm - 1 - (t mod n_tm), line up with the ring
rows, so the mosquito pressure and the infected-mosquito total are one
contiguous dot product each.  Initial data enters the ring divided by C;
the field is rebuilt from the ring when a run returns its state.

A run computes N_h and the two pressures of each state once; the step that
leaves the state and the observables sampled at it share them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, decay_factors
from .params import ModelParams
from .rates import rate_table


class DegeneratePopulationError(RuntimeError):
    """Human population fell below half the guaranteed floor; indicates a bug
    or invalid initial data, not a reachable model state."""


@dataclass
class StateFields:
    """Discrete densities at one instant; arrays are owned (safe to mutate)."""

    mode: str                 # "full" or "reduced"
    t: float
    s_h: np.ndarray | float   # [n_ah] in full mode, scalar in reduced mode
    i_h: np.ndarray           # [n_ah, n_th] or [n_th]
    r_h: np.ndarray           # [n_ah, n_eta] or [n_eta]
    s_m: np.ndarray           # [n_am]
    i_m: np.ndarray           # [n_am, n_tm]

    def copy(self) -> "StateFields":
        s_h = self.s_h.copy() if isinstance(self.s_h, np.ndarray) else self.s_h
        return StateFields(self.mode, self.t, s_h, self.i_h.copy(),
                           self.r_h.copy(), self.s_m.copy(), self.i_m.copy())


@dataclass(frozen=True)
class Observables:
    t: float
    n_h: float
    n_m: float
    total_i_h: float
    total_i_m: float
    foi_mh_total: float
    foi_hm_total: float

    CSV_HEADER = "t,n_h,n_m,total_i_h,total_i_m,foi_mh_total,foi_hm_total"

    def csv_row(self) -> str:
        return ",".join(repr(v) for v in
                        (self.t, self.n_h, self.n_m, self.total_i_h,
                         self.total_i_m, self.foi_mh_total, self.foi_hm_total))


# ---------------------------------------------------------------------------
# precomputed step kernel


def _diagonal(ndim: int):
    """Indices of every cell that has a predecessor one cell back along all
    ``ndim`` axes, and of those predecessors."""
    return (slice(1, None),) * ndim, (slice(None, -1),) * ndim


def _share(part_prev, part_cur, total_prev, total_cur, out) -> np.ndarray:
    """Fraction of a cell-to-cell removal belonging to one removal channel,
    using the same rate trapezoid as the decay factor (0 where nothing is
    removed)."""
    den = total_prev + total_cur
    return np.divide(part_prev + part_cur, den, out=out, where=den > 0)


def _channel_tables(part: np.ndarray, total: np.ndarray, delta: float):
    """Entry and step factors of a field with removal-rate table ``total``,
    and the outflow weights of its removal channel ``part``: the channel's
    share of a cell's removal times the fraction the cell loses."""
    entry, step = decay_factors(total, delta)
    cur, prev = _diagonal(total.ndim)
    out = np.zeros(total.shape)
    _share(part[prev], part[cur], total[prev], total[cur], out[cur])
    out[cur] *= 1.0 - step[cur]
    out0 = _share(part[..., 0], part[..., 0], total[..., 0], total[..., 0],
                  np.zeros(total.shape[:-1])) * (1.0 - entry)
    return entry, step, out, out0


def _cohort_tables(step: np.ndarray, beta: np.ndarray):
    """``C[tau, x]``, the product of ``step`` along the diagonal from
    ``(x, 0)`` to ``(x + tau, tau)`` (zero past the age axis), and
    ``beta[x + tau, tau] * C[tau, x]``, each reversed and doubled along tau
    so that a slice of ``n_tm`` consecutive rows lines up with the ring."""
    n_am, n_tm = step.shape
    c = np.zeros((n_tm, n_am))
    bc = np.zeros((n_tm, n_am))
    c[0] = 1.0
    bc[0] = beta[:, 0]
    for tau in range(1, n_tm):
        live = n_am - tau
        np.multiply(c[tau - 1, :live], step[tau:, tau], out=c[tau, :live])
        np.multiply(beta[tau:, tau], c[tau, :live], out=bc[tau, :live])
    return (np.concatenate((c[::-1], c[::-1])), np.concatenate((bc[::-1], bc[::-1])))


@functools.lru_cache(maxsize=8)
def _kernel(params: ModelParams, grid: Grid, mode: str):
    delta = grid.delta
    k = {"delta": delta, "eps_floor": params.epsilon_floor(grid)}
    k["sm_entry"], k["sm_step"] = decay_factors(rate_table(params.mu_m, grid.ages_m), delta)

    # Transmission probabilities are sampled half a cell up in age: the
    # unit-CFL dynamics pins (age - infection age) to whole cells, so the
    # representative age lag of a diagonal cell is its midpoint.  A step
    # dots the fields against them, so they are stored contiguous.
    am2, tm2 = grid.ages_m[:, None], grid.taus_m[None, :]
    k["im_entry"], k["im_step"] = decay_factors(
        rate_table(params.removal_rate("i_m"), am2, tm2), delta)
    k["beta_m"] = np.ascontiguousarray(rate_table(params.beta_m, am2 + 0.5 * delta, tm2))
    k["im_c2"], k["im_beta2"] = _cohort_tables(k["im_step"], k["beta_m"])

    # human rates on the field axes: (age column, structure age) in full
    # mode, structure age alone in reduced mode, where no rate reads age
    if mode == "full":
        k["sh_entry"], k["sh_step"] = decay_factors(rate_table(params.mu_h, grid.ages_h), delta)
        a_h, taus, etas = grid.ages_h[:, None], grid.taus_h[None, :], grid.etas[None, :]
    else:
        if not params.reduced_mode_eligible:
            raise ValueError("reduced mode requires age-independent human rates")
        if not params.mu_h_value() > 0:
            raise ValueError("reduced mode needs mu_h > 0: without human mortality "
                             "the susceptible humans have no balance")
        a_h, taus, etas = 0.0, grid.taus_h, grid.etas
    # each removal table is dropped before the next is built: in full mode
    # they can be the size of the fields
    for key, part, pool, second in (("ih", params.gamma_h, "i_h", taus),
                                    ("rh", params.k_h, "r_h", etas)):
        k[key + "_entry"], k[key + "_step"], k[key + "_out"], k[key + "_out0"] = \
            _channel_tables(rate_table(part, a_h, second),
                            rate_table(params.removal_rate(pool), a_h, second), delta)
    k["beta_h"] = np.ascontiguousarray(rate_table(params.beta_h, a_h + 0.5 * delta, taus))
    return k


# ---------------------------------------------------------------------------
# forces of infection


def _mosquito_pressure(state: StateFields, params: ModelParams, k: dict) -> float:
    """theta * double integral of beta_m * I_m  (bites turning infectious)."""
    return params.theta * float(np.vdot(k["beta_m"], state.i_m)) * k["delta"] ** 2


def _human_pressure(state: StateFields, params: ModelParams, k: dict) -> float:
    """theta * integral of beta_h * I_h over the human field's axes."""
    return params.theta * float(np.vdot(k["beta_h"], state.i_h)) * k["delta"] ** state.i_h.ndim


def n_human(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    if state.mode == "full":
        return float(np.sum(state.s_h) * d + np.sum(state.i_h) * d * d
                     + np.sum(state.r_h) * d * d)
    return float(state.s_h + np.sum(state.i_h) * d + np.sum(state.r_h) * d)


def n_mosquito(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    return float(np.sum(state.s_m) * d + np.sum(state.i_m) * d * d)


def _above_floor(nh: float, k: dict, t: float) -> float:
    if nh < 0.5 * k["eps_floor"]:
        raise DegeneratePopulationError(
            f"N_h = {nh:g} fell below half the floor {k['eps_floor']:g} at t = {t:g}")
    return nh


def force_mh(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on humans by age: S_h(a)/N_h * theta * iint beta_m I_m."""
    k = _kernel(params, grid, state.mode)
    nh = _above_floor(n_human(state, grid), k, state.t)
    phi = _mosquito_pressure(state, params, k)
    s_h = np.atleast_1d(np.asarray(state.s_h, dtype=float))
    return s_h / nh * phi


def force_hm(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on mosquitoes by age: S_m(a)/N_h * theta * iint beta_h I_h."""
    k = _kernel(params, grid, state.mode)
    nh = _above_floor(n_human(state, grid), k, state.t)
    phi = _human_pressure(state, params, k)
    return state.s_m / nh * phi


# ---------------------------------------------------------------------------
# initial data


SEED_TAU_BAND = 0.1    # infection-age width of the seeded band


def _band_profile(entry: np.ndarray, step: np.ndarray, taus: np.ndarray,
                  ages: np.ndarray, d: float) -> np.ndarray:
    """Structure-age profile per age row on the band ``taus <= SEED_TAU_BAND``,
    proportional to the survival factor and normalized to unit mass per row
    (rows with no cell inside the triangle stay zero).  The first column of
    ``step`` is the padding 1 of :func:`decay_factors`, so the profile starts
    at ``entry``."""
    nb = int(np.count_nonzero(taus <= SEED_TAU_BAND + 1e-12))    # taus increase
    prof = np.zeros(step.shape)
    band = prof[:, :nb]
    np.multiply(entry[:, None], np.cumprod(step[:, :nb], axis=1), out=band)
    band *= taus[None, :nb] <= ages[:, None] + 1e-12
    norms = np.sum(prof, axis=1) * d
    return np.divide(prof, norms[:, None], out=prof, where=norms[:, None] > 0)


def default_initial(params: ModelParams, grid: Grid, infected_fraction: float = 0.0,
                    mode: str = "reduced", infected_fraction_m: float = 0.0) -> StateFields:
    """Disease-free profile with a fraction of susceptibles moved into the
    infected pool on the infection-age band ``tau <= SEED_TAU_BAND`` (profile
    follows the infection-survival decay).  Total mass of each population is
    preserved exactly.  ``infected_fraction_m`` seeds the mosquito reservoir
    the same way; the bistable regime is only reachable with a mosquito seed,
    since seeded humans thin out before the transmissive infection ages.
    """
    if not (0.0 <= infected_fraction < 1.0):
        raise ValueError("infected_fraction must lie in [0, 1)")
    if not (0.0 <= infected_fraction_m < 1.0):
        raise ValueError("infected_fraction_m must lie in [0, 1)")
    k = _kernel(params, grid, mode)
    d = grid.delta
    # disease-free profile assembled in the same multiplication order as the
    # transport step, so it is a bit-exact fixed point
    s_m0 = np.cumprod(np.concatenate(
        ([params.lambda_m * k["sm_entry"]], k["sm_step"][1:])))
    i_m0 = np.zeros((grid.n_am, grid.n_tm))
    if infected_fraction_m > 0.0:
        prof_m = _band_profile(k["im_entry"], k["im_step"], grid.taus_m, grid.ages_m, d)
        i_m0 = infected_fraction_m * s_m0[:, None] * prof_m
        s_m0 = (1.0 - infected_fraction_m) * s_m0

    if mode == "reduced":
        band = grid.taus_h <= SEED_TAU_BAND + 1e-12
        prof = np.where(band, np.cumprod(np.where(band, k["ih_step"], 1.0)), 0.0)
        prof[0] = k["ih_entry"]
        prof = np.where(band, prof, 0.0)
        prof = prof / (np.sum(prof) * d) if prof.any() else prof
        s_tot = params.lambda_h / params.mu_h_value()
        i_h0 = infected_fraction * s_tot * prof
        r_h0 = np.zeros(grid.n_eta)
        return StateFields("reduced", 0.0, (1.0 - infected_fraction) * s_tot,
                           i_h0, r_h0, s_m0, i_m0)

    s_h0 = np.cumprod(np.concatenate(
        ([params.lambda_h * k["sh_entry"]], k["sh_step"][1:])))
    prof = _band_profile(k["ih_entry"], k["ih_step"], grid.taus_h, grid.ages_h, d)
    i_h0 = infected_fraction * s_h0[:, None] * prof
    return StateFields("full", 0.0, (1.0 - infected_fraction) * s_h0, i_h0,
                       np.zeros((grid.n_ah, grid.n_eta)), s_m0, i_m0)


# ---------------------------------------------------------------------------
# stepping


class _CohortRing:
    """Infected mosquitoes of a run as the last ``n_tm`` entry rows, indexed by
    the cohort offset ``x = a - tau``; after ``t`` steps the row of infection
    age ``tau`` is ``(t - tau) mod n_tm`` (see the module docstring)."""

    def __init__(self, k: dict, i_m: np.ndarray):
        self.c2, self.beta2, self.entry = k["im_c2"], k["im_beta2"], k["im_entry"]
        n, n_am = self.c2.shape[0] // 2, self.c2.shape[1]
        self.t = 0
        self.rows = np.zeros((n, n_am))
        with np.errstate(divide="ignore", over="ignore"):
            for tau in range(n):
                cells = i_m[tau:, tau]
                np.divide(cells, self.c2[n - 1 - tau, :n_am - tau],
                          out=self.rows[-tau % n, :n_am - tau], where=cells != 0.0)
        if not np.isfinite(np.max(self.rows)):
            raise ValueError("initial i_m is nonzero where the infection survival "
                             "product underflows; the cohort ring cannot hold it")

    def _aligned(self, table: np.ndarray) -> np.ndarray:
        """The rows of a reversed, doubled table that line up with the ring."""
        n = len(self.rows)
        c = n - 1 - self.t % n
        return table[c:c + n]

    def push(self, infected: np.ndarray) -> None:
        """One step: the oldest cohort row becomes the newest entry row."""
        self.t += 1
        np.multiply(infected, self.entry, out=self.rows[self.t % len(self.rows)])

    def sum_beta(self) -> float:
        """Sum of beta_m * i_m over the cells."""
        return float(np.vdot(self._aligned(self.beta2), self.rows))

    def sum(self) -> float:
        """Sum of i_m over the cells."""
        return float(np.vdot(self._aligned(self.c2), self.rows))

    def field(self) -> np.ndarray:
        """The i_m field the ring holds."""
        n, n_am = self.rows.shape
        i_m = np.zeros((n_am, n))
        for tau in range(n):
            np.multiply(self.rows[(self.t - tau) % n, :n_am - tau],
                        self.c2[n - 1 - tau, :n_am - tau], out=i_m[tau:, tau])
        return i_m


def _sums(state: StateFields, params: ModelParams, grid: Grid, k: dict,
          ring: _CohortRing) -> tuple[float, float, float]:
    """N_h and the mosquito and human pressures of a run's state."""
    return (n_human(state, grid), params.theta * ring.sum_beta() * grid.delta ** 2,
            _human_pressure(state, params, k))


def _outflow(w: np.ndarray, w0, field: np.ndarray, inflow):
    """Mass leaving ``field`` through one removal channel during a step, per
    age row (a scalar for a field with no age axis): the outflow weights
    ``w`` against every cohort moving one cell, plus ``w0`` of the cohort
    entering with ``inflow``."""
    cur, prev = _diagonal(field.ndim)
    mass = np.zeros(field.shape[:-1])
    mass[cur[:-1]] = np.einsum("...j,...j->...", w[cur], field[prev])
    mass += w0 * inflow
    return mass


def _advance(field: np.ndarray, out: np.ndarray, step: np.ndarray, entry,
             inflow) -> np.ndarray:
    """Move ``field`` one cell along every axis into ``out``, decaying by
    ``step``, and fill the structure-age-0 column with ``inflow * entry``."""
    cur, prev = _diagonal(field.ndim)
    out[cur] = field[prev] * step[cur]
    if field.ndim == 2:
        out[0, 1:] = 0.0      # nothing moves into the first age row
    out[..., 0] = inflow * entry
    return out


def _step_inplace(state: StateFields, params: ModelParams, grid: Grid, k: dict,
                  buf: dict) -> None:
    """One step of a run: ``buf`` holds the scratch arrays, the ring holding
    the infected mosquitoes and the sums of ``state``, which it updates."""
    d = grid.delta
    nh, phi_m, phi_h = buf["sums"]
    _above_floor(nh, k, state.t)
    rate_mh = phi_m / nh    # per-susceptible-human rate
    rate_hm = phi_h / nh    # per-susceptible-mosquito rate

    infected_h = state.s_h * rate_mh    # new human infections (by age in full mode)
    infected_m = state.s_m * rate_hm    # new mosquito infections by age
    # recoveries and immunity losses during the step: each channel's share of
    # every cohort's removal (conserves the removal mass split exactly)
    recovered = _outflow(k["ih_out"], k["ih_out0"], state.i_h, infected_h)
    returned = _outflow(k["rh_out"], k["rh_out0"], state.r_h, recovered)

    if state.mode == "full":
        new_s = buf["s_h"]
        new_s[1:] = (state.s_h[:-1] + d * returned[1:]) * k["sh_step"][1:] \
            * np.exp(-d * rate_mh)
        new_s[0] = params.lambda_h * k["sh_entry"] * np.exp(-0.5 * d * rate_mh)
        state.s_h, buf["s_h"] = new_s, state.s_h
    else:
        r_tot = params.mu_h_value() + rate_mh
        s_inf = (params.lambda_h + returned) / r_tot
        state.s_h = state.s_h + (1.0 - np.exp(-r_tot * d)) * (s_inf - state.s_h)

    new_sm = buf["s_m"]
    new_sm[1:] = state.s_m[:-1] * k["sm_step"][1:] * np.exp(-d * rate_hm)
    new_sm[0] = params.lambda_m * k["sm_entry"] * np.exp(-0.5 * d * rate_hm)
    state.s_m, buf["s_m"] = new_sm, state.s_m

    for name, key, inflow in (("i_h", "ih", infected_h), ("r_h", "rh", recovered)):
        field = getattr(state, name)
        setattr(state, name, _advance(field, buf[name], k[key + "_step"], k[key + "_entry"],
                                      inflow))
        buf[name] = field
    buf["ring"].push(infected_m)
    state.t += d
    buf["sums"] = _sums(state, params, grid, k, buf["ring"])


def _field_shapes(grid: Grid, mode: str) -> dict:
    if mode == "full":
        human = {"s_h": (grid.n_ah,), "i_h": (grid.n_ah, grid.n_th),
                 "r_h": (grid.n_ah, grid.n_eta)}
    elif mode == "reduced":
        human = {"s_h": (), "i_h": (grid.n_th,), "r_h": (grid.n_eta,)}
    else:
        raise ValueError(f"unknown state mode {mode!r}")
    return {**human, "s_m": (grid.n_am,), "i_m": (grid.n_am, grid.n_tm)}


def _check_state(state: StateFields, grid: Grid) -> None:
    """Raise ValueError unless every field has the grid's shape, is finite
    and >= 0, and is exactly 0 where structure age exceeds age.  Min/max
    reductions: no temporary larger than the square of the structure-age
    axis, so a full-mode field is never copied."""
    for name, shape in _field_shapes(grid, state.mode).items():
        f = np.asarray(getattr(state, name), dtype=float)
        if f.shape != shape:
            raise ValueError(f"state field {name} has shape {f.shape}; the grid needs {shape}")
        lo, hi = np.min(f), np.max(f)
        if not (lo >= 0.0 and hi < np.inf):
            raise ValueError(f"state field {name} must be finite and >= 0 "
                             f"(min {lo:g}, max {hi:g})")
        # structure-age index above the age index: the strict upper triangle
        # of the leading square block
        if f.ndim == 2 and np.max(np.triu(f[:f.shape[1]], 1)) != 0.0:
            raise ValueError(f"state field {name} is nonzero where structure age exceeds age")


def _start(init: StateFields, params: ModelParams, grid: Grid):
    """A run from ``init``: a checked copy of it, whose i_m is held by the
    ring in ``buf`` (``state.i_m`` is None until the run returns), the kernel
    and ``buf``."""
    _check_state(init, grid)
    k = _kernel(params, grid, init.mode)
    state = init.copy()
    ring = _CohortRing(k, state.i_m)
    state.i_m = None
    buf = {"i_h": np.zeros_like(state.i_h), "r_h": np.zeros_like(state.r_h),
           "s_m": np.zeros_like(state.s_m), "ring": ring}
    if state.mode == "full":
        buf["s_h"] = np.zeros_like(state.s_h)
    buf["sums"] = _sums(state, params, grid, k, ring)
    return state, k, buf


def step(state: StateFields, params: ModelParams, grid: Grid) -> StateFields:
    """One unit-CFL step; returns a new state at t + delta."""
    out, k, buf = _start(state, params, grid)
    _step_inplace(out, params, grid, k, buf)
    out.i_m = buf["ring"].field()
    return out


def observe(state: StateFields, params: ModelParams, grid: Grid,
            sums: tuple[float, float, float, float] | None = None) -> Observables:
    """Observables of ``state``; ValueError if any is not finite.

    A run passes ``sums``: the N_h and the two pressures it already computed
    for the state, and the sum of the i_m cells its ring holds.
    """
    if sums is None:
        k = _kernel(params, grid, state.mode)
        sums = (n_human(state, grid), _mosquito_pressure(state, params, k),
                _human_pressure(state, params, k), float(np.sum(state.i_m)))
    d = grid.delta
    nh, phi_m, phi_h, sum_i_m = sums
    if state.mode == "full":
        total_ih = float(np.sum(state.i_h)) * d * d
        foi_mh = float(np.sum(state.s_h)) * d / nh * phi_m
    else:
        total_ih = float(np.sum(state.i_h)) * d
        foi_mh = float(state.s_h) / nh * phi_m
    sum_s_m = float(np.sum(state.s_m))
    obs = Observables(t=state.t, n_h=nh, n_m=sum_s_m * d + sum_i_m * d * d,
                      total_i_h=total_ih, total_i_m=sum_i_m * d * d,
                      foi_mh_total=foi_mh, foi_hm_total=sum_s_m * d / nh * phi_h)
    if not all(np.isfinite((obs.n_h, obs.n_m, obs.total_i_h, obs.total_i_m,
                            obs.foi_mh_total, obs.foi_hm_total))):
        raise ValueError(f"non-finite observable at t = {state.t:g}: {obs.csv_row()}")
    return obs


SNAPSHOT_MAGIC = b"STRUCTSIM\x01"


def save_snapshot(state: StateFields, grid: Grid, path: str) -> None:
    """Versioned binary snapshot: header with the grid geometry, then the
    field arrays row-major as little-endian 64-bit floats."""
    import struct

    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        mode_flag = 1 if state.mode == "full" else 0
        fh.write(struct.pack("<B", mode_flag))
        fh.write(struct.pack("<7d", grid.delta, grid.a_max_h, grid.a_max_m,
                             grid.tau_max_h, grid.tau_max_m, grid.eta_max, state.t))
        s_h = np.atleast_1d(np.asarray(state.s_h, dtype="<f8"))
        for arr in (s_h, state.i_h, state.r_h, state.s_m, state.i_m):
            a = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
            fh.write(struct.pack("<B", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}q", *a.shape))
            fh.write(a.tobytes())


def load_snapshot(path: str) -> tuple[StateFields, Grid]:
    """Read a :func:`save_snapshot` file; ValueError if it is not one, is
    truncated, or holds arrays whose rank or shape do not match its grid."""
    import struct

    with open(path, "rb") as fh:
        def read(n: int, what: str) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"snapshot {path!r} is truncated: {what} needs {n} bytes, "
                                 f"{len(data)} remain")
            return data

        if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
            raise ValueError(f"{path!r} is not a state snapshot")
        (mode_flag,) = struct.unpack("<B", read(1, "the mode flag"))
        if mode_flag not in (0, 1):
            raise ValueError(f"snapshot {path!r} has an unknown mode flag {mode_flag}")
        header = struct.unpack("<7d", read(56, "the header"))
        try:
            grid = Grid(*header[:6])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"snapshot {path!r} has a bad grid header: {exc}") from None
        mode = "full" if mode_flag else "reduced"
        arrays = []
        for name, shape in _field_shapes(grid, mode).items():
            shape = shape or (1,)              # the reduced scalar s_h is stored as [1]
            (ndim,) = struct.unpack("<B", read(1, f"the rank of {name}"))
            if ndim != len(shape):
                raise ValueError(f"snapshot {path!r}: {name} has rank {ndim}, "
                                 f"its grid needs {len(shape)}")
            got = struct.unpack(f"<{ndim}q", read(8 * ndim, f"the shape of {name}"))
            if got != shape:
                raise ValueError(f"snapshot {path!r}: {name} has shape {got}, "
                                 f"its grid needs {shape}")
            n = math.prod(shape)
            arr = np.fromfile(fh, dtype="<f8", count=n)    # no bytes copy held beside it
            if arr.size != n:
                raise ValueError(f"snapshot {path!r} is truncated: {name} needs {8 * n} "
                                 f"bytes, fewer remain")
            arrays.append(arr.reshape(shape))
        if fh.read(1):
            raise ValueError(f"snapshot {path!r} has bytes after its last array")
    s_h = arrays[0] if mode == "full" else float(arrays[0][0])
    return StateFields(mode, header[6], s_h, arrays[1], arrays[2], arrays[3], arrays[4]), grid


def simulate(params: ModelParams, grid: Grid, init: StateFields,
             t_end: float, output_every: int = 1,
             return_final: bool = False):
    """March the system to t_end, sampling observables every ``output_every``
    steps (the initial and final instants are always included).

    ``init`` must have the grid's shapes, finite values >= 0 and zeros where
    structure age exceeds age; ValueError otherwise, and also when an
    observable is not finite.  Deterministic for fixed inputs.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    state, k, buf = _start(init, params, grid)
    ring = buf["ring"]
    n_steps = int(round(t_end / grid.delta))
    rows = [observe(state, params, grid, (*buf["sums"], ring.sum()))]
    for n in range(1, n_steps + 1):
        _step_inplace(state, params, grid, k, buf)
        state.t = n * grid.delta + init.t   # avoid accumulated float drift
        if n % output_every == 0 or n == n_steps:
            rows.append(observe(state, params, grid, (*buf["sums"], ring.sum())))
    if return_final:
        state.i_m = ring.field()
        return rows, state
    return rows
