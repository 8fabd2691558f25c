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

Triangular fields are dense [age, structure-age] arrays; cells with
structure age exceeding chronological age are identically zero and stay so
under the diagonal shift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Grid, SurvivalTable, build_survival, decay_factors
from .params import ModelParams
from .rates import eval_rate


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


def _triangle_decays(r: np.ndarray, delta: float):
    """Entry factor (axis origin -> first center) and diagonal step factors
    for a triangular [age, structure] field with removal-rate table ``r``."""
    entry = np.exp(-0.5 * delta * r[:, 0])
    step = np.ones_like(r)
    step[1:, 1:] = np.exp(-0.5 * delta * (r[:-1, :-1] + r[1:, 1:]))
    return entry, step


def _share(part_prev, part_cur, total_prev, total_cur) -> np.ndarray:
    """Fraction of a cell-to-cell removal belonging to one removal channel,
    using the same rate trapezoid as the decay factor."""
    num = np.asarray(part_prev + part_cur, dtype=float)
    den = np.asarray(total_prev + total_cur, dtype=float)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


@functools.lru_cache(maxsize=8)
def _kernel(params: ModelParams, grid: Grid, mode: str):
    delta = grid.delta
    sur = build_survival(params, grid)
    ages_h, ages_m = grid.ages_h, grid.ages_m
    taus_h, taus_m, etas = grid.taus_h, grid.taus_m, grid.etas

    k = {"sur": sur, "delta": delta, "eps_floor": params.epsilon_floor(grid)}

    # mosquito infected-field decays and transmission weights (both modes).
    # Transmission probabilities are sampled half a cell up in age: the
    # unit-CFL dynamics pins (age - infection age) to whole cells, so the
    # representative age lag of a diagonal cell is its midpoint.
    am2 = ages_m[:, None]
    tm2 = np.broadcast_to(taus_m[None, :], (grid.n_am, grid.n_tm))
    k["im_entry"], k["im_step"] = _triangle_decays(
        np.asarray(eval_rate(params.mu_m, am2, tm2) + eval_rate(params.nu_m, am2, tm2))
        + np.zeros_like(tm2), delta)
    k["beta_m_grid"] = np.asarray(eval_rate(params.beta_m, am2 + 0.5 * delta, tm2))

    if mode == "full":
        a2 = ages_h[:, None]
        t2 = np.broadcast_to(taus_h[None, :], (grid.n_ah, grid.n_th))
        e2 = np.broadcast_to(etas[None, :], (grid.n_ah, grid.n_eta))
        gam = np.asarray(eval_rate(params.gamma_h, a2, t2)) + np.zeros_like(t2)
        r_ih = (np.asarray(eval_rate(params.mu_h, a2, t2))
                + np.asarray(eval_rate(params.nu_h, a2, t2)) + gam) + np.zeros_like(t2)
        kh = np.asarray(eval_rate(params.k_h, a2, e2)) + np.zeros_like(e2)
        r_rh = (np.asarray(eval_rate(params.mu_h, a2, e2)) + kh) + np.zeros_like(e2)
        k["ih_entry"], k["ih_step"] = _triangle_decays(r_ih, delta)
        k["rh_entry"], k["rh_step"] = _triangle_decays(r_rh, delta)
        # removal-channel shares matching the decay trapezoids
        k["gamma_share"] = np.zeros_like(gam)
        k["gamma_share"][1:, 1:] = _share(gam[:-1, :-1], gam[1:, 1:],
                                          r_ih[:-1, :-1], r_ih[1:, 1:])
        k["gamma_share0"] = _share(gam[:, 0], gam[:, 0], r_ih[:, 0], r_ih[:, 0])
        k["k_share"] = np.zeros_like(kh)
        k["k_share"][1:, 1:] = _share(kh[:-1, :-1], kh[1:, 1:],
                                      r_rh[:-1, :-1], r_rh[1:, 1:])
        k["k_share0"] = _share(kh[:, 0], kh[:, 0], r_rh[:, 0], r_rh[:, 0])
        k["beta_h_grid"] = np.asarray(eval_rate(
            params.beta_h, ages_h[:, None] + 0.5 * delta,
            np.broadcast_to(taus_h[None, :], (grid.n_ah, grid.n_th))))
    else:
        if not params.reduced_mode_eligible:
            raise ValueError("reduced mode requires age-independent human rates")
        mu_h = params.mu_h_value()
        gam1 = np.asarray(eval_rate(params.gamma_h, 0.0, taus_h)) + np.zeros_like(taus_h)
        r_ih = mu_h + np.asarray(eval_rate(params.nu_h, 0.0, taus_h)) + gam1
        kh1 = np.asarray(eval_rate(params.k_h, 0.0, etas)) + np.zeros_like(etas)
        r_rh = mu_h + kh1
        k["ih_entry1"], k["ih_step1"] = decay_factors(r_ih, delta)
        k["rh_entry1"], k["rh_step1"] = decay_factors(r_rh, delta)
        k["gamma_share1"] = np.zeros_like(gam1)
        k["gamma_share1"][1:] = _share(gam1[:-1], gam1[1:], r_ih[:-1], r_ih[1:])
        k["gamma_share10"] = float(_share(gam1[0], gam1[0], r_ih[0], r_ih[0]))
        k["k_share1"] = np.zeros_like(kh1)
        k["k_share1"][1:] = _share(kh1[:-1], kh1[1:], r_rh[:-1], r_rh[1:])
        k["k_share10"] = float(_share(kh1[0], kh1[0], r_rh[0], r_rh[0]))
        k["mu_h"] = mu_h
        k["beta_h_tau"] = np.asarray(eval_rate(params.beta_h, 0.0, taus_h))
    return k


# ---------------------------------------------------------------------------
# forces of infection


def _mosquito_pressure(state: StateFields, params: ModelParams, grid: Grid) -> float:
    """theta * double integral of beta_m * I_m  (bites turning infectious)."""
    k = _kernel(params, grid, state.mode)
    return params.theta * float(np.sum(k["beta_m_grid"] * state.i_m)) * grid.delta ** 2


def _human_pressure(state: StateFields, params: ModelParams, grid: Grid) -> float:
    """theta * double integral of beta_h * I_h."""
    k = _kernel(params, grid, state.mode)
    if state.mode == "full":
        return params.theta * float(np.sum(k["beta_h_grid"] * state.i_h)) * grid.delta ** 2
    return params.theta * float(np.sum(k["beta_h_tau"] * state.i_h)) * grid.delta


def n_human(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    if state.mode == "full":
        return float(np.sum(state.s_h) * d + np.sum(state.i_h) * d * d
                     + np.sum(state.r_h) * d * d)
    return float(state.s_h + np.sum(state.i_h) * d + np.sum(state.r_h) * d)


def n_mosquito(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    return float(np.sum(state.s_m) * d + np.sum(state.i_m) * d * d)


def _checked_n_h(state: StateFields, params: ModelParams, grid: Grid) -> float:
    nh = n_human(state, grid)
    k = _kernel(params, grid, state.mode)
    if nh < 0.5 * k["eps_floor"]:
        raise DegeneratePopulationError(
            f"N_h = {nh:g} fell below half the floor {k['eps_floor']:g} at t = {state.t:g}")
    return nh


def force_mh(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on humans by age: S_h(a)/N_h * theta * iint beta_m I_m."""
    nh = _checked_n_h(state, params, grid)
    phi = _mosquito_pressure(state, params, grid)
    s_h = np.atleast_1d(np.asarray(state.s_h, dtype=float))
    return s_h / nh * phi


def force_hm(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on mosquitoes by age: S_m(a)/N_h * theta * iint beta_h I_h."""
    nh = _checked_n_h(state, params, grid)
    phi = _human_pressure(state, params, grid)
    return state.s_m / nh * phi


# ---------------------------------------------------------------------------
# initial data


def default_initial(params: ModelParams, grid: Grid, infected_fraction: float = 0.0,
                    mode: str = "reduced", seed_tau_band: float = 0.1,
                    infected_fraction_m: float = 0.0) -> StateFields:
    """Disease-free profile with a fraction of susceptibles moved into the
    infected pool on a thin infection-age band (profile follows the
    infection-survival decay).  Total mass of each population is preserved
    exactly.  ``infected_fraction_m`` seeds the mosquito reservoir the same
    way; the bistable regime is only reachable with a mosquito seed, since
    seeded humans thin out before the transmissive infection ages.
    """
    if not (0.0 <= infected_fraction < 1.0):
        raise ValueError("infected_fraction must lie in [0, 1)")
    if not (0.0 <= infected_fraction_m < 1.0):
        raise ValueError("infected_fraction_m must lie in [0, 1)")
    k = _kernel(params, grid, mode)
    sur: SurvivalTable = k["sur"]
    d = grid.delta
    # disease-free profile assembled in the same multiplication order as the
    # transport step, so it is a bit-exact fixed point
    s_m0 = np.cumprod(np.concatenate(
        ([params.lambda_m * sur.decay_m_entry[0]], sur.decay_m_step[1:])))
    i_m0 = np.zeros((grid.n_am, grid.n_tm))
    if infected_fraction_m > 0.0:
        band_m = grid.taus_m <= seed_tau_band + 1e-12
        prof_m = np.where(band_m[None, :], k["im_entry"][:, None]
                          * np.cumprod(np.where(band_m[None, :], k["im_step"], 1.0),
                                       axis=1), 0.0)
        prof_m[:, 0] = k["im_entry"]
        prof_m = np.where(band_m[None, :], prof_m, 0.0)
        prof_m *= grid.taus_m[None, :] <= grid.ages_m[:, None] + 1e-12
        norms = np.sum(prof_m, axis=1) * d
        prof_m = np.divide(prof_m, norms[:, None], out=np.zeros_like(prof_m),
                           where=norms[:, None] > 0)
        i_m0 = infected_fraction_m * s_m0[:, None] * prof_m
        s_m0 = (1.0 - infected_fraction_m) * s_m0

    band = grid.taus_h <= seed_tau_band + 1e-12
    if mode == "reduced":
        prof = np.where(band, np.cumprod(np.where(band, k["ih_step1"], 1.0)), 0.0)
        prof[0] = k["ih_entry1"][0]
        prof = np.where(band, prof, 0.0)
        prof = prof / (np.sum(prof) * d) if prof.any() else prof
        s_tot = params.lambda_h / k["mu_h"]
        i_h0 = infected_fraction * s_tot * prof
        r_h0 = np.zeros(grid.n_eta)
        return StateFields("reduced", 0.0, (1.0 - infected_fraction) * s_tot,
                           i_h0, r_h0, s_m0, i_m0)

    s_h0 = np.cumprod(np.concatenate(
        ([params.lambda_h * sur.decay_h_entry[0]], sur.decay_h_step[1:])))
    # tau profile per age row, proportional to the infection-survival factor
    prof = np.where(band[None, :], k["ih_entry"][:, None]
                    * np.cumprod(np.where(band[None, :], k["ih_step"], 1.0), axis=1), 0.0)
    prof[:, 0] = k["ih_entry"]
    prof = np.where(band[None, :], prof, 0.0)
    prof *= grid.taus_h[None, :] <= grid.ages_h[:, None] + 1e-12
    norms = np.sum(prof, axis=1) * d
    prof = np.divide(prof, norms[:, None], out=np.zeros_like(prof), where=norms[:, None] > 0)
    i_h0 = infected_fraction * s_h0[:, None] * prof
    return StateFields("full", 0.0, (1.0 - infected_fraction) * s_h0, i_h0,
                       np.zeros((grid.n_ah, grid.n_eta)), s_m0, i_m0)


# ---------------------------------------------------------------------------
# stepping


def _step_inplace(state: StateFields, params: ModelParams, grid: Grid, k: dict,
                  buf: dict) -> None:
    d = grid.delta
    nh = _checked_n_h(state, params, grid)
    phi_m = _mosquito_pressure(state, params, grid)   # theta * iint beta_m I_m
    phi_h = _human_pressure(state, params, grid)      # theta * iint beta_h I_h
    rate_mh = phi_m / nh   # per-susceptible-human infection rate
    rate_hm = phi_h / nh   # per-susceptible-mosquito infection rate
    sur: SurvivalTable = k["sur"]

    if state.mode == "full":
        lam_mh = state.s_h * rate_mh                       # new human infections by age
        # recoveries generated during the step: the recovery share of every
        # cohort's removal (conserves the removal mass split exactly)
        rb = np.zeros_like(state.s_h)
        rb[1:] = np.sum(k["gamma_share"][1:, 1:] * (1.0 - k["ih_step"][1:, 1:])
                        * state.i_h[:-1, :-1], axis=1)
        rb += k["gamma_share0"] * lam_mh * (1.0 - k["ih_entry"])
        # immunity losses returning to the susceptible pool, same bookkeeping
        src = np.zeros_like(state.s_h)
        src[1:] = np.sum(k["k_share"][1:, 1:] * (1.0 - k["rh_step"][1:, 1:])
                         * state.r_h[:-1, :-1], axis=1)
        src += k["k_share0"] * rb * (1.0 - k["rh_entry"])

        new_s = buf["s_h"]
        new_s[1:] = (state.s_h[:-1] + d * src[1:]) * sur.decay_h_step[1:] \
            * np.exp(-d * rate_mh)
        new_s[0] = params.lambda_h * sur.decay_h_entry[0] * np.exp(-0.5 * d * rate_mh)

        new_ih = buf["i_h"]
        new_ih[1:, 1:] = state.i_h[:-1, :-1] * k["ih_step"][1:, 1:]
        new_ih[0, 1:] = 0.0
        new_ih[:, 0] = lam_mh * k["ih_entry"]

        new_rh = buf["r_h"]
        new_rh[1:, 1:] = state.r_h[:-1, :-1] * k["rh_step"][1:, 1:]
        new_rh[0, 1:] = 0.0
        new_rh[:, 0] = rb * k["rh_entry"]

        state.s_h, buf["s_h"] = new_s, state.s_h
        state.i_h, buf["i_h"] = new_ih, state.i_h
        state.r_h, buf["r_h"] = new_rh, state.r_h
    else:
        births_i = state.s_h * rate_mh                       # total new infections
        rb = float(np.sum(k["gamma_share1"][1:] * (1.0 - k["ih_step1"][1:])
                          * state.i_h[:-1]))
        rb += k["gamma_share10"] * births_i * (1.0 - k["ih_entry1"][0])
        src_tot = float(np.sum(k["k_share1"][1:] * (1.0 - k["rh_step1"][1:])
                               * state.r_h[:-1]))
        src_tot += k["k_share10"] * rb * (1.0 - k["rh_entry1"][0])

        r_tot = k["mu_h"] + rate_mh
        s_inf = (params.lambda_h + src_tot) / r_tot
        state.s_h = state.s_h + (1.0 - np.exp(-r_tot * d)) * (s_inf - state.s_h)

        new_ih = buf["i_h"]
        new_ih[1:] = state.i_h[:-1] * k["ih_step1"][1:]
        new_ih[0] = births_i * k["ih_entry1"][0]
        state.i_h, buf["i_h"] = new_ih, state.i_h

        new_rh = buf["r_h"]
        new_rh[1:] = state.r_h[:-1] * k["rh_step1"][1:]
        new_rh[0] = rb * k["rh_entry1"][0]
        state.r_h, buf["r_h"] = new_rh, state.r_h

    # mosquitoes (same in both modes)
    lam_hm = state.s_m * rate_hm
    new_sm = buf["s_m"]
    new_sm[1:] = state.s_m[:-1] * sur.decay_m_step[1:] * np.exp(-d * rate_hm)
    new_sm[0] = params.lambda_m * sur.decay_m_entry[0] * np.exp(-0.5 * d * rate_hm)

    new_im = buf["i_m"]
    new_im[1:, 1:] = state.i_m[:-1, :-1] * k["im_step"][1:, 1:]
    new_im[0, 1:] = 0.0
    new_im[:, 0] = lam_hm * k["im_entry"]

    state.s_m, buf["s_m"] = new_sm, state.s_m
    state.i_m, buf["i_m"] = new_im, state.i_m
    state.t += d


def _make_buffers(state: StateFields) -> dict:
    buf = {"i_h": np.zeros_like(state.i_h), "r_h": np.zeros_like(state.r_h),
           "s_m": np.zeros_like(state.s_m), "i_m": np.zeros_like(state.i_m)}
    if state.mode == "full":
        buf["s_h"] = np.zeros_like(state.s_h)
    return buf


def step(state: StateFields, params: ModelParams, grid: Grid) -> StateFields:
    """One unit-CFL step; returns a new state at t + delta."""
    k = _kernel(params, grid, state.mode)
    out = state.copy()
    _step_inplace(out, params, grid, k, _make_buffers(out))
    return out


def observe(state: StateFields, params: ModelParams, grid: Grid) -> Observables:
    d = grid.delta
    nh = n_human(state, grid)
    phi_m = _mosquito_pressure(state, params, grid)
    phi_h = _human_pressure(state, params, grid)
    if state.mode == "full":
        total_ih = float(np.sum(state.i_h)) * d * d
        foi_mh = float(np.sum(state.s_h)) * d / nh * phi_m
    else:
        total_ih = float(np.sum(state.i_h)) * d
        foi_mh = float(state.s_h) / nh * phi_m
    foi_hm = float(np.sum(state.s_m)) * d / nh * phi_h
    return Observables(t=state.t, n_h=nh, n_m=n_mosquito(state, grid),
                       total_i_h=total_ih,
                       total_i_m=float(np.sum(state.i_m)) * d * d,
                       foi_mh_total=foi_mh, foi_hm_total=foi_hm)


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
    import struct

    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path!r} is not a state snapshot")
        (mode_flag,) = struct.unpack("<B", fh.read(1))
        header = struct.unpack("<7d", fh.read(56))
        grid = Grid(*header[:6])
        t = header[6]
        arrays = []
        for _ in range(5):
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
            n = int(np.prod(shape))
            arrays.append(np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape).copy())
    mode = "full" if mode_flag else "reduced"
    s_h = arrays[0] if mode == "full" else float(arrays[0][0])
    return StateFields(mode, t, s_h, arrays[1], arrays[2], arrays[3], arrays[4]), grid


def simulate(params: ModelParams, grid: Grid, init: StateFields | float,
             t_end: float, output_every: int = 1,
             return_final: bool = False):
    """March the system to t_end, sampling observables every ``output_every``
    steps (the initial and final instants are always included).

    ``init`` may be a prepared state or a seed fraction for
    :func:`default_initial` in reduced mode.  Deterministic for fixed inputs.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if not isinstance(init, StateFields):
        init = default_initial(params, grid, float(init), mode="reduced")
    state = init.copy()
    k = _kernel(params, grid, state.mode)
    buf = _make_buffers(state)
    n_steps = int(round(t_end / grid.delta))
    rows = [observe(state, params, grid)]
    for n in range(1, n_steps + 1):
        _step_inplace(state, params, grid, k, buf)
        state.t = n * grid.delta + init.t   # avoid accumulated float drift
        if n % output_every == 0 or n == n_steps:
            rows.append(observe(state, params, grid))
    if return_final:
        return rows, state
    return rows
