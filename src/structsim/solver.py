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

One transport rule serves every structured field (i_h, r_h and i_m) in both
layouts.  The last axis of a field is its structure age (infection or
recovery age); the leading axis, present except for the REDUCED human
fields, is chronological age.  A step is the renewal representation on a
shifted index: every cell moves one cell along all of its axes, is
multiplied by its step factor, and the structure-age-0 column is filled
with the step's inflow times the entry factor.  The mass a removal channel
(recovery out of i_h, immunity loss out of r_h) takes during the step is
one weighted sum of the field with fused weights share * (1 - step
factor), and it is the inflow of the next pool.  Only the susceptible
humans are updated per layout: an age profile in FULL, a scalar relaxing
to its balance in REDUCED.

Cells of a field with two axes whose structure age exceeds chronological
age are identically zero and stay so under the diagonal shift.
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
    out = np.zeros_like(total)
    _share(part[prev], part[cur], total[prev], total[cur], out[cur])
    out[cur] *= 1.0 - step[cur]
    out0 = _share(part[..., 0], part[..., 0], total[..., 0], total[..., 0],
                  np.zeros_like(total[..., 0])) * (1.0 - entry)
    return entry, step, out, out0


@functools.lru_cache(maxsize=8)
def _kernel(params: ModelParams, grid: Grid, mode: str):
    delta = grid.delta
    k = {"sur": build_survival(params, grid), "delta": delta,
         "eps_floor": params.epsilon_floor(grid)}

    # Transmission probabilities are sampled half a cell up in age: the
    # unit-CFL dynamics pins (age - infection age) to whole cells, so the
    # representative age lag of a diagonal cell is its midpoint.
    am2 = grid.ages_m[:, None]
    tm2 = np.broadcast_to(grid.taus_m[None, :], (grid.n_am, grid.n_tm))
    k["im_entry"], k["im_step"] = decay_factors(
        np.asarray(params.removal_rate("i_m")(am2, tm2)) + np.zeros_like(tm2), delta)
    k["beta_m"] = np.asarray(eval_rate(params.beta_m, am2 + 0.5 * delta, tm2))

    # human rates on the field axes: (age column, structure age) in full
    # mode, structure age alone in reduced mode, where no rate reads age
    if mode == "full":
        a_h = grid.ages_h[:, None]
        taus = np.broadcast_to(grid.taus_h[None, :], (grid.n_ah, grid.n_th))
        etas = np.broadcast_to(grid.etas[None, :], (grid.n_ah, grid.n_eta))
    else:
        if not params.reduced_mode_eligible:
            raise ValueError("reduced mode requires age-independent human rates")
        a_h, taus, etas = 0.0, grid.taus_h, grid.etas
    # each rate table is dropped before the next is built: in full mode they
    # are the size of the fields
    gam = np.asarray(eval_rate(params.gamma_h, a_h, taus)) + np.zeros_like(taus)
    r_ih = eval_rate(params.mu_h, a_h, taus) + eval_rate(params.nu_h, a_h, taus) + gam
    k["ih_entry"], k["ih_step"], k["ih_out"], k["ih_out0"] = _channel_tables(gam, r_ih, delta)
    del gam, r_ih
    kh = np.asarray(eval_rate(params.k_h, a_h, etas)) + np.zeros_like(etas)
    r_rh = eval_rate(params.mu_h, a_h, etas) + kh
    k["rh_entry"], k["rh_step"], k["rh_out"], k["rh_out0"] = _channel_tables(kh, r_rh, delta)
    del kh, r_rh
    k["beta_h"] = np.asarray(eval_rate(params.beta_h, a_h + 0.5 * delta, taus))
    return k


# ---------------------------------------------------------------------------
# forces of infection


def _mosquito_pressure(state: StateFields, params: ModelParams, k: dict) -> float:
    """theta * double integral of beta_m * I_m  (bites turning infectious)."""
    return params.theta * float(np.sum(k["beta_m"] * state.i_m)) * k["delta"] ** 2


def _human_pressure(state: StateFields, params: ModelParams, k: dict) -> float:
    """theta * integral of beta_h * I_h over the human field's axes."""
    return params.theta * float(np.sum(k["beta_h"] * state.i_h)) * k["delta"] ** state.i_h.ndim


def n_human(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    if state.mode == "full":
        return float(np.sum(state.s_h) * d + np.sum(state.i_h) * d * d
                     + np.sum(state.r_h) * d * d)
    return float(state.s_h + np.sum(state.i_h) * d + np.sum(state.r_h) * d)


def n_mosquito(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    return float(np.sum(state.s_m) * d + np.sum(state.i_m) * d * d)


def _checked_n_h(state: StateFields, grid: Grid, k: dict) -> float:
    nh = n_human(state, grid)
    if nh < 0.5 * k["eps_floor"]:
        raise DegeneratePopulationError(
            f"N_h = {nh:g} fell below half the floor {k['eps_floor']:g} at t = {state.t:g}")
    return nh


def force_mh(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on humans by age: S_h(a)/N_h * theta * iint beta_m I_m."""
    k = _kernel(params, grid, state.mode)
    nh = _checked_n_h(state, grid, k)
    phi = _mosquito_pressure(state, params, k)
    s_h = np.atleast_1d(np.asarray(state.s_h, dtype=float))
    return s_h / nh * phi


def force_hm(state: StateFields, params: ModelParams, grid: Grid) -> np.ndarray:
    """Infection pressure on mosquitoes by age: S_m(a)/N_h * theta * iint beta_h I_h."""
    k = _kernel(params, grid, state.mode)
    nh = _checked_n_h(state, grid, k)
    phi = _human_pressure(state, params, k)
    return state.s_m / nh * phi


# ---------------------------------------------------------------------------
# initial data


def _band_profile(entry: np.ndarray, step: np.ndarray, taus: np.ndarray,
                  ages: np.ndarray, band_width: float, d: float) -> np.ndarray:
    """Structure-age profile per age row on the band ``taus <= band_width``,
    proportional to the survival factor and normalized to unit mass per row
    (rows with no cell inside the triangle stay zero)."""
    band = taus <= band_width + 1e-12
    prof = np.where(band[None, :], entry[:, None]
                    * np.cumprod(np.where(band[None, :], step, 1.0), axis=1), 0.0)
    prof[:, 0] = entry
    prof = np.where(band[None, :], prof, 0.0)
    prof *= taus[None, :] <= ages[:, None] + 1e-12
    norms = np.sum(prof, axis=1) * d
    return np.divide(prof, norms[:, None], out=np.zeros_like(prof), where=norms[:, None] > 0)


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
        ([params.lambda_m * sur.decay_m_entry], sur.decay_m_step[1:])))
    i_m0 = np.zeros((grid.n_am, grid.n_tm))
    if infected_fraction_m > 0.0:
        prof_m = _band_profile(k["im_entry"], k["im_step"], grid.taus_m, grid.ages_m,
                               seed_tau_band, d)
        i_m0 = infected_fraction_m * s_m0[:, None] * prof_m
        s_m0 = (1.0 - infected_fraction_m) * s_m0

    if mode == "reduced":
        band = grid.taus_h <= seed_tau_band + 1e-12
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
        ([params.lambda_h * sur.decay_h_entry], sur.decay_h_step[1:])))
    prof = _band_profile(k["ih_entry"], k["ih_step"], grid.taus_h, grid.ages_h,
                         seed_tau_band, d)
    i_h0 = infected_fraction * s_h0[:, None] * prof
    return StateFields("full", 0.0, (1.0 - infected_fraction) * s_h0, i_h0,
                       np.zeros((grid.n_ah, grid.n_eta)), s_m0, i_m0)


# ---------------------------------------------------------------------------
# stepping


def _outflow(w: np.ndarray, w0, field: np.ndarray, inflow):
    """Mass leaving ``field`` through one removal channel during a step, per
    age row (a scalar for a field with no age axis): the outflow weights
    ``w`` against every cohort moving one cell, plus ``w0`` of the cohort
    entering with ``inflow``."""
    cur, prev = _diagonal(field.ndim)
    mass = np.zeros(field.shape[:-1])
    mass[cur[:-1]] = np.sum(w[cur] * field[prev], axis=-1)
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
    d = grid.delta
    nh = _checked_n_h(state, grid, k)
    rate_mh = _mosquito_pressure(state, params, k) / nh   # per-susceptible-human rate
    rate_hm = _human_pressure(state, params, k) / nh      # per-susceptible-mosquito rate
    sur: SurvivalTable = k["sur"]

    infected_h = state.s_h * rate_mh    # new human infections (by age in full mode)
    infected_m = state.s_m * rate_hm    # new mosquito infections by age
    # recoveries and immunity losses during the step: each channel's share of
    # every cohort's removal (conserves the removal mass split exactly)
    recovered = _outflow(k["ih_out"], k["ih_out0"], state.i_h, infected_h)
    returned = _outflow(k["rh_out"], k["rh_out0"], state.r_h, recovered)

    if state.mode == "full":
        new_s = buf["s_h"]
        new_s[1:] = (state.s_h[:-1] + d * returned[1:]) * sur.decay_h_step[1:] \
            * np.exp(-d * rate_mh)
        new_s[0] = params.lambda_h * sur.decay_h_entry * np.exp(-0.5 * d * rate_mh)
        state.s_h, buf["s_h"] = new_s, state.s_h
    else:
        r_tot = params.mu_h_value() + rate_mh
        s_inf = (params.lambda_h + returned) / r_tot
        state.s_h = state.s_h + (1.0 - np.exp(-r_tot * d)) * (s_inf - state.s_h)

    new_sm = buf["s_m"]
    new_sm[1:] = state.s_m[:-1] * sur.decay_m_step[1:] * np.exp(-d * rate_hm)
    new_sm[0] = params.lambda_m * sur.decay_m_entry * np.exp(-0.5 * d * rate_hm)
    state.s_m, buf["s_m"] = new_sm, state.s_m

    for name, key, inflow in (("i_h", "ih", infected_h), ("r_h", "rh", recovered),
                              ("i_m", "im", infected_m)):
        field = getattr(state, name)
        setattr(state, name, _advance(field, buf[name], k[key + "_step"], k[key + "_entry"],
                                      inflow))
        buf[name] = field
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
    k = _kernel(params, grid, state.mode)
    nh = n_human(state, grid)
    phi_m = _mosquito_pressure(state, params, k)
    phi_h = _human_pressure(state, params, k)
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
