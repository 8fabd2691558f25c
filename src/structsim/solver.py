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
step is the cells weighted by share * (1 - step factor), and it is the
inflow of the next pool.  Only the susceptible humans are updated per
layout: an age profile in FULL, a scalar relaxing to its balance in REDUCED.

No structured field is moved.  Under the shift the cell (a, tau) after t
steps is B_{t-tau}(x) * C[tau, x], with x = a - tau the cohort offset: B_s
is the entry row written at step s (the step's inflow by age times the
entry factor) and C[tau, x] the product of the step factors along the
diagonal from (x, 0) to (x + tau, tau), zero past the age axis.  Each
removal rate reads at most one axis (``ModelParams`` refuses one that
reads both), so C factors exactly: C[tau, x] = G[tau] * e[x + 1] * ... *
e[x + tau], with G the survival product of the terms that read no age
along the structure axis and e[y] the step factor of the terms that read
age from age cell y - 1 to y, 0 from the end of the age axis on.  A run
holds i_h, r_h and i_m as cohort rings, one row per structure age, each row
the cells divided by G[tau]: a step writes one entry row and, where a
removal term reads age, scales every other row that can hold mass by its
window of e (row tau by e[x + tau + 1], a strided view of one vector), so a
cell that leaves the age axis becomes 0; where none does, it sets that one
cell of each row to 0.  Nothing is divided by an age factor.  A ring holds
the rows its run reaches: m = min(n, j + 1 + steps) with j the last
structure-age column of the initial field holding mass and n the length of
the structure axis, so the row a step drops is always empty; of those, the
rows below j + 1 + (steps so far) can hold mass, and no other row is
scaled.  A REDUCED human field has one cohort, so its rows are numbers,
there are no age factors and G is C.

The kernel keeps G, the entry factors, e where age is read, and the weights
a step contracts against the rows, each sampled on the axes it reads:
(outflow weight) * G for a removal channel and beta * G for a pressure, as
an m-vector, or as an (m, n_a) table when the weight reads age (a channel
whose pool has a term that reads age; a beta that reads age).  Beside the
table of a beta whose lag samples factor as f[tau] * h[x]
(``grids.lag_factors``: gauss_exp), on rows no age factor rescales, it
keeps the vectors f * G and h.  A weight
table keeps only its rows from lo on, the first structure age whose move
has a nonzero channel rate at either end (the rows before are exactly 0),
so a channel that starts to remove at some infection or recovery age
keeps no rows before it.  It builds a weight table one structure-age row
at a time and a beta table a block of rows (``grids.row_blocks``) at a
time, so no other table of a ring's size is formed.  A table of m
rows is the leading m rows of the table of the whole axis (a weight
table's kept rows from lo on), so each run builds its kernel once, for
exactly the rows it reaches, and keeps it no longer than the run.  Ring
rows head, head + 1, ... (mod m) hold structure ages 0, 1, ..., so ring
row j is beside table row (j - head) mod m.  A ring stacks the
structure-axis tables it is contracted with (G, a beta * G that reads no
age, and with no age axis the outflow weights) into one block and doubles
it along structure age: columns m - head .. 2m - head - 1 of the block
line up with the unrotated rows, so all of a state's contractions are one
matrix-vector product with the rows, or with their sums on an age axis,
kept in one cache per state.  A rank-one beta f[tau] * h[x] is read from
prefix sums: a step changes a held row only at the cell that leaves the age
axis, so from its first step the ring keeps P[p] = cumsum(h * rows[p]) for
each row p, formed once as the row enters, and the pressure is f * G dotted
with P[(head + tau) mod m, n - 1 - tau], two strided runs of P.  P takes
the place of the (m, n) beta * G table: the start state is read from the
table, and the run drops it before its first step.  Any other beta that
reads age (one that reads age alone, or one on rows an age factor
rescales) is two contiguous dot products over the filled rows, one on each
side of the wrap.  The outflow
into each age row sums a skewed diagonal of the same pieces, weights and
rows both through strided views, with one rule for both shapes of
weights: a table's kept rows, or a vector broadcast along the age axis; a
field is written from its ring through the same skewed view of each piece.
Initial data enters a ring divided by G, read one structure-age
column with mass at a time.  The seed of :func:`default_initial` is
column-major (structure age major), so each such column is contiguous, its
band is the leading cells of the buffer and the cells past the band are
zero pages a run never touches; the band, its factors included, is formed
as whole rows a block of age rows (``grids.row_blocks``) at a time, so it
is bit for bit the row-major seed and no table of the band's size is
built.  Once the rings hold the initial state, a run drops its own
reference to it, so a seed that no caller keeps (the CLI's) is freed
before the first step.  A field is rebuilt from its ring into one array
when a run returns its state, and straight into the file, in the same row
blocks, when a run writes its final state as a snapshot; the run drops its
weight tables before that write.

A run computes N_h, the two pressures and the infected-human total of each
state once; the step that leaves the state and the observables sampled at
it share them.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .grids import (Grid, decay_factors, entry_factors, lag_factors, lag_sample, row_blocks,
                    step_factors)
from .manifest import sha256
from .params import ModelParams
from .rates import eval_rate, rate_table


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


def _rate_row(samples: list, t, n: int) -> np.ndarray:
    """Row ``t`` of the sum of rate samples on (structure age, age), added
    in their order as ``ModelParams.removal_rate`` adds them, on ``n``
    ages; a sample that reads no structure age is the same in every row.
    Samples on one axis alone are one row: ``t`` is then ``slice(None)``.
    No samples sum to 0."""
    return np.broadcast_to(functools.reduce(
        operator.add, (s[t] if np.ndim(s) == 2 else s for s in samples), 0.0), (n,))


def _ring_tables(key: str, delta: float, ages, axis: np.ndarray, m: int, removal,
                 part=None, beta=None) -> dict:
    """The tables a cohort ring of ``m`` rows reads (see the module
    docstring): the entry factors; G, the survival product of the removal
    terms that read no age along the structure axis; where a term reads
    age, the age factors ``e``; with a removal channel of rate ``part``, the
    outflow weights times G (the weight of the cell that moves from
    ``(tau, x)``) and the entry cell's weights; with a transmission
    probability ``beta``, beta * G.  A weight or beta is an m-vector where
    it reads no age and a table on ``(structure age, n_a)`` where it does.
    A weight table keeps its rows from ``lo`` on (``<key>_out_lo``), the
    first structure age whose move has a nonzero channel rate at either end:
    the rows before are exactly 0, the channel's share of a removal it takes
    no part in.  It has ``m - lo`` rows, none when the channel removes
    nowhere in the ring's reach.  ``removal``
    are the rates whose sum is the field's removal rate, each reading at
    most one axis; ``ages`` is the field's age axis (0.0 for a field
    without one, which has one cohort).

    Each rate is sampled once, on the axes it reads: on the first ``m``
    structure ages, or ``m + 1`` with a channel (the weight of row
    ``m - 1`` reads step row ``m``), or the whole axis when it is shorter.
    A weight table is built one structure-age row at a time and a beta
    table a block of rows (``grids.row_blocks``) at a time, so the only
    arrays on the age axis of a ring's size are the tables kept."""
    n_t = min(m + (part is not None), len(axis))
    taus = axis[:n_t]
    aged = np.ndim(ages) == 1 and any(spec.reads[0] for spec in removal)
    # the terms that read no age, on the structure axis: G and its step
    # factors, and the channel's weights when they read no age either
    total = _rate_row([eval_rate(spec, 0.0, taus) for spec in removal if not spec.reads[0]],
                      slice(None), n_t)
    channel = (None if part is None or aged
               else _rate_row([eval_rate(part, 0.0, taus)], slice(None), n_t))
    step, weight = step_factors((total, channel), (total, channel), delta)
    g = np.cumprod(np.concatenate(([1.0], step[:m - 1])))
    k = {key + "_g": g}
    if beta is not None:
        # beta at the age-lag midpoint of each cell, in cohort coordinates [tau, x]
        if beta.reads[0]:
            # a block of rows at a time: the lag and the sample's temporaries
            # are one block's, not the table's
            k[key + "_beta_g"] = beta_g = np.empty((m, np.size(ages)))
            for rows in row_blocks(m, np.size(ages)):
                np.multiply(lag_sample(beta, ages, taus[rows, None]), g[rows, None],
                            out=beta_g[rows])
            # its factors f * G and h, where it has them and no age factor
            # rescales the rows
            factors = None if aged else lag_factors(beta, ages, taus[:m])
            if factors is not None:
                k[key + "_beta_fg"], k[key + "_beta_h"] = factors[0] * g, factors[1]
        else:
            k[key + "_beta_g"] = lag_sample(beta, 0.0, taus[:m]) * g
    if not aged:
        entry, out0 = entry_factors(total[0], None if part is None else channel[0], delta)
        k[key + "_entry"] = float(entry)
        if part is not None:
            live = min(m, n_t - 1)
            k[key + "_out0"], k[key + "_out_g"] = float(out0), np.zeros(m)
            k[key + "_out_g"][:live] = weight[:live] * g[:live]
        return k

    # the terms that read age: e[y] carries a cohort from age cell y - 1 to
    # y, and is 0 from y = n_a on, where a cohort leaves the age axis
    n = len(ages)
    by_age = _rate_row([eval_rate(spec, ages, 0.0) for spec in removal if spec.reads[0]],
                       slice(None), n)
    k[key + "_e"] = np.zeros(n + m)
    step_factors((by_age, None), (by_age, None), delta, out=k[key + "_e"][1:n])
    # the entry factors and the outflow weights read the whole removal rate
    columns = taus[:, None]
    samples = ([eval_rate(spec, ages, columns) for spec in removal],
               None if part is None else [eval_rate(part, ages, columns)])

    def rates(t):
        """Row ``t`` of the removal rate and of the channel's rate."""
        return tuple(None if s is None else _rate_row(s, t, n) for s in samples)

    k[key + "_entry"], out0 = entry_factors(*rates(0), delta)
    if part is None:
        return k
    # a move's weights are 0 where the channel's rate is 0 at both of its
    # ends: lo is the first move the channel takes from, m when none is
    first = next((t for t in range(min(n_t, n)) if np.any(rates(t)[1])), m + 1)
    lo = max(first - 1, 0)
    k[key + "_out0"], k[key + "_out_lo"] = out0, lo
    k[key + "_out_g"] = out = np.zeros((m - lo, n))
    moves = range(lo + 1, min(n_t, n))
    cur = rates(lo) if moves else None
    for t in moves:
        # the cells of row t - 1 that move to row t: cohort offsets x < n - t
        prev, cur = cur, rates(t)
        weight = step_factors(prev, cur, delta, slice(t - 1, -1), slice(t, None))[1]
        np.multiply(weight, g[t - 1], out=out[t - 1 - lo, :n - t])
    return k


def _check_reduced(mode: str, params: ModelParams) -> None:
    """A reduced state has no age axis, so its human rates must not read age."""
    if mode == "reduced" and not params.reduced_mode_eligible:
        raise ValueError("reduced mode requires age-independent human rates")


def _susceptible_factors(params: ModelParams, grid: Grid, mode: str) -> dict:
    """The susceptibles' entry and step factors on their age axes, the
    humans' in the full layout only: all that :func:`default_initial`
    reads of the kernel."""
    delta = grid.delta
    k = {}
    k["sm_entry"], k["sm_step"] = decay_factors(rate_table(params.mu_m, grid.ages_m), delta)
    if mode == "full":
        k["sh_entry"], k["sh_step"] = decay_factors(rate_table(params.mu_h, grid.ages_h), delta)
    else:
        _check_reduced(mode, params)
        k["mu_h"] = params.mu_h_value()
        if not k["mu_h"] > 0:
            raise ValueError("reduced mode needs mu_h > 0: without human mortality "
                             "the susceptible humans have no balance")
    return k


def _kernel(params: ModelParams, grid: Grid, mode: str,
            rows: tuple[int, int, int] | None = None) -> dict:
    """The tables a run reads: the population floor, the susceptibles'
    factors and the ring tables of ``i_h``, ``r_h`` and ``i_m``, each built
    for exactly the first ``rows`` structure ages of its field, in that
    order (None: the whole axes).  A table of ``m`` rows is the leading
    ``m`` rows of the table of the whole axis."""
    delta = grid.delta
    k = _susceptible_factors(params, grid, mode)
    k["eps_floor"] = params.epsilon_floor(grid)
    m_ih, m_rh, m_im = rows or (grid.n_th, grid.n_eta, grid.n_tm)
    # human fields have no age axis in reduced mode, where no rate reads age
    ages = grid.ages_h if mode == "full" else 0.0
    k.update(_ring_tables("ih", delta, ages, grid.taus_h, m_ih, params.removal_terms("i_h"),
                          params.gamma_h, params.beta_h))
    k.update(_ring_tables("rh", delta, ages, grid.etas, m_rh, params.removal_terms("r_h"),
                          params.k_h))
    k.update(_ring_tables("im", delta, grid.ages_m, grid.taus_m, m_im,
                          params.removal_terms("i_m"), beta=params.beta_m))
    return k


# ---------------------------------------------------------------------------
# forces of infection


def _field_pressure(rate, field: np.ndarray, ages, taus: np.ndarray, theta: float,
                    d: float) -> float:
    """theta * integral of beta * field over the field's axes, with beta at
    each cell's age-lag midpoint in field coordinates, ``a + delta/2``: the
    independent reference of the rings' :func:`grids.lag_sample`."""
    beta = rate_table(rate, ages + 0.5 * d, taus)     # a read-only broadcast
    cells = "ij"[-field.ndim:]
    return theta * float(np.einsum(f"{cells},{cells}->", beta, field)) * d ** field.ndim


def _mosquito_pressure(state: StateFields, params: ModelParams, grid: Grid) -> float:
    """theta * double integral of beta_m * I_m  (bites turning infectious)."""
    return _field_pressure(params.beta_m, state.i_m, grid.ages_m[:, None], grid.taus_m,
                           params.theta, grid.delta)


def _human_pressure(state: StateFields, params: ModelParams, grid: Grid) -> float:
    """theta * integral of beta_h * I_h over the human field's axes."""
    _check_reduced(state.mode, params)
    ages = grid.ages_h[:, None] if state.mode == "full" else 0.0
    return _field_pressure(params.beta_h, state.i_h, ages, grid.taus_h, params.theta,
                           grid.delta)


def _population(mode: str, s_h, sum_i_h: float, sum_r_h: float, d: float) -> float:
    """N_h from the susceptibles and the cell sums of i_h and r_h."""
    if mode == "full":
        return float(np.sum(s_h) * d + sum_i_h * d * d + sum_r_h * d * d)
    return float(s_h + sum_i_h * d + sum_r_h * d)


def n_human(state: StateFields, grid: Grid) -> float:
    return _population(state.mode, state.s_h, np.sum(state.i_h), np.sum(state.r_h),
                       grid.delta)


def n_mosquito(state: StateFields, grid: Grid) -> float:
    d = grid.delta
    return float(np.sum(state.s_m) * d + np.sum(state.i_m) * d * d)


def _above_floor(nh: float, floor: float, t: float) -> float:
    if nh < 0.5 * floor:
        raise DegeneratePopulationError(
            f"N_h = {nh:g} fell below half the floor {floor:g} at t = {t:g}")
    return nh


# ---------------------------------------------------------------------------
# initial data


SEED_TAU_BAND = 0.1    # infection-age width of the seeded band


def _band_profile(removal, ages: np.ndarray, taus: np.ndarray, d: float,
                  mass: np.ndarray) -> np.ndarray:
    """Structure-age profile per age row on the band ``taus <= SEED_TAU_BAND``,
    proportional to the survival factor and scaled to ``mass`` per row
    (rows with no cell inside the triangle stay zero).  The band's factors
    are sampled from the removal rate as the kernel samples them; the first
    row of ``step`` is the padding 1 of :func:`decay_factors`, so the
    profile starts at ``entry``.

    The profile is returned column-major (structure age major): the band is
    the leading cells of its buffer, and the zero cells past it are pages
    the process never touches.  Each block of age rows (``row_blocks``) is
    formed as whole rows in one zeroed row-major buffer, so its row norms
    are the sums of the rows of a row-major seed; only the scaled band is
    copied into the profile.  The factors are sampled a block at a time,
    on the block's ages and the age row before it (a step factor carries a
    cohort from ``(tau - 1, a - 1)``), so they are the whole band's bit for
    bit and no table of the band's size is formed."""
    nb = int(np.count_nonzero(taus <= SEED_TAU_BAND + 1e-12))    # taus increase
    prof = np.zeros((len(ages), len(taus)), order="F")
    if nb == 0:
        return prof
    blocks = row_blocks(len(ages), len(taus))
    buffer = np.zeros((blocks[0].stop, len(taus)))
    for rows in blocks:
        block = buffer[:rows.stop - rows.start]
        band = block[:, :nb]
        lead = min(rows.start, 1)       # the age row before the block, if any
        entry, step = decay_factors(
            rate_table(removal, ages[rows.start - lead:rows.stop], taus[:nb, None]), d)
        np.multiply(entry[lead:, None], np.cumprod(step, axis=0)[:, lead:].T, out=band)
        band *= taus[None, :nb] <= ages[rows, None] + 1e-12
        norms = np.sum(block, axis=1) * d
        np.divide(band, norms[:, None], out=band, where=norms[:, None] > 0)
        np.multiply(band, mass[rows, None], out=prof[rows, :nb])
    return prof


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
    k = _susceptible_factors(params, grid, mode)
    d = grid.delta
    # disease-free profile assembled in the same multiplication order as the
    # transport step, so it is a bit-exact fixed point
    s_m0 = np.cumprod(np.concatenate(
        ([params.lambda_m * k["sm_entry"]], k["sm_step"][1:])))
    i_m0 = np.zeros((grid.n_am, grid.n_tm))
    if infected_fraction_m > 0.0:
        i_m0 = _band_profile(params.removal_rate("i_m"), grid.ages_m, grid.taus_m, d,
                             infected_fraction_m * s_m0)
        s_m0 = (1.0 - infected_fraction_m) * s_m0

    if mode == "reduced":
        # the band's survival products, with the entry factor in cell 0
        nb = int(np.count_nonzero(grid.taus_h <= SEED_TAU_BAND + 1e-12))
        prof = np.zeros(grid.n_th)
        if nb:
            entry, step = decay_factors(
                rate_table(params.removal_rate("i_h"), 0.0, grid.taus_h[:nb]), d)
            prof[:nb] = np.cumprod(step)
            prof[0] = entry
        prof = prof / (np.sum(prof) * d) if prof.any() else prof
        s_tot = params.lambda_h / k["mu_h"]
        i_h0 = infected_fraction * s_tot * prof
        r_h0 = np.zeros(grid.n_eta)
        return StateFields("reduced", 0.0, (1.0 - infected_fraction) * s_tot,
                           i_h0, r_h0, s_m0, i_m0)

    s_h0 = np.cumprod(np.concatenate(
        ([params.lambda_h * k["sh_entry"]], k["sh_step"][1:])))
    i_h0 = _band_profile(params.removal_rate("i_h"), grid.ages_h, grid.taus_h, d,
                         infected_fraction * s_h0)
    return StateFields("full", 0.0, (1.0 - infected_fraction) * s_h0, i_h0,
                       np.zeros((grid.n_ah, grid.n_eta)), s_m0, i_m0)


# ---------------------------------------------------------------------------
# stepping


def _skew(rows: np.ndarray, width: int, col: int = 0) -> np.ndarray:
    """The read-only view ``v[i, j] = rows[i, col + j - i]`` of a
    C-contiguous block of rows: column ``j`` runs along a skewed diagonal.
    For ``col + j < i`` it reads the end of row ``i - 1``; numpy refuses a
    view past the block, ``col + width > len(rows) + n - 1``.  It is built
    on the block's buffer, not through ``as_strided``, whose
    ``__array_interface__`` round trip interns and frees a string each call
    and so makes the interpreter rebuild its table of interned strings
    every few thousand steps."""
    size = rows.itemsize
    view = np.ndarray((len(rows), width), rows.dtype, rows, col * size,
                      ((rows.shape[1] - 1) * size, size))
    view.flags.writeable = False
    return view


def _reach(columns: np.ndarray, n: int, n_steps: int) -> int:
    """The structure-age rows a run of ``n_steps`` reaches on an axis of
    ``n`` cells from a field with mass in ``columns``: each step carries a
    cohort one row on, so the last column with mass, plus one, plus the
    steps; at least one row and at most ``n``."""
    last = int(columns[-1]) + 1 if len(columns) else 0
    return max(1, min(n, last + n_steps))


class _CohortRing:
    """A structured field held as the cohorts of the last ``m`` entry rows of
    a run, indexed by the cohort offset ``x = a - tau``: ring row ``(head +
    tau) mod m`` holds the cells of structure age ``tau`` divided by
    ``G[tau]`` (see the module docstring), and is 0 past the age axis.
    ``m`` is the number of rows the run reaches, the rows of the kernel's
    tables, so the oldest row is empty whenever a step drops it; only the
    ``filled`` rows of the lowest structure ages can hold mass.  A field
    with no age axis (the REDUCED human fields) has one cohort, so a row is
    one number.  A ring with a rank-one beta keeps, from its first step on,
    the prefix sums of ``h * rows`` per row (``prefix``) in the place of its
    beta table.  Both shapes contract their structure-axis tables in one
    product per state, and ``fill`` and ``outflow`` read the triangle
    through one skewed view per piece, with age row 0's one cell on its own.
    ``pool`` names the field; the kernel keys of its tables drop the
    underscore.  ``columns`` are the structure-age columns of ``field``
    holding mass, all below ``m``; ``shape`` is the field's."""

    def __init__(self, k: dict, pool: str, field: np.ndarray, columns: np.ndarray):
        key = pool.replace("_", "")
        self.g, self.e, self.beta, self.out, self.fg, self.h = (
            k.get(key + name) for name in ("_g", "_e", "_beta_g", "_out_g", "_beta_fg", "_beta_h"))
        self.prefix = None      # of a rank-one beta, from the first step on
        self.entry, self.head, self.shape = k[key + "_entry"], 0, field.shape
        self.lo = k.get(key + "_out_lo", 0)
        # the structure ages that can hold mass: below the last column with
        # mass, plus one, plus the steps so far
        self.filled = int(columns[-1]) + 1 if len(columns) else 0
        m = len(self.g)
        self.rows = np.zeros((m, *field.shape[:-1]))
        self.dots, self.ones = None, np.ones(field.shape[0]) if field.ndim == 2 else None
        # row tau of the age factors a step applies: e[x + tau + 1] at cohort offset x
        self.windows = (None if self.e is None
                        else np.lib.stride_tricks.sliding_window_view(self.e, field.shape[0])[1:])
        # the structure-axis tables, one row each (``slot``), twice along
        # structure age: columns m - head .. 2m - head - 1 line up with the rows
        tables = {"g": self.g, "beta": self.beta, "out": self.out if field.ndim == 1 else None}
        tables = {name: t for name, t in tables.items() if t is not None and t.ndim == 1}
        self.slot = {name: i for i, name in enumerate(tables)}
        self.block = np.tile(list(tables.values()), 2)
        with np.errstate(divide="ignore", over="ignore"):
            if field.ndim == 1:
                np.divide(field[:m], self.g, out=self.rows, where=field[:m] != 0.0)
            else:
                # read only the columns with mass: each one contiguous run in a
                # column-major seed, a strided pass in a row-major field
                n_a = field.shape[0]
                for tau in columns:
                    cells = field[tau:, tau]
                    np.divide(cells, self.g[tau], out=self.rows[tau, :n_a - tau],
                              where=cells != 0.0)
        if not np.isfinite(np.max(self.rows)):
            raise ValueError(f"initial {pool} is nonzero where its survival product "
                             "underflows; the cohort ring cannot hold it")

    def _pieces(self, table: np.ndarray, stop: int | None = None, lo: int = 0) -> tuple:
        """``(tau0, table rows, ring rows)`` for the structure ages from
        ``lo`` below ``stop`` (default ``m``) in each ring piece, ``0 .. m -
        head - 1`` and ``m - head .. m - 1``: ``tau0`` is the piece's first
        structure age, and table row ``tau - lo`` is beside ring row ``tau``,
        each run of rows contiguous."""
        m, h = len(self.rows), self.head
        stop = m if stop is None else stop
        b0 = max(lo, min(m - h, stop))
        a1 = max(m - h, lo)
        b1 = max(a1, min(m, stop))
        return ((lo, table[:b0 - lo], self.rows[h + lo:h + b0]),
                (a1, table[a1 - lo:b1 - lo], self.rows[h - m + a1:h - m + b1]))

    def _leaving(self, array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells of ``array``, shaped like the rows, at cohort offset ``n
        - 1 - tau`` of the ring row of each structure age ``tau < n``, one
        strided run of the buffer per ring piece: from row head for structure
        ages 0 .. m - head - 1, from row 0 for m - head .. m - 1.  Of the rows
        it is the cell a step moves past the age axis; of the prefix sums, the
        sum of the row's cells on the axis."""
        (m, n), h = array.shape, self.head
        cells, step = array.reshape(-1), max(n - 1, 1)
        return (cells[h * n + n - 1::step][:min(m - h, n)],
                cells[n - 1 - (m - h)::step][:min(h, n - (m - h))] if m - h < n else cells[:0])

    def _prefix_sums(self) -> None:
        """Keep ``prefix[p] = cumsum(h * rows[p])`` for each ring row ``p``:
        at the first step for every row, in the place of the beta table, which
        the ring drops first; after that for the entry row alone, because a
        step changes no other row below its cell that leaves the axis."""
        if self.prefix is None:
            self.beta = None
            self.prefix = np.multiply(self.rows, self.h)
            np.add.accumulate(self.prefix, axis=1, out=self.prefix)
        else:
            row = self.prefix[self.head]
            np.multiply(self.rows[self.head], self.h, out=row)
            np.add.accumulate(row, out=row)

    def _dot(self, table: np.ndarray) -> float:
        """Sum of ``table * rows`` over the filled rows; the rows past them
        are 0."""
        (_, t0, r0), (_, t1, r1) = self._pieces(table, self.filled)
        return float(np.vdot(t0, r0)) + float(np.vdot(t1, r1))

    def _contracted(self, name: str) -> float:
        """The rows contracted with the table ``name`` ("g", "beta" or
        "out"), kept in ``dots`` with every table of ``block``, made once per
        state: one product of the block's window with the rows, or with an
        age axis with the row sums."""
        if self.dots is None:
            m, h = len(self.rows), self.head
            sums = self.rows if self.rows.ndim == 1 else self.rows @ self.ones
            self.dots = (self.block[:, m - h:2 * m - h] @ sums).tolist()
        return self.dots[self.slot[name]]

    def push(self, inflow) -> None:
        """One step: every held cohort moves one cell, and the oldest cohort
        row becomes the newest entry row.  With an age axis each cell of a
        row that can hold mass takes the age factor of the cell it moves
        to, and a cell that leaves the age axis becomes 0."""
        m = len(self.rows)
        if self.rows.ndim == 2 and self.e is None:
            for cells in self._leaving(self.rows):
                cells[...] = 0.0
        elif self.rows.ndim == 2:
            # the rows past the filled ones hold no mass
            for _, e, rows in self._pieces(self.windows, self.filled):
                rows *= e
        self.head = (self.head - 1) % m
        self.rows[self.head] = inflow * self.entry
        self.filled = min(self.filled + 1, m)
        self.dots = None
        if self.h is not None:
            self._prefix_sums()

    def sum(self) -> float:
        """Sum of the field's cells."""
        return self._contracted("g")

    def sum_beta(self) -> float:
        """Sum of beta * cells.  A rank-one beta, ``f[tau] * h[x]``, reads
        from the first step on one prefix sum per row: row ``tau``'s cells on
        the axis, ``x < n - tau``, weighted by ``h``; the rows past the filled
        ones are 0."""
        if self.prefix is not None:
            (m, h), (first, second) = (len(self.rows), self.head), self._leaving(self.prefix)
            return (float(np.dot(self.fg[:len(first)], first))
                    + float(np.dot(self.fg[m - h:m - h + len(second)], second)))
        if self.beta.ndim == 2:
            return self._dot(self.beta)
        return self._contracted("beta")

    def outflow(self):
        """Mass the removal channel takes during a step from the cohorts that
        move one cell (the entering cohort's share is the caller's).  With an
        age axis it is counted by the age row the cohorts arrive in: the
        cell of structure age tau at cohort offset x arrives in age row x +
        tau + 1, so each ring piece's weighted rows are summed along their
        skewed diagonals, over the filled rows from ``lo`` on.  A weight
        table holds the rows of structure ages ``lo .. m - 1``; weights on
        the structure axis alone enter as a read-only broadcast along the
        age axis.  Past the end of a row a skewed diagonal reads the row
        before: cells past the axis, which are 0, but for diagonal 0 of a
        piece from structure age 0, which reads the cells that leave the
        axis; that diagonal's one cell on the axis is added on its own."""
        if self.rows.ndim == 1:
            return self._contracted("out")
        m, n_a = self.rows.shape
        table = self.out.ndim == 2
        mass = np.zeros(n_a)
        for tau0, w, rows in self._pieces(self.out if table else self.out[:, None],
                                          self.filled, self.lo):
            width = n_a - 1 - tau0         # arrivals in age rows 1 + tau0 .. n_a - 1
            if not len(rows) or width <= 0:
                continue
            col = 0
            if tau0 == 0:
                mass[1] += w[0, 0] * rows[0, 0]
                tau0, width, col = 1, width - 1, 1
            w = _skew(w, width, col) if table else np.broadcast_to(w, (len(w), width))
            mass[1 + tau0:] += np.einsum("ij,ij->j", w, _skew(rows, width, col))
        return mass

    def fill(self, out: np.ndarray, start: int = 0) -> np.ndarray:
        """Write age rows ``start .. start + len(out) - 1`` of the field into
        ``out``, row-major on the whole structure axis; a ring with no age
        axis writes its one row, the whole field.  The cell at age ``a`` and
        structure age ``tau`` is ``G[tau]`` times ring row ``tau`` at cohort
        offset ``a - tau``: one product through a skewed view of each piece
        from age row ``max(start, tau0, 1)`` on.  Where ``tau > a`` the view
        reads the end of the row before, cells past the age axis, which are
        0, as in :meth:`outflow`; in age row 0 it would read cells on the
        axis, so that row's one cell is written on its own."""
        out[...] = 0.0
        m = len(self.rows)
        if self.rows.ndim == 1:
            np.multiply(np.roll(self.rows, -self.head), self.g, out=out[:m])
            return out
        stop = start + len(out)
        for tau0, g, rows in self._pieces(self.g):
            if tau0 == start == 0:      # the first piece, never empty
                out[0, 0] = rows[0, 0] * g[0]
            a0 = max(start, tau0, 1)
            if len(rows) and a0 < stop:
                np.multiply(_skew(rows, stop - a0, a0 - tau0).T, g,
                            out=out[a0 - start:, tau0:tau0 + len(rows)])
        return out

    def field(self) -> np.ndarray:
        """The field the ring holds, on the whole structure axis."""
        return self.fill(np.empty(self.shape))


def _sums(state: StateFields, params: ModelParams, grid: Grid,
          buf: dict) -> tuple[float, float, float, float]:
    """N_h, the mosquito and human pressures and the i_h cell sum of a run's
    state."""
    d = grid.delta
    sum_i_h = buf["i_h"].sum()
    nh = _population(state.mode, state.s_h, sum_i_h, buf["r_h"].sum(), d)
    return (nh, params.theta * buf["i_m"].sum_beta() * d ** 2,
            params.theta * buf["i_h"].sum_beta() * d ** (2 if state.mode == "full" else 1),
            sum_i_h)


def _step_inplace(state: StateFields, params: ModelParams, grid: Grid, k: dict,
                  buf: dict) -> None:
    """One step of a run: ``buf`` holds the structured fields, scratch arrays
    and the sums of ``state``, which it updates."""
    d = grid.delta
    nh, phi_m, phi_h, _ = buf["sums"]
    _above_floor(nh, k["eps_floor"], state.t)
    rate_mh = phi_m / nh    # per-susceptible-human rate
    rate_hm = phi_h / nh    # per-susceptible-mosquito rate

    infected_h = state.s_h * rate_mh    # new human infections (by age in full mode)
    infected_m = state.s_m * rate_hm    # new mosquito infections by age
    # recoveries and immunity losses during the step: each channel's share of
    # every cohort's removal (conserves the removal mass split exactly)
    i_h, r_h = buf["i_h"], buf["r_h"]
    recovered = i_h.outflow() + k["ih_out0"] * infected_h
    returned = r_h.outflow() + k["rh_out0"] * recovered

    if state.mode == "full":
        new_s = buf["s_h"]
        new_s[1:] = (state.s_h[:-1] + d * returned[1:]) * k["sh_step"][1:] \
            * math.exp(-d * rate_mh)
        # births and the mass that returns within the entry cell
        new_s[0] = (params.lambda_h + d * returned[0]) * k["sh_entry"] \
            * math.exp(-0.5 * d * rate_mh)
        state.s_h, buf["s_h"] = new_s, state.s_h
    else:
        r_tot = k["mu_h"] + rate_mh
        s_inf = (params.lambda_h + returned) / r_tot
        state.s_h = state.s_h + (1.0 - math.exp(-r_tot * d)) * (s_inf - state.s_h)

    new_sm = buf["s_m"]
    np.multiply(state.s_m[:-1], k["sm_step"][1:], out=new_sm[1:])
    new_sm[1:] *= math.exp(-d * rate_hm)
    new_sm[0] = params.lambda_m * k["sm_entry"] * math.exp(-0.5 * d * rate_hm)
    state.s_m, buf["s_m"] = new_sm, state.s_m

    i_h.push(infected_h)
    r_h.push(recovered)
    buf["i_m"].push(infected_m)
    state.t += d
    buf["sums"] = _sums(state, params, grid, buf)


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


_STRUCTURED = ("i_h", "r_h", "i_m")


def _start(init: StateFields, params: ModelParams, grid: Grid, n_steps: int):
    """A run of ``n_steps`` from ``init``: its state, whose structured
    fields are None until the run returns them, the kernel and ``buf``,
    which holds those fields as cohort rings, scratch arrays and the
    state's sums.  Each ring and its tables cover the structure ages the
    run reaches.  ``init`` is checked and left as it is."""
    _check_state(init, grid)
    fields = {name: getattr(init, name) for name in _STRUCTURED}
    # the structure-age columns holding mass, in order
    columns = {name: np.flatnonzero(np.any(f, axis=0) if f.ndim == 2 else f)
               for name, f in fields.items()}
    rows = {name: _reach(columns[name], f.shape[-1], n_steps) for name, f in fields.items()}
    k = _kernel(params, grid, init.mode, tuple(rows.values()))
    buf = {name: _CohortRing(k, name, f, columns[name]) for name, f in fields.items()}
    buf["s_m"] = np.zeros_like(init.s_m)
    s_h = float(init.s_h) if init.mode == "reduced" else init.s_h.copy()
    if init.mode == "full":
        buf["s_h"] = np.zeros_like(s_h)
    state = StateFields(init.mode, init.t, s_h, None, None, init.s_m.copy(), None)
    buf["sums"] = _sums(state, params, grid, buf)
    return state, k, buf


def step(state: StateFields, params: ModelParams, grid: Grid) -> StateFields:
    """One unit-CFL step, a run of one step; returns a new state at t + delta."""
    return simulate(params, grid, state, grid.delta, return_final=True)[1]


def observe(state: StateFields, params: ModelParams, grid: Grid,
            sums: tuple[float, float, float, float, float] | None = None) -> Observables:
    """Observables of ``state``; ValueError if any is not finite.

    A run passes ``sums``: the N_h, the two pressures and the i_h cell sum
    it already computed for the state, and the sum of the i_m cells its ring
    holds; the run's state carries no structured field.
    """
    if sums is None:
        sums = (n_human(state, grid), _mosquito_pressure(state, params, grid),
                _human_pressure(state, params, grid), float(np.sum(state.i_h)),
                float(np.sum(state.i_m)))
    d = grid.delta
    nh, phi_m, phi_h, sum_i_h, sum_i_m = sums
    if state.mode == "full":
        total_ih = sum_i_h * d * d
        foi_mh = float(np.sum(state.s_h)) * d / nh * phi_m
    else:
        total_ih = sum_i_h * d
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


def _blocks(field):
    """A snapshot field as consecutive arrays of its cells in row-major
    order: an array itself, or the field a cohort ring holds, built a
    block of whole age rows (``row_blocks``) at a time in one buffer."""
    if not isinstance(field, _CohortRing):
        yield field
    elif len(field.shape) == 1:
        yield field.field()
    else:
        n_a, n = field.shape
        blocks = row_blocks(n_a, n)
        buffer = np.empty((blocks[0].stop, n), dtype="<f8")
        for rows in blocks:
            yield field.fill(buffer[:rows.stop - rows.start], rows.start)


def save_snapshot(state: StateFields, grid: Grid, path: str) -> str:
    """Versioned binary snapshot: header with the grid geometry, then the
    field arrays row-major as little-endian 64-bit floats.  A structured
    field of ``state`` may be a run's cohort ring, which is written without
    building the field.  Returns the SHA-256 hex digest of the bytes
    written, taken as they are written."""
    fields = (np.atleast_1d(state.s_h), state.i_h, state.r_h, state.s_m, state.i_m)
    digest = sha256(sum(8 * math.prod(field.shape) for field in fields))
    with open(path, "wb") as fh:
        def put(data) -> None:
            digest.update(data)
            fh.write(data)

        put(SNAPSHOT_MAGIC + struct.pack("<B", state.mode == "full")
            + struct.pack("<7d", grid.delta, grid.a_max_h, grid.a_max_m,
                          grid.tau_max_h, grid.tau_max_m, grid.eta_max, state.t))
        for field in fields:
            if not isinstance(field, _CohortRing):
                field = np.ascontiguousarray(field, dtype="<f8")
            ndim = len(field.shape)
            put(struct.pack("<B", ndim) + struct.pack(f"<{ndim}q", *field.shape))
            for block in _blocks(field):
                put(memoryview(block).cast("B"))      # the array's own buffer: no copy
    return digest.hexdigest()


def load_snapshot(path: str) -> tuple[StateFields, Grid]:
    """Read a :func:`save_snapshot` file; ValueError if it is not one, is
    truncated, or holds arrays whose rank or shape do not match its grid."""
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
        except ValueError as exc:
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
             return_final: bool = False, snapshot: str | None = None):
    """March the system ``round(t_end / delta)`` steps, to t_end rounded to
    the grid, sampling observables every ``output_every`` steps (the
    initial and final instants are always included).  Returns
    the rows; with ``return_final``, ``(rows, final state)``; with a
    ``snapshot`` path, ``(rows, digest)``: the final state is written there
    by :func:`save_snapshot` straight from the run's cohort rings, and
    ``digest`` is the SHA-256 of the file.

    ``init`` must have the grid's shapes, finite values >= 0 and zeros where
    structure age exceeds age; ValueError otherwise, and also when an
    observable is not finite.  It is left as it is; the run drops its own
    reference once its rings hold the start state, so a start state that
    no caller keeps is freed before the first step.  Deterministic for
    fixed inputs.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if return_final and snapshot is not None:
        raise ValueError("a run returns its final state or writes it to a snapshot, not both")
    n_steps = int(round(t_end / grid.delta))
    t0 = init.t
    state, k, buf = _start(init, params, grid, n_steps)
    del init        # the rings hold it: a start state no caller keeps is freed here
    # a ring with a rank-one beta forms its prefix sums at the first step, in
    # the place of its beta table, which it reads until then
    for key in ("ih", "im"):
        if key + "_beta_h" in k:
            del k[key + "_beta_g"]
    rows = [observe(state, params, grid, (*buf["sums"], buf["i_m"].sum()))]
    for n in range(1, n_steps + 1):
        _step_inplace(state, params, grid, k, buf)
        state.t = n * grid.delta + t0       # avoid accumulated float drift
        if n % output_every == 0 or n == n_steps:
            rows.append(observe(state, params, grid, (*buf["sums"], buf["i_m"].sum())))
    if snapshot is not None:
        # the write reads each ring's rows and G: the weight tables go first
        k.clear()
        for name in _STRUCTURED:
            buf[name].out = None
            setattr(state, name, buf[name])
        return rows, save_snapshot(state, grid, snapshot)
    if return_final:
        # one field at a time, each ring dropped before the next is built
        for name in _STRUCTURED:
            setattr(state, name, buf.pop(name).field())
        return rows, state
    return rows
