"""Truncated uniform grids, midpoint quadrature, and the rules layers share.

All structural variables (chronological age, infection age, recovery age)
and time share one step ``delta`` so that transport characteristics, which
move at unit speed in every variable, map cell centers exactly onto cell
centers.  Fields are cell-averaged densities sampled at centers
``(j + 1/2) * delta``.

Cumulative hazards are built with the midpoint rule refined to centers:
the integral up to a cell center is (full cells at sampled values) plus a
half cell at the local value.  This is exact for constant rates and for
piecewise-constant rates whose jumps sit on cell edges, which keeps the
disease-free profile an exact fixed point of the transport step.

Each of these rules is defined here only: survival along a characteristic,
``exp(-cumulative_to_centers(rate))`` up to a center or, per step, the
trapezoid factors and channel outflow weights of ``step_factors`` and
``entry_factors`` (``decay_factors`` pads them into one table); the
transmission sample ``lag_sample`` at the age-lag midpoint of a diagonal
cell; the block rule ``row_blocks``; and ``whole_steps``, the rule that an
extent is a whole number of steps.  No survival table is kept; each
consumer builds the factors it reads from a rate table (``rate_table``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .rates import eval_rate, rate_table


def whole_steps(extent: float, delta: float) -> int | None:
    """``extent / delta`` rounded to a whole number of steps, or None when it
    is more than 1e-9 relative from one or is not finite."""
    n = extent / delta
    if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n):
        return None
    return int(round(n))


def _check_multiple(name: str, extent: float, delta: float) -> int:
    n = whole_steps(extent, delta)
    if n is None or n < 1:
        raise ValueError(f"{name}={extent} is not a positive integer multiple of delta={delta}")
    return n


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of every structural axis (shared step)."""

    delta: float
    a_max_h: float
    a_max_m: float
    tau_max_h: float
    tau_max_m: float
    eta_max: float
    n_ah: int = field(init=False)
    n_am: int = field(init=False)
    n_th: int = field(init=False)
    n_tm: int = field(init=False)
    n_eta: int = field(init=False)

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        object.__setattr__(self, "n_ah", _check_multiple("a_max_h", self.a_max_h, self.delta))
        object.__setattr__(self, "n_am", _check_multiple("a_max_m", self.a_max_m, self.delta))
        object.__setattr__(self, "n_th", _check_multiple("tau_max_h", self.tau_max_h, self.delta))
        object.__setattr__(self, "n_tm", _check_multiple("tau_max_m", self.tau_max_m, self.delta))
        object.__setattr__(self, "n_eta", _check_multiple("eta_max", self.eta_max, self.delta))
        if self.tau_max_m > self.a_max_m + 1e-12 or self.tau_max_h > self.a_max_h + 1e-12:
            raise ValueError("infection-age extent may not exceed the age extent")

    def centers(self, n: int) -> np.ndarray:
        return (np.arange(n) + 0.5) * self.delta

    @property
    def ages_h(self) -> np.ndarray:
        return self.centers(self.n_ah)

    @property
    def ages_m(self) -> np.ndarray:
        return self.centers(self.n_am)

    @property
    def taus_h(self) -> np.ndarray:
        return self.centers(self.n_th)

    @property
    def taus_m(self) -> np.ndarray:
        return self.centers(self.n_tm)

    @property
    def etas(self) -> np.ndarray:
        return self.centers(self.n_eta)


def default_grid(mu_h_value: float, delta: float = 0.005, **extents: float) -> Grid:
    """Desk-scale grid: mosquito axes sized by survival decay, human age by
    5/mu_h; ``extents`` replace any of these.

    Mosquito survival at 1.5 time units is ~9e-14 for mortality 20/Tu, and the
    transmission kernels are negligible beyond these ranges.
    """
    shape = dict(a_max_h=round(5.0 / mu_h_value / delta) * delta, a_max_m=1.5,
                 tau_max_h=0.6, tau_max_m=1.5, eta_max=1.0)
    return Grid(delta=delta, **{**shape, **extents})


# a table on a long age axis is built in blocks of about this size, small
# enough that a block and its temporaries stay in a core's L2 cache
ROW_BLOCK_BYTES = 1 << 18


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of the rows of an ``(n_rows, n_cols)`` float table,
    each of about ``ROW_BLOCK_BYTES`` and at least one row, the last ending
    at ``n_rows``: a consumer that needs only reductions of the table builds
    and drops it block by block, and a consumer that writes it a piece at a
    time needs one buffer of the first block's rows."""
    size = max(1, ROW_BLOCK_BYTES // (8 * n_cols))
    return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def center_blocks(n: int, delta: float, n_cols: int = 1) -> Iterator[np.ndarray]:
    """The cell centers of an ``n``-cell axis, one :func:`row_blocks` block
    of an ``(n, n_cols)`` table at a time; each block is its slice of
    ``Grid.centers(n)`` bit for bit, and the whole axis is never built."""
    for block in row_blocks(n, n_cols):
        centers = np.arange(block.start, block.stop, dtype=float)
        centers += 0.5
        centers *= delta
        yield centers


# ---------------------------------------------------------------------------
# quadrature


def cumulative_to_centers(rate_at_centers: np.ndarray, delta: float) -> np.ndarray:
    """Integral of a rate from 0 up to each cell center.

    ``out[j] = delta * (r_0 + ... + r_j) - delta/2 * r_j`` : full sampled
    cells plus a trailing half cell.  Exact for constant rates and for
    edge-aligned piecewise-constant rates.
    """
    r = np.asarray(rate_at_centers, dtype=float)
    out = np.cumsum(r, axis=-1)
    out *= delta
    out -= 0.5 * delta * r
    return out


def _share(part_prev, part_cur, total_prev, total_cur, out) -> np.ndarray:
    """Fraction of a cell-to-cell removal belonging to one removal channel,
    using the same rate trapezoid as the step factor (0 where nothing is
    removed: the channel's rate is one of the removal's rates, all >= 0).
    The numerator is formed in ``out`` and divided there."""
    np.add(part_prev, part_cur, out=out)
    den = total_prev + total_cur
    return np.divide(out, den, out=out, where=den > 0)


def step_factors(prev, cur, delta: float, before=slice(None, -1), after=slice(1, None),
                 out: np.ndarray | None = None):
    """Step factors ``exp(-delta/2 (r_before + r_after))`` of the cells
    ``before`` of one rate sample moving one cell along the diagonal to the
    cells ``after`` of the next (formed in ``out`` when given), and the
    removal channel's outflow weights: its share of the removal times the
    fraction the cell loses.  ``prev`` and ``cur`` are (removal rate,
    channel rate) pairs; with no channel, its rate and weights are None."""
    (total_prev, part_prev), (total_cur, part_cur) = prev, cur
    total_prev, total_cur = total_prev[before], total_cur[after]
    step = np.add(total_prev, total_cur, out=out)
    step *= -0.5 * delta
    np.exp(step, out=step)
    if part_prev is None:
        return step, None
    weight = _share(part_prev[before], part_cur[after], total_prev, total_cur,
                    np.empty(step.shape))
    weight *= 1.0 - step
    return step, weight


def entry_factors(total0, part0, delta: float):
    """Entry factors ``exp(-delta/2 total0)`` from the boundary to the first
    center, for the removal rate ``total0`` at structure age 0, and the entry
    cell's outflow weights for a channel of rate ``part0`` (else None): its
    share times the fraction lost on the way."""
    entry = np.exp(-0.5 * delta * total0)
    if part0 is None:
        return entry, None
    return entry, _share(part0, part0, total0, total0, np.zeros(np.shape(total0))) * (1.0 - entry)


def decay_factors(rate_at_centers: np.ndarray,
                  delta: float) -> tuple[np.ndarray | float, np.ndarray]:
    """Per-cell survival factors of a field transported along the diagonal.

    ``rate_at_centers`` samples the removal rate on the cell centers of one
    or more axes; the first axis is the one whose origin is the entry
    boundary (structure age, for a structured field).  Returns
    ``(entry, step)``: the :func:`entry_factors` of ``r[0]``, and the
    :func:`step_factors` ``step[i, ..., j]`` that carry a cohort from cell
    ``(i-1, ..., j-1)`` one cell along every axis at once.  Cells with a
    zero index are unused padding, set to 1.
    """
    r = np.asarray(rate_at_centers, dtype=float)
    cur, prev = (slice(1, None),) * r.ndim, (slice(None, -1),) * r.ndim
    step = np.empty(r.shape)
    for axis in range(r.ndim):
        step[(slice(None),) * axis + (0,)] = 1.0
    step_factors((r, None), (r, None), delta, prev, cur, out=step[cur])
    return entry_factors(r[0], None, delta)[0], step


def lag_sample(rate, offsets, taus) -> np.ndarray:
    """A transmission probability at ``(offset + tau, tau)``, the age-lag
    midpoint of a diagonal cell (the unit-CFL dynamics pins age minus
    infection age to whole cells), on the table of the compact axes
    ``offsets`` and ``taus``: evaluated on the axes it reads, like
    ``rate_table``, and broadcast read-only to the table."""
    lag = offsets + taus if rate.reads[0] else 0.0
    return np.broadcast_to(eval_rate(rate, lag, taus),
                           np.broadcast_shapes(np.shape(offsets), np.shape(taus)))


def characteristic_cumulative(rate_fn, offsets: np.ndarray, taus: np.ndarray,
                              delta: float) -> np.ndarray:
    """Cumulative hazard along characteristics for a two-variable rate.

    ``out[i, j] = int_0^{tau_j} rate(offsets[i] + s, s) ds`` with the same
    midpoint-to-centers rule as the 1D case.  ``offsets`` are the constant
    values of (age - tau) along each characteristic.
    """
    return cumulative_to_centers(
        rate_table(rate_fn, offsets[:, None] + taus[None, :], taus[None, :]), delta)
