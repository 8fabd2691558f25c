"""Truncated uniform grids, midpoint quadrature, and survival tables.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rates import RateSpec, eval_rate


def _check_multiple(name: str, extent: float, delta: float) -> int:
    n = extent / delta
    n_round = round(n)
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(1.0, n):
        raise ValueError(f"{name}={extent} is not a positive integer multiple of delta={delta}")
    return int(n_round)


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


def default_grid(mu_h_value: float, delta: float = 0.005) -> Grid:
    """Desk-scale grid: mosquito axes sized by survival decay, human age by 5/mu_h.

    Mosquito survival at 1.5 time units is ~9e-14 for mortality 20/Tu, and the
    transmission kernels are negligible beyond these ranges.
    """
    a_max_h = round(5.0 / mu_h_value / delta) * delta
    return Grid(delta=delta, a_max_h=a_max_h, a_max_m=1.5,
                tau_max_h=0.6, tau_max_m=1.5, eta_max=1.0)


# ---------------------------------------------------------------------------
# quadrature


def cumulative_to_centers(rate_at_centers: np.ndarray, delta: float) -> np.ndarray:
    """Integral of a rate from 0 up to each cell center.

    ``out[j] = delta * (r_0 + ... + r_j) - delta/2 * r_j`` : full sampled
    cells plus a trailing half cell.  Exact for constant rates and for
    edge-aligned piecewise-constant rates.
    """
    r = np.asarray(rate_at_centers, dtype=float)
    return delta * np.cumsum(r, axis=-1) - 0.5 * delta * r


def decay_factors(rate_at_centers: np.ndarray,
                  delta: float) -> tuple[np.ndarray | float, np.ndarray]:
    """Per-cell survival factors of a field transported along the diagonal.

    ``rate_at_centers`` samples the removal rate on the cell centers of one
    or more axes; the last axis is the one whose origin is the entry
    boundary.  Returns ``(entry, step)``: ``entry = exp(-delta/2 * r[..., 0])``
    carries a cohort from the boundary to the first center, and
    ``step[i, ..., j] = exp(-delta/2 * (r[i-1, ..., j-1] + r[i, ..., j]))``
    carries it one cell along every axis at once.  Cells with a zero index
    are unused padding, set to 1.
    """
    r = np.asarray(rate_at_centers, dtype=float)
    cur, prev = (slice(1, None),) * r.ndim, (slice(None, -1),) * r.ndim
    step = np.ones_like(r)
    step[cur] = np.exp(-0.5 * delta * (r[prev] + r[cur]))
    return np.exp(-0.5 * delta * r[..., 0]), step


@dataclass(frozen=True)
class SurvivalTable:
    """Survival-from-birth probabilities on the age grids.

    ``pi_h[j] = exp(-int_0^{a_j} mu_h)`` at human age centers, same for
    mosquitoes; built as a running product of per-cell decay factors so the
    transport step reproduces the profile bit-for-bit.  ``cum_h``/``cum_m``
    are the cumulative hazards.
    """

    pi_h: np.ndarray
    pi_m: np.ndarray
    cum_h: np.ndarray
    cum_m: np.ndarray
    decay_h_entry: float
    decay_h_step: np.ndarray
    decay_m_entry: float
    decay_m_step: np.ndarray


def _survival_1d(mu: RateSpec, ages: np.ndarray, delta: float):
    r = np.asarray(eval_rate(mu, ages, 0.0), dtype=float)
    if r.ndim == 0:
        r = np.full_like(ages, float(r))
    entry, step = decay_factors(r, delta)
    factors = step.copy()
    factors[0] = entry
    pi = np.cumprod(factors)
    cum = cumulative_to_centers(r, delta)
    return pi, cum, entry, step


def build_survival(params, grid: Grid) -> SurvivalTable:
    """Survival tables for humans and mosquitoes from the mortality rates."""
    pi_h, cum_h, eh, sh = _survival_1d(params.mu_h, grid.ages_h, grid.delta)
    pi_m, cum_m, em, sm = _survival_1d(params.mu_m, grid.ages_m, grid.delta)
    return SurvivalTable(pi_h=pi_h, pi_m=pi_m, cum_h=cum_h, cum_m=cum_m,
                         decay_h_entry=eh, decay_h_step=sh,
                         decay_m_entry=em, decay_m_step=sm)


def characteristic_cumulative(rate_fn, offsets: np.ndarray, taus: np.ndarray,
                              delta: float) -> np.ndarray:
    """Cumulative hazard along characteristics for a two-variable rate.

    ``out[i, j] = int_0^{tau_j} rate(offsets[i] + s, s) ds`` with the same
    midpoint-to-centers rule as the 1D case.  ``offsets`` are the constant
    values of (age - tau) along each characteristic.
    """
    a = offsets[:, None] + taus[None, :]
    r = np.asarray(rate_fn(a, np.broadcast_to(taus[None, :], a.shape)), dtype=float)
    if r.ndim == 0:
        r = np.full(a.shape, float(r))
    return cumulative_to_centers(r, delta)
