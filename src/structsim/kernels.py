"""Generation kernels on (offset, structure-age) grids.

The next-generation analysis needs double integrals of the form

    iint  beta(tau + xi, tau) * exp(-int_0^tau removal(sigma + xi, sigma))
          * pi(xi)  dxi dtau

where ``xi = age - tau`` is constant along a transport characteristic.
This module builds those kernels once per (params, grid) pair and
exposes the weighted masses every downstream computation shares, so that
closed-form evaluation, power iteration, and the characteristic equation
all reduce to sums over identical arrays (cross-method agreement is then
limited only by floating-point rounding).

The human block of the next-generation operator has rank one, pi_h times
one contraction, so every consumer reads the human kernel K[xi, tau]
(pi_h left out) in one form on every path: its tau-profile pi_h @ K, which
``human_factor`` dots with exp(-lam tau), and the scalars power iteration
needs, sum pi_h^2 and the total of the kernel's row sums, plain and
weighted by pi_h (sum pi_h is int_pi_h / delta).  The pi_h-weighted row
total is summed apart from the tau-profile, so power iteration re-sums the
closed form in another order.  The mosquito kernel is read the same way,
through its column sums.

On an age-dependent grid the human kernel is built a block of about
``grids.ROW_BLOCK_BYTES`` of age rows at a time, each block folded into the
tau-profile and the row totals and dropped, so no (age, infection age)
table is held.  When every human rate is age-independent, K[xi, tau] does
not depend on xi and the contractions come from closed forms without
reading the human age axis: pi_h is the open-class profile exp(-mu a) on
cell centers whose last cell holds the geometric tail past the grid, so
sum pi_h is the geometric series exp(-mu delta/2) / (1 - exp(-mu delta))
(delta times it differs from the analytic 1/mu by a relative
(mu delta)^2 / 24) and sum pi_h^2 is a geometric series too.  No path keeps
a vector on the human age axis (500 000 cells on the backward preset);
``SpectralKernels.ages_h`` builds the axis on access.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import (Grid, characteristic_cumulative, cumulative_to_centers, lag_sample,
                    on_axis, row_blocks)
from .params import ModelParams
from .rates import rate_table


@dataclass(frozen=True)
class SpectralKernels:
    """Shared grids and kernel tables for reproduction-number work."""

    delta: float
    # human side: K[xi, tau] (pi_h left out) through its contractions only
    n_ah: int                     # cells of the human age axis
    int_pi_h: float               # delta * sum pi_h
    sum_pi_h2: float              # sum pi_h^2
    rows_total: float             # sum over xi of the row sums of K
    rows_pi_h: float              # the row sums weighted by pi_h
    human_tau: np.ndarray         # [n_th] pi_h @ K
    taus_h: np.ndarray
    c1: np.ndarray | None         # exp(-int (mu_h+nu_h+gamma_h)) on taus_h, age-free rates only
    sum_beta_c1: float | None     # sum beta_h c1 on taus_h, age-free rates only
    # mosquito side
    xis_m: np.ndarray
    taus_m: np.ndarray
    pi_m: np.ndarray
    int_pi_m: float
    mosq_kernel: np.ndarray       # [n_xi_m, n_tm], pi_m(xi) included
    mosq_tau: np.ndarray          # [n_tm] column sums of mosq_kernel
    prefactor: float              # lambda_m theta^2 / (lambda_h (int pi_h)^2)

    @property
    def ages_h(self) -> np.ndarray:
        """The human age axis, built on each access: no path keeps it."""
        return (np.arange(self.n_ah) + 0.5) * self.delta

    # -- weighted masses -----------------------------------------------------

    def human_factor(self, lam: float = 0.0) -> float:
        """iint beta_h e^{-removal} pi_h(xi) e^{-lam tau} dxi dtau."""
        return float(self.human_tau @ np.exp(-lam * self.taus_h)) * self.delta ** 2

    def mosquito_factor(self, lam: float = 0.0) -> float:
        """iint beta_m e^{-removal} pi_m(xi) e^{-lam tau} dxi dtau."""
        return float(self.mosq_tau @ np.exp(-lam * self.taus_m)) * self.delta ** 2

    def generation(self, lam: float = 0.0) -> float:
        """prefactor * human * mosquito factor: g(lam), and lambda0 at 0."""
        return self.prefactor * self.human_factor(lam) * self.mosquito_factor(lam)


def _human_contractions(params: ModelParams, ages: np.ndarray, taus: np.ndarray,
                        pi_h: np.ndarray, d: float) -> tuple[np.ndarray, float, float]:
    """``pi_h @ K`` and the row sums' total, plain and weighted by ``pi_h``,
    of the human kernel ``K[xi, tau]`` = beta_h(xi + tau, tau) exp(-int
    removal) on offsets ``ages``, built a block of age rows at a time.  Every
    row of a block is the row of the whole table bit for bit."""
    removal = params.removal_rate("i_h")
    tau_profile, rows_total, rows_pi_h = np.zeros(len(taus)), 0.0, 0.0
    for block in row_blocks(len(ages), len(taus)):
        # exp(-cum) in the cumulative's buffer, times beta_h on its read axes
        k = characteristic_cumulative(removal, ages[block], taus, d)
        np.exp(np.negative(k, out=k), out=k)
        k *= lag_sample(params.beta_h, ages[block, None], taus[None, :])
        rows = np.sum(k, axis=1)
        rows_total += float(np.sum(rows))
        rows_pi_h += float(pi_h[block] @ rows)
        tau_profile += pi_h[block] @ k
    return tau_profile, rows_total, rows_pi_h


@functools.lru_cache(maxsize=8)
def spectral_kernels(params: ModelParams, grid: Grid) -> SpectralKernels:
    d = grid.delta
    taus_h, taus_m = grid.taus_h, grid.taus_m

    # --- human side
    if params.reduced_mode_eligible:
        mu = params.mu_h_value()
        if mu <= 0:
            raise ValueError("the human survival integral needs mu_h > 0")
        # the open-class profile r^(i + 1/2), r = exp(-mu d), with the tail
        # r^(n - 1/2) / (1 - r) in its last cell, summed as geometric series
        n = grid.n_ah
        int_pi_h = float(d * np.exp(-0.5 * mu * d) / -np.expm1(-mu * d))
        sum_pi_h2 = float(np.exp(-mu * d) * np.expm1(-2.0 * mu * d * (n - 1))
                          / np.expm1(-2.0 * mu * d)
                          + np.exp(-mu * d * (2 * n - 1)) / np.expm1(-mu * d) ** 2)
        c1 = np.exp(-cumulative_to_centers(
            rate_table(params.removal_rate("i_h"), 0.0, taus_h), d))
        # every row of K is beta_h c1
        human_tau = rate_table(params.beta_h, 0.0, taus_h) * c1
        sum_beta_c1 = float(np.sum(human_tau))
        human_tau *= int_pi_h / d
        rows_total, rows_pi_h = n * sum_beta_c1, int_pi_h / d * sum_beta_c1
    else:
        ages_h = grid.ages_h
        pi_h = np.exp(-cumulative_to_centers(rate_table(params.mu_h, ages_h), d))
        int_pi_h = float(np.sum(pi_h)) * d
        sum_pi_h2 = float(pi_h @ pi_h)
        c1 = sum_beta_c1 = None
        human_tau, rows_total, rows_pi_h = _human_contractions(params, ages_h, taus_h, pi_h, d)

    # --- mosquito side: kernel on (xi, tau) with the age extent of the grid
    xis_m = grid.ages_m
    pi_m = np.exp(-cumulative_to_centers(rate_table(params.mu_m, xis_m), d))
    # beta_m exp(-cum) pi_m, formed in the cumulative's buffer; beta_m is
    # sampled a block of offsets at a time, so its temporaries stay a block
    mosq_kernel = characteristic_cumulative(params.removal_rate("i_m"), xis_m, taus_m, d)
    np.exp(np.negative(mosq_kernel, out=mosq_kernel), out=mosq_kernel)
    for block in row_blocks(len(xis_m), len(taus_m)):
        mosq_kernel[block] *= lag_sample(params.beta_m, xis_m[block, None], taus_m[None, :])
    mosq_kernel *= pi_m[:, None]
    # keep age + infection age within the truncated mosquito age span
    mosq_kernel *= on_axis(grid.n_am, grid.n_tm)
    int_pi_m = float(np.sum(pi_m)) * d

    return SpectralKernels(delta=d, n_ah=grid.n_ah, int_pi_h=int_pi_h, sum_pi_h2=sum_pi_h2,
                           rows_total=rows_total, rows_pi_h=rows_pi_h, human_tau=human_tau,
                           taus_h=taus_h, c1=c1, sum_beta_c1=sum_beta_c1,
                           xis_m=xis_m, taus_m=taus_m, pi_m=pi_m, int_pi_m=int_pi_m,
                           mosq_kernel=mosq_kernel, mosq_tau=np.sum(mosq_kernel, axis=0),
                           prefactor=_prefactor(params, int_pi_h))


def _prefactor(params: ModelParams, int_pi_h: float) -> float:
    """lambda_m theta^2 / (lambda_h (int pi_h)^2); ValueError where it
    leaves the float range, so no R0 route reads an infinite kernel."""
    try:
        value = params.lambda_m * params.theta ** 2 / (params.lambda_h * int_pi_h ** 2)
    except ArithmeticError:         # theta^2 overflows, or (int pi_h)^2 underflows
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the generation prefactor lambda_m theta^2 / (lambda_h (int pi_h)^2) "
                         f"overflows: lambda_m = {params.lambda_m:g}, theta = {params.theta:g}, "
                         f"int pi_h = {int_pi_h:g}")
    return value
