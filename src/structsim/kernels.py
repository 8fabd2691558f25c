"""Generation kernels on (offset, structure-age) grids.

The next-generation analysis needs double integrals of the form

    iint  beta(tau + xi, tau) * exp(-int_0^tau removal(sigma + xi, sigma))
          * pi(xi)  dxi dtau

where ``xi = age - tau`` is constant along a transport characteristic.
This module materializes those kernels once per (params, grid) pair and
exposes the weighted masses every downstream computation shares, so that
closed-form evaluation, power iteration, and the characteristic equation
all reduce to sums over identical arrays (cross-method agreement is then
limited only by floating-point rounding).

When every human rate is age-independent, the human kernel factorizes into
(integral of pi_h) x (infection-age profile) and never reads the human age
axis: with constant mortality mu the midpoint sum over all cell centers is
the geometric series delta * exp(-mu delta/2) / (1 - exp(-mu delta)), which
differs from the analytic 1/mu by a relative (mu delta)^2 / 24.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Grid, characteristic_cumulative, cumulative_to_centers
from .params import ModelParams
from .rates import eval_rate, rate_table


@dataclass(frozen=True)
class SpectralKernels:
    """Shared grids and kernel tables for reproduction-number work."""

    delta: float
    eligible: bool
    # human side
    ages_h: np.ndarray            # grid human-age axis
    pi_h: np.ndarray | None       # survival on ages_h; general path only
    int_pi_h: float               # closed-form geometric sum on the eligible path
    taus_h: np.ndarray
    c1: np.ndarray | None         # exp(-int (mu_h+nu_h+gamma_h)) on taus_h, eligible only
    beta_h_tau: np.ndarray | None
    human_kernel_nopi: np.ndarray | None   # [n_xi_h, n_th] without pi_h(xi); general path
    # mosquito side
    xis_m: np.ndarray
    taus_m: np.ndarray
    pi_m: np.ndarray
    int_pi_m: float
    mosq_kernel: np.ndarray       # [n_xi_m, n_tm], pi_m(xi) included

    # -- weighted masses -----------------------------------------------------

    def human_factor(self, lam: float = 0.0) -> float:
        """iint beta_h e^{-removal} pi_h(xi) e^{-lam tau} dxi dtau."""
        w = np.exp(-lam * self.taus_h)
        if self.eligible:
            return self.int_pi_h * float(np.sum(self.beta_h_tau * self.c1 * w)) * self.delta
        return float(self.pi_h @ (self.human_kernel_nopi @ w)) * self.delta ** 2

    def mosquito_factor(self, lam: float = 0.0) -> float:
        """iint beta_m e^{-removal} pi_m(xi) e^{-lam tau} dxi dtau."""
        w = np.exp(-lam * self.taus_m)
        return float(np.sum(self.mosq_kernel * w[None, :])) * self.delta ** 2


def _age_lag(rate, offsets: np.ndarray, taus: np.ndarray):
    """The ages ``offset + tau`` of a (offset, structure-age) table, built
    only for a rate that reads age (6M cells on an age-dependent grid)."""
    return offsets[:, None] + taus[None, :] if rate.reads[0] else 0.0


@functools.lru_cache(maxsize=8)
def spectral_kernels(params: ModelParams, grid: Grid) -> SpectralKernels:
    d = grid.delta
    taus_h, taus_m = grid.taus_h, grid.taus_m

    # --- human side
    eligible = params.reduced_mode_eligible
    ages_h = grid.ages_h
    if eligible:
        mu = params.mu_h_value()
        if mu <= 0:
            raise ValueError("the human survival integral needs mu_h > 0")
        pi_h = None
        int_pi_h = float(d * np.exp(-0.5 * mu * d) / -np.expm1(-mu * d))
        c1 = np.exp(-cumulative_to_centers(
            rate_table(params.removal_rate("i_h"), 0.0, taus_h), d))
        beta_h_tau = rate_table(params.beta_h, 0.0, taus_h)
        human_kernel_nopi = None
    else:
        pi_h = np.exp(-cumulative_to_centers(rate_table(params.mu_h, ages_h), d))
        int_pi_h = float(np.sum(pi_h)) * d
        c1 = beta_h_tau = None
        # exp(-cum) in the cumulative's buffer, times beta_h on its read axes
        cum = characteristic_cumulative(params.removal_rate("i_h"), ages_h, taus_h, d)
        human_kernel_nopi = np.exp(np.negative(cum, out=cum), out=cum)
        human_kernel_nopi *= eval_rate(params.beta_h, _age_lag(params.beta_h, ages_h, taus_h),
                                       taus_h[None, :])

    # --- mosquito side: kernel on (xi, tau) with the age extent of the grid
    xis_m = grid.ages_m
    pi_m = np.exp(-cumulative_to_centers(rate_table(params.mu_m, xis_m), d))
    cum_m = characteristic_cumulative(params.removal_rate("i_m"), xis_m, taus_m, d)
    bm = eval_rate(params.beta_m, _age_lag(params.beta_m, xis_m, taus_m), taus_m[None, :])
    mosq_kernel = bm * np.exp(-cum_m) * pi_m[:, None]
    # keep age + infection age within the truncated mosquito age span
    idx = np.add.outer(np.arange(len(xis_m)), np.arange(len(taus_m)))
    mosq_kernel = np.where(idx + 1 <= grid.n_am, mosq_kernel, 0.0)
    int_pi_m = float(np.sum(pi_m)) * d

    return SpectralKernels(delta=d, eligible=eligible, ages_h=ages_h, pi_h=pi_h,
                           int_pi_h=int_pi_h, taus_h=taus_h, c1=c1,
                           beta_h_tau=beta_h_tau, human_kernel_nopi=human_kernel_nopi,
                           xis_m=xis_m, taus_m=taus_m, pi_m=pi_m,
                           int_pi_m=int_pi_m, mosq_kernel=mosq_kernel)
