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
(pi_h left out) through two contractions only: its row sums over tau, the
contraction weights of power iteration, and the pi_h-weighted profile
pi_h @ K, which ``human_factor`` dots with exp(-lam tau).  On an
age-dependent grid the kernel is built a block of about
``grids.ROW_BLOCK_BYTES`` of age rows at a time, each block folded into
both contractions and dropped, so no (age, infection age) table is held.

When every human rate is age-independent, the human kernel factorizes into
(integral of pi_h) x (infection-age profile) and never reads the human age
axis: with constant mortality mu the midpoint sum over all cell centers is
the geometric series delta * exp(-mu delta/2) / (1 - exp(-mu delta)), which
differs from the analytic 1/mu by a relative (mu delta)^2 / 24.  The kernels
of that path hold no vector on the human age axis (500 000 cells on the
backward preset); ``SpectralKernels.ages_h`` builds the axis on access, and
only the general path builds it to sample pi_h and the contractions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import (Grid, characteristic_cumulative, cumulative_to_centers, lag_sample,
                    row_blocks)
from .params import ModelParams
from .rates import rate_table


@dataclass(frozen=True)
class SpectralKernels:
    """Shared grids and kernel tables for reproduction-number work."""

    delta: float
    eligible: bool
    # human side
    n_ah: int                     # cells of the human age axis
    pi_h: np.ndarray | None       # survival on ages_h; general path only
    int_pi_h: float               # closed-form geometric sum on the eligible path
    taus_h: np.ndarray
    c1: np.ndarray | None         # exp(-int (mu_h+nu_h+gamma_h)) on taus_h, eligible only
    beta_h_tau: np.ndarray | None
    # general path only: the two contractions of K[xi, tau] (pi_h left out),
    # never K itself
    human_rows: np.ndarray | None  # [n_ah] row sums over tau
    human_tau: np.ndarray | None   # [n_th] pi_h @ K
    # mosquito side
    xis_m: np.ndarray
    taus_m: np.ndarray
    pi_m: np.ndarray
    int_pi_m: float
    mosq_kernel: np.ndarray       # [n_xi_m, n_tm], pi_m(xi) included
    prefactor: float              # lambda_m theta^2 / (lambda_h (int pi_h)^2)

    @property
    def ages_h(self) -> np.ndarray:
        """The human age axis, built on each access: no path keeps it."""
        return (np.arange(self.n_ah) + 0.5) * self.delta

    # -- weighted masses -----------------------------------------------------

    def human_factor(self, lam: float = 0.0) -> float:
        """iint beta_h e^{-removal} pi_h(xi) e^{-lam tau} dxi dtau."""
        w = np.exp(-lam * self.taus_h)
        if self.eligible:
            return self.int_pi_h * float(np.sum(self.beta_h_tau * self.c1 * w)) * self.delta
        return float(self.human_tau @ w) * self.delta ** 2

    def mosquito_factor(self, lam: float = 0.0) -> float:
        """iint beta_m e^{-removal} pi_m(xi) e^{-lam tau} dxi dtau."""
        w = np.exp(-lam * self.taus_m)
        return float(np.sum(self.mosq_kernel * w[None, :])) * self.delta ** 2

    def generation(self, lam: float = 0.0) -> float:
        """prefactor * human * mosquito factor: g(lam), and lambda0 at 0."""
        return self.prefactor * self.human_factor(lam) * self.mosquito_factor(lam)


def _human_contractions(params: ModelParams, ages: np.ndarray, taus: np.ndarray,
                        pi_h: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and ``pi_h @ K`` of the human kernel ``K[xi, tau]`` =
    beta_h(xi + tau, tau) exp(-int removal) on offsets ``ages``, built a
    block of age rows at a time.  Every row of a block is the row of the
    whole table bit for bit, so the row sums are too."""
    removal = params.removal_rate("i_h")
    rows, tau_profile = np.empty(len(ages)), np.zeros(len(taus))
    for block in row_blocks(len(ages), len(taus)):
        # exp(-cum) in the cumulative's buffer, times beta_h on its read axes
        k = characteristic_cumulative(removal, ages[block], taus, d)
        np.exp(np.negative(k, out=k), out=k)
        k *= lag_sample(params.beta_h, ages[block, None], taus[None, :])
        np.sum(k, axis=1, out=rows[block])
        tau_profile += pi_h[block] @ k
    return rows, tau_profile


@functools.lru_cache(maxsize=8)
def spectral_kernels(params: ModelParams, grid: Grid) -> SpectralKernels:
    d = grid.delta
    taus_h, taus_m = grid.taus_h, grid.taus_m

    # --- human side
    eligible = params.reduced_mode_eligible
    if eligible:
        mu = params.mu_h_value()
        if mu <= 0:
            raise ValueError("the human survival integral needs mu_h > 0")
        pi_h = None
        int_pi_h = float(d * np.exp(-0.5 * mu * d) / -np.expm1(-mu * d))
        c1 = np.exp(-cumulative_to_centers(
            rate_table(params.removal_rate("i_h"), 0.0, taus_h), d))
        beta_h_tau = rate_table(params.beta_h, 0.0, taus_h)
        human_rows = human_tau = None
    else:
        ages_h = grid.ages_h
        pi_h = np.exp(-cumulative_to_centers(rate_table(params.mu_h, ages_h), d))
        int_pi_h = float(np.sum(pi_h)) * d
        c1 = beta_h_tau = None
        human_rows, human_tau = _human_contractions(params, ages_h, taus_h, pi_h, d)

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
    # keep age + infection age within the truncated mosquito age span: row
    # xi holds infection ages below n_am - xi
    for xi in range(max(0, grid.n_am - grid.n_tm + 1), grid.n_am):
        mosq_kernel[xi, grid.n_am - xi:] = 0.0
    int_pi_m = float(np.sum(pi_m)) * d

    return SpectralKernels(delta=d, eligible=eligible, n_ah=grid.n_ah, pi_h=pi_h,
                           int_pi_h=int_pi_h, taus_h=taus_h, c1=c1,
                           beta_h_tau=beta_h_tau, human_rows=human_rows, human_tau=human_tau,
                           xis_m=xis_m, taus_m=taus_m, pi_m=pi_m,
                           int_pi_m=int_pi_m, mosq_kernel=mosq_kernel,
                           prefactor=params.lambda_m * params.theta ** 2
                           / (params.lambda_h * int_pi_h ** 2))
