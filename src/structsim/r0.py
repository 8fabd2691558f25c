"""Basic reproduction number: the closed form and the routes that check it.

Conventions: the spectral radius of the next-generation operator is
``r0 = sqrt(lambda0)``; the square ``lambda0`` is what the threshold and
bifurcation analysis use as "R0", and every report carries both so the two
cannot be confused (they flip threshold conclusions when they are).

Routes:
  closed form      lambda0 as the product of the mosquito/human ratio and
                   the two generation-kernel masses
  power iteration  spectral radius of the discretized human block of the
                   squared next-generation operator on the grid's human age
                   cells; the block is the survival profile times one
                   contraction (rank one), so the iterates keep two
                   coefficients and the route re-sums the closed form in
                   another order, checking the contraction code, not the
                   formula (``g(0)`` likewise); with age-free human rates
                   both re-sum the same closed forms
  reduced formula  valid when no human rate depends on age; replaces the
                   survival-profile integral by 1/mu_h analytically, the
                   one route independent of the closed form's quadrature
                   and the check of the geometric series there

lambda0 is exactly linear in the mosquito recruitment rate, which the
bifurcation sweep exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import Grid
from .kernels import spectral_kernels
from .params import ModelParams


@dataclass(frozen=True)
class R0Report:
    r0_squared_closed_form: float
    r0: float
    r0_squared_power_iter: float | None = None
    iterations: int | None = None
    residual: float | None = None
    kernel_mass_mh: float = 0.0       # iint of the normalized mosquito->human kernel
    kernel_mass_hm: float = 0.0       # iint of the normalized human->mosquito kernel

    def format_text(self) -> str:
        lines = [
            f"r0 squared (closed form)    {self.r0_squared_closed_form!r}",
            f"r0 = sqrt(lambda0)          {self.r0!r}",
            f"kernel mass mosquito->human {self.kernel_mass_mh!r}",
            f"kernel mass human->mosquito {self.kernel_mass_hm!r}",
        ]
        if self.r0_squared_power_iter is not None:
            lines.append(f"r0 squared (power iter)     {self.r0_squared_power_iter!r}"
                         f"   [{self.iterations} iterations, residual {self.residual:.3e}]")
        return "\n".join(lines)


def lambda0_closed_form(params: ModelParams, grid: Grid) -> float:
    return spectral_kernels(params, grid).generation(0.0)


def r0_closed_form(params: ModelParams, grid: Grid) -> R0Report:
    sk = spectral_kernels(params, grid)
    lam0 = lambda0_closed_form(params, grid)
    return R0Report(
        r0_squared_closed_form=lam0,
        r0=float(np.sqrt(lam0)),
        kernel_mass_mh=sk.mosquito_factor(0.0) / sk.int_pi_m,
        kernel_mass_hm=sk.human_factor(0.0) / sk.int_pi_h,
    )


def r0_reduced(params: ModelParams, grid: Grid) -> float:
    """lambda0 with the human survival integral taken analytically (1/mu_h)."""
    if not params.reduced_mode_eligible:
        raise ValueError("reduced formula requires age-independent human rates")
    sk = spectral_kernels(params, grid)
    mu_h = params.mu_h_value()
    return (params.lambda_m * mu_h * params.theta ** 2 / params.lambda_h
            * sk.mosquito_factor(0.0) * (sk.sum_beta_c1 * sk.delta))


def power_iteration_r0(params: ModelParams, grid: Grid) -> R0Report:
    """Spectral radius of the discretized human next-generation block.

    The block sends an age density b to pi_h * (w . b), where w[xi] is the
    contraction weight of age cell xi (the row sums of the pi_h-free human
    kernel, a constant when no human rate reads age), so it has rank one.
    The Rayleigh quotient is exact from the image of the first iterate on,
    and the loop stops when the next one agrees to 1e-12 relative.  The
    route re-sums the closed form in another order: the closed form reads
    the kernel's tau-profile ``pi_h @ K``, this route the row sums weighted
    by pi_h, so it checks the contraction code, not the formula.  Where the
    rates are age-free both come from the same closed forms, and the
    reduced formula is the independent check.

    Every iterate lies in span{1, pi_h} (the start is 1, every image a
    multiple of pi_h), so the loop runs on the two coefficients of
    b = p + q pi_h, and the quotient, the norm and the residual come from
    five sums that ``SpectralKernels`` holds: n, sum pi_h, sum pi_h^2,
    sum w and sum w pi_h.  No vector on the human age axis is read.
    """
    tol, max_iter = 1e-12, 64
    sk = spectral_kernels(params, grid)
    n, s1, s2 = float(sk.n_ah), sk.int_pi_h / sk.delta, sk.sum_pi_h2
    w0, w1 = sk.rows_total * sk.delta ** 2, sk.rows_pi_h * sk.delta ** 2
    coef = sk.prefactor * sk.mosquito_factor(0.0)

    def apply_h(p: float, q: float) -> float:
        """The pi_h coefficient of the image of p + q pi_h."""
        return coef * (p * w0 + q * w1)

    p, q = 1.0, 0.0
    lam_prev = 0.0
    for it in range(1, max_iter + 1):
        c = apply_h(p, q)
        lam = c * (p * s1 + q * s2) / (p * p * n + 2.0 * p * q * s1 + q * q * s2)
        nrm = abs(c) * float(np.sqrt(s2))
        if nrm == 0.0:
            lam = 0.0
            break
        p, q = 0.0, c / nrm
        if it > 1 and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            break
        lam_prev = lam
    else:
        raise RuntimeError(f"power iteration did not converge in {max_iter} steps")
    # sum |image - lam b| / sum |b|: pi_h >= 0, and p = 0 unless the image
    # vanished, so the absolute sums split by coefficient
    residual = ((abs(lam * p) * n + abs(apply_h(p, q) - lam * q) * s1)
                / max(abs(p) * n + abs(q) * s1, 1e-300))
    return replace(r0_closed_form(params, grid), r0_squared_power_iter=lam,
                   iterations=it, residual=residual)


def lambda_m_slope(params: ModelParams, grid: Grid) -> float:
    """d(lambda0)/d(lambda_m); lambda0 is exactly linear in lambda_m."""
    return lambda0_closed_form(params, grid) / params.lambda_m


def lambda_m_for_target_r0(params: ModelParams, grid: Grid, target: float) -> float:
    """Mosquito recruitment giving the requested lambda0 (squared convention)."""
    if target < 0:
        raise ValueError("target must be >= 0")
    return target / lambda_m_slope(params, grid)
