"""Basic reproduction number by three independent routes.

Conventions: the spectral radius of the next-generation operator is
``r0 = sqrt(lambda0)``; the square ``lambda0`` is what the threshold and
bifurcation analysis use as "R0", and every report carries both so the two
cannot be confused (they flip threshold conclusions when they are).

Routes:
  closed form      lambda0 as the product of the mosquito/human ratio and
                   the two generation-kernel masses
  power iteration  spectral radius of the discretized human block of the
                   squared next-generation operator; that block maps any
                   age density to a multiple of the survival profile, so
                   the structured path is one inner product plus a
                   verification pass (a dense fallback is kept for
                   cross-checks)
  reduced formula  valid when no human rate depends on age; replaces the
                   survival-profile integral by 1/mu_h analytically

lambda0 is exactly linear in the mosquito recruitment rate, which the
bifurcation sweep exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .kernels import SpectralKernels, spectral_kernels
from .params import ModelParams

# survival tail kept below exp(-40) on the power-iteration age lattice
_LATTICE_FOLDS = 40.0
_LATTICE_MAX_CELLS = 8_000_000


@dataclass(frozen=True)
class R0Report:
    r0_squared_closed_form: float
    r0: float
    r0_squared_power_iter: float | None = None
    iterations: int | None = None
    residual: float | None = None
    kernel_mass_mh: float = 0.0       # iint of the normalized mosquito->human kernel
    kernel_mass_hm: float = 0.0       # iint of the normalized human->mosquito kernel
    r0_squared_reduced: float | None = None

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
        if self.r0_squared_reduced is not None:
            lines.append(f"r0 squared (reduced)        {self.r0_squared_reduced!r}")
        return "\n".join(lines)


def _prefactor(params: ModelParams, sk: SpectralKernels) -> float:
    return params.lambda_m * params.theta ** 2 / (params.lambda_h * sk.int_pi_h ** 2)


def lambda0_closed_form(params: ModelParams, grid: Grid) -> float:
    sk = spectral_kernels(params, grid)
    return _prefactor(params, sk) * sk.human_factor(0.0) * sk.mosquito_factor(0.0)


def r0_closed_form(params: ModelParams, grid: Grid) -> R0Report:
    sk = spectral_kernels(params, grid)
    lam0 = _prefactor(params, sk) * sk.human_factor(0.0) * sk.mosquito_factor(0.0)
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
    human_tau = float(np.sum(sk.beta_h_tau * sk.c1)) * sk.delta
    return (params.lambda_m * mu_h * params.theta ** 2 / params.lambda_h
            * sk.mosquito_factor(0.0) * human_tau)


def survival_profile(params: ModelParams, grid: Grid) -> np.ndarray:
    """Human survival profile the power iteration runs on: pi_h on the grid,
    or with constant mu_h, exp(-mu_h a) on cell centers extended past the
    grid to 40 e-folds, so its sum matches the closed-form int pi_h."""
    sk = spectral_kernels(params, grid)
    if not sk.eligible:
        return sk.pi_h
    mu, d = params.mu_h_value(), sk.delta
    cells = max(int(min(np.ceil(_LATTICE_FOLDS / mu / d), _LATTICE_MAX_CELLS)), grid.n_ah)
    return np.exp(-mu * ((np.arange(cells) + 0.5) * d))


def power_iteration_r0(params: ModelParams, grid: Grid, tol: float = 1e-12,
                       max_iter: int = 64, dense: bool = False) -> R0Report:
    """Spectral radius of the discretized human next-generation block.

    The block sends b(xi) to pi_h(a) * coefficient(b); with the structured
    path the Rayleigh quotient is exact after one application and a second
    pass verifies it.  ``dense=True`` materializes the matrix and runs the
    generic iteration (quadratic cost; for cross-checking on small grids).
    """
    sk = spectral_kernels(params, grid)
    pi_h = survival_profile(params, grid)
    coef = _prefactor(params, sk) * sk.mosquito_factor(0.0)

    def apply_h(b: np.ndarray) -> np.ndarray:
        return pi_h * (coef * sk.human_kernel_action(b))

    n = len(pi_h)
    if dense:
        if n > 20000:
            raise ValueError("dense power iteration is for small grids")
        if sk.eligible:
            rows = np.full(n, float(np.sum(sk.beta_h_tau * sk.c1)) * sk.delta)
        else:
            rows = np.sum(sk.human_kernel_nopi, axis=1) * sk.delta
        mat = coef * np.outer(pi_h, rows) * sk.delta
        b = np.ones(n)
        lam_prev = 0.0
        for it in range(1, max_iter + 1):
            hb = mat @ b
            lam = float(hb @ b / (b @ b))
            b = hb / np.linalg.norm(hb)
            if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
                break
            lam_prev = lam
        else:
            raise RuntimeError(f"power iteration did not converge in {max_iter} steps")
        hb = mat @ b
    else:
        b = np.ones(n)
        lam_prev = 0.0
        for it in range(1, max_iter + 1):
            hb = apply_h(b)
            lam = float(hb @ b / (b @ b))
            nrm = float(np.linalg.norm(hb))
            if nrm == 0.0:
                lam, b = 0.0, b
                break
            b = hb / nrm
            if it > 1 and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
                break
            lam_prev = lam
        else:
            raise RuntimeError(f"power iteration did not converge in {max_iter} steps")
        hb = apply_h(b)
    residual = float(np.sum(np.abs(hb - lam * b)) / max(np.sum(np.abs(b)), 1e-300))
    lam0 = lambda0_closed_form(params, grid)
    return R0Report(
        r0_squared_closed_form=lam0,
        r0=float(np.sqrt(lam0)),
        r0_squared_power_iter=lam,
        iterations=it,
        residual=residual,
        kernel_mass_mh=sk.mosquito_factor(0.0) / sk.int_pi_m,
        kernel_mass_hm=sk.human_factor(0.0) / sk.int_pi_h,
    )


def lambda_m_slope(params: ModelParams, grid: Grid) -> float:
    """d(lambda0)/d(lambda_m); lambda0 is exactly linear in lambda_m."""
    return lambda0_closed_form(params, grid) / params.lambda_m


def lambda_m_for_target_r0(params: ModelParams, grid: Grid, target: float) -> float:
    """Mosquito recruitment giving the requested lambda0 (squared convention)."""
    if target < 0:
        raise ValueError("target must be >= 0")
    return target / lambda_m_slope(params, grid)
