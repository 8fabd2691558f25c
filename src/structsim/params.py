"""Model parameters, built-in presets, and the parameter validator.

A parameter set bundles the three scalar recruitment/contact constants with
the eight structured rates.  Two presets are built in; they differ only in
the human natural mortality and hence in the direction of the bifurcation
at the epidemic threshold:

  forward   mu_h = 0.022  (unique endemic state above threshold)
  backward  mu_h = 0.002  (bistable window below threshold)

Shared preset values: human recruitment 8.4e5, mosquito mortality 20,
human/mosquito disease-induced mortality 0.1 / 25, biting rate 3.65e4,
recovery rate 0 then 50 after 0.1 time units of infection, immunity-loss
rate 0 then 40 after 0.1 time units since recovery, and Gaussian
transmission-probability profiles (human->mosquito centered at infection
age 0.3, mosquito->human centered at 0.2 with an exp(-(a-tau)) senescence
factor that vanishes for a <= tau).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import Grid, center_blocks, default_grid, lag_factors, lag_sample
from .rates import Arity, RateSpec, eval_rate

PRESET_NAMES = ("forward", "backward")

_REMOVAL_TERMS = {"i_h": ("mu_h", "nu_h", "gamma_h"), "r_h": ("mu_h", "k_h"),
                  "i_m": ("mu_m", "nu_m")}


@dataclass(frozen=True)
class ModelParams:
    lambda_h: float                # human recruits / Tu
    lambda_m: float                # mosquito recruits / Tu
    theta: float                   # bites / Tu
    mu_h: RateSpec                 # natural mortality, humans (a)
    mu_m: RateSpec                 # natural mortality, mosquitoes (a)
    nu_h: RateSpec                 # disease-induced mortality, humans (a, tau)
    nu_m: RateSpec                 # disease-induced mortality, mosquitoes (a, tau)
    gamma_h: RateSpec              # recovery rate (a, tau)
    k_h: RateSpec                  # immunity-loss rate (a, eta)
    beta_h: RateSpec               # transmission probability human->mosquito (a, tau)
    beta_m: RateSpec               # transmission probability mosquito->human (a, tau)
    reduced_mode_eligible: bool = field(init=False)

    def __post_init__(self) -> None:
        if not all(v > 0 and math.isfinite(v) for v in (self.lambda_h, self.lambda_m, self.theta)):
            raise ValueError("lambda_h, lambda_m and theta must be positive and finite")
        # survival along a characteristic factors into an age part and a
        # structure-age part only if no removal rate reads both
        for name in dict.fromkeys(n for terms in _REMOVAL_TERMS.values() for n in terms):
            if all(getattr(self, name).reads):
                raise ValueError(f"removal rate {name} reads both age and its second "
                                 "variable; a removal rate may read at most one")
        eligible = (not self.mu_h.depends_on_age
                    and not self.nu_h.depends_on_age
                    and not self.gamma_h.depends_on_age
                    and not self.k_h.depends_on_age
                    and not self.beta_h.depends_on_age)
        object.__setattr__(self, "reduced_mode_eligible", eligible)

    def with_lambda_m(self, lambda_m: float) -> "ModelParams":
        return replace(self, lambda_m=float(lambda_m))

    def mu_h_value(self) -> float:
        """Constant human mortality; only defined in reduced-eligible mode."""
        if self.mu_h.kind.value != "constant":
            raise ValueError("mu_h is not constant")
        return self.mu_h.params[0]

    def removal_terms(self, pool: str) -> tuple[RateSpec, ...]:
        """The rates whose sum is the total removal rate of a structured
        pool: "i_h" (mortality, disease mortality, recovery), "r_h"
        (mortality, immunity loss) or "i_m" (mosquito mortality, disease
        mortality)."""
        if pool not in _REMOVAL_TERMS:
            raise ValueError(f"unknown field {pool!r}")
        return tuple(getattr(self, name) for name in _REMOVAL_TERMS[pool])

    def removal_rate(self, pool: str):
        """Total removal rate ``(a, s) -> value`` of a structured pool: its
        :meth:`removal_terms` summed in their order."""
        terms = self.removal_terms(pool)
        return lambda a, s: functools.reduce(operator.add,
                                             (eval_rate(spec, a, s) for spec in terms))

    def epsilon_floor(self, grid: Grid) -> float:
        """Lower bound on the human population preserved by the dynamics:
        the steady population of the truncated age axis under the largest
        removal, lambda_h (1 - exp(-sup a_max_h)) / sup, with sup the summed
        grid sup-norms of the human removal rates; lambda_h a_max_h, its
        limit, when no human is ever removed."""
        rates = ((self.mu_h, np.zeros(1)), (self.nu_h, grid.taus_h),
                 (self.gamma_h, grid.taus_h), (self.k_h, grid.etas))
        sup = sum(_scan(spec, grid.n_ah, grid.delta, seconds)[1] for spec, seconds in rates)
        if sup == 0.0:
            return self.lambda_h * grid.a_max_h
        return self.lambda_h * float(-np.expm1(-sup * grid.a_max_h)) / sup


def _range(values) -> tuple[float, float, float]:
    return np.min(values), np.max(values), float(np.sum(values))


def _scan(spec: RateSpec, n_ages: int, delta: float, seconds: np.ndarray,
          sample=eval_rate) -> tuple[float, float, float]:
    """(min, max, sum) of ``sample(spec, ages, seconds)`` (:func:`eval_rate`,
    or :func:`grids.lag_sample` for the samples the model reads of a
    transmission probability) on the grid of ``n_ages`` age centers (step
    ``delta``) times ``seconds``, broadcast to the grid.  A rate that reads
    no age is sampled on one age center and its sum counted ``n_ages``
    times.  A lag sample that reads age and factors as ``f(second) *
    h(offset)`` (:func:`grids.lag_factors`) is scanned on its factors, ``h``
    a block of ages at a time: its extremes are among the four products of
    the factors' extremes and its sum is ``sum(f) * sum(h)``.  Any other rate
    that reads age is scanned a block of ages at a time, never on the whole
    table.  A NaN anywhere makes all three NaN."""
    copies = 1 if spec.reads[0] else n_ages
    factors = lag_factors(spec, 0.0, seconds) if sample is lag_sample and copies == 1 else None
    if factors is not None:
        f_lo, f_hi, f_sum = _range(factors[0])
        lo, hi, sums = zip(*(_range(lag_factors(spec, ages, 0.0)[1])
                             for ages in center_blocks(n_ages, delta)))
        corners = np.outer((f_lo, f_hi), (np.min(lo), np.max(hi)))
        return float(np.min(corners)), float(np.max(corners)), f_sum * sum(sums)
    samples = (np.broadcast_to(sample(spec, ages[:, None], seconds[None, :]),
                               (len(ages), len(seconds)))
               for ages in center_blocks(n_ages // copies, delta, len(seconds)))
    lo, hi, sums = zip(*(_range(v) for v in samples))
    return float(np.min(lo)), float(np.max(hi)), copies * sum(sums)


def preset(name: str, lambda_m: float = 1e7) -> ModelParams:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    mu_h = 0.022 if name == "forward" else 0.002
    return ModelParams(
        lambda_h=8.4e5,
        lambda_m=float(lambda_m),
        theta=3.65e4,
        mu_h=RateSpec.constant(mu_h, Arity.AGE),
        mu_m=RateSpec.constant(20.0, Arity.AGE),
        nu_h=RateSpec.constant(0.1, Arity.AGE_TAU),
        nu_m=RateSpec.constant(25.0, Arity.AGE_TAU),
        gamma_h=RateSpec.piecewise(0.1, 0.0, 50.0, Arity.TAU_ONLY),
        k_h=RateSpec.piecewise(0.1, 0.0, 40.0, Arity.ETA_ONLY),
        beta_h=RateSpec.gauss(0.1, 0.3, 0.1, Arity.TAU_ONLY),
        beta_m=RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0),
    )


def preset_grid(name: str, delta: float = 0.005) -> Grid:
    return default_grid(preset(name).mu_h_value(), delta)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name.ljust(width)}  {c.detail}"
                 for c in self.checks]
        return "\n".join(lines)


def validate(params: ModelParams, grid: Grid) -> ValidationReport:
    """Check the standing assumptions on a concrete grid.

    Failures are report entries, never exceptions: positivity of the scalar
    constants, a strictly positive mortality floor mu_0, boundedness of all
    rates, transmission probabilities within [0, 1] and not identically zero
    on the age-lag samples the kernels and the solver read, and consistency
    of the reduced-mode eligibility flag.
    """
    checks: list[ValidationCheck] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(ValidationCheck(name, bool(passed), detail))

    add("positivity_constants",
        params.lambda_h > 0 and params.lambda_m > 0 and params.theta > 0,
        f"lambda_h={params.lambda_h:g} lambda_m={params.lambda_m:g} theta={params.theta:g}")

    mu0 = estimate_mu0(params, grid)
    add("mortality_floor", mu0 > 0.0, f"mu_0 = {mu0:g}")

    bounded = True
    worst = ""
    no_second = np.zeros(1)
    for name, spec, n_ages, seconds in (
            ("mu_h", params.mu_h, grid.n_ah, no_second),
            ("mu_m", params.mu_m, grid.n_am, no_second),
            ("nu_h", params.nu_h, grid.n_ah, grid.taus_h),
            ("nu_m", params.nu_m, grid.n_am, grid.taus_m),
            ("gamma_h", params.gamma_h, grid.n_ah, grid.taus_h),
            ("k_h", params.k_h, grid.n_ah, grid.etas)):
        lo_v, hi_v, _ = _scan(spec, n_ages, grid.delta, seconds)
        if not (lo_v >= 0 and np.isfinite(hi_v)):
            bounded, worst = False, name
    add("rates_bounded", bounded, "all rates finite and >= 0 on the grid" if bounded
        else f"{worst} is unbounded or negative on the grid")

    # transmissibility on the samples the model reads, {(offset + tau, tau)}
    stats = {name: _scan(spec, n_ages, grid.delta, taus, lag_sample)
             for name, spec, n_ages, taus in (("beta_h", params.beta_h, grid.n_ah, grid.taus_h),
                                              ("beta_m", params.beta_m, grid.n_am, grid.taus_m))}
    outside = [name for name, (lo_v, hi_v, _) in stats.items() if not 0 <= lo_v <= hi_v <= 1]
    add("beta_in_unit_interval", not outside, "beta_h, beta_m within [0, 1]" if not outside
        else f"{outside[-1]} leaves [0, 1] on the grid")
    for name, (_, _, total) in stats.items():
        mass = total * grid.delta ** 2
        add(f"{name}_not_identically_zero", mass > 0.0, f"triangular grid sum = {mass:g}")

    eligible_actual = params.reduced_mode_eligible
    # numerical cross-check of age independence for the human rates
    probe_ages = np.array([grid.delta / 2, grid.a_max_h / 2, grid.a_max_h - grid.delta / 2])
    age_free = True
    for spec, second in ((params.mu_h, np.array([0.0])),
                         (params.nu_h, grid.taus_h[::max(1, grid.n_th // 7)]),
                         (params.gamma_h, grid.taus_h[::max(1, grid.n_th // 7)]),
                         (params.k_h, grid.etas[::max(1, grid.n_eta // 7)]),
                         (params.beta_h, grid.taus_h[::max(1, grid.n_th // 7)])):
        vals = np.asarray(eval_rate(spec, probe_ages[:, None], second[None, :]))
        if vals.ndim == 2 and np.any(np.abs(vals - vals[0]) > 1e-12 * (1 + np.abs(vals[0]))):
            age_free = False
    # a rate declared age-free (RateSpec.reads) that varies on the probe is the
    # one unsafe case; an age-reading rate may be flat on three probe ages
    add("reduced_mode_flag_consistent", age_free or not eligible_actual,
        f"declared {eligible_actual}, grid probe says {age_free}")

    return ValidationReport(tuple(checks))


def estimate_mu0(params: ModelParams, grid: Grid) -> float:
    no_second = np.zeros(1)
    return min(_scan(params.mu_h, grid.n_ah, grid.delta, no_second)[0],
               _scan(params.mu_m, grid.n_am, grid.delta, no_second)[0])
