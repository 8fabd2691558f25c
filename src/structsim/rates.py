"""Closed family of rate functions used by the transmission model.

Every demographic or epidemiological rate is one of five forms:

  constant(c)                          value c everywhere
  piecewise(threshold, low, high)      low for x <= threshold, high after
  gauss(amplitude, center, width)      (A / sqrt(2*pi)) * exp(-((x-c)/w)^2 / 2)
  gauss_exp(amplitude, center, width, decay)
                                       gauss(tau) * exp(-decay*(a-tau)),
                                       and exactly 0 whenever a <= tau
  table(x[], y[])                      piecewise-linear interpolation, clamped

Keeping the family closed (instead of parsing arbitrary expressions) keeps
evaluation allocation-free inside solver loops; ``table`` is the escape
hatch for anything else.

Arity names the variables a rate is declared on: chronological age ``a``,
infection age ``tau``, recovery age ``eta``, or a pair.  ``RateSpec.reads``
is the one rule for which of ``(a, second)`` it actually reads: neither for
``constant``, both for ``gauss_exp``, otherwise ``a`` under AGE arity and the
second variable under every other arity, the pairs included.

The same rule decides the shape of a sample: ``eval_rate`` evaluates a rate
on the axes it reads only.  A ``constant`` is a float, an age-only rate has
the shape of ``a``, the other one-variable rates the shape of the second
argument, and ``gauss_exp`` the broadcast of both.  Callers pass compact axes
(``ages[:, None]``, ``taus[None, :]``); ``rate_table`` broadcasts a sample to
the full table, read-only, for a consumer that indexes every cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


class RateKind(enum.Enum):
    CONSTANT = "constant"
    PIECEWISE_CONSTANT = "piecewise"
    GAUSSIAN_BUMP = "gauss"
    GAUSSIAN_EXP_INDICATOR = "gauss_exp"
    TABLE = "table"


class Arity(enum.Enum):
    AGE = "age"             # f(a)
    AGE_TAU = "age_tau"     # f(a, tau)
    AGE_ETA = "age_eta"     # f(a, eta)
    TAU_ONLY = "tau"        # f(tau)
    ETA_ONLY = "eta"        # f(eta)


@dataclass(frozen=True)
class RateSpec:
    """Immutable symbolic description of one rate function.

    ``params`` is interpreted per ``kind``:
      CONSTANT: (c,)
      PIECEWISE_CONSTANT: (threshold, low, high)
      GAUSSIAN_BUMP: (amplitude, center, width)
      GAUSSIAN_EXP_INDICATOR: (amplitude, center, width, decay)
      TABLE: unused; ``table_x``/``table_y`` hold the samples
    """

    kind: RateKind
    arity: Arity
    params: tuple[float, ...] = ()
    table_x: tuple[float, ...] = field(default=(), repr=False)
    table_y: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        expected = {
            RateKind.CONSTANT: 1,
            RateKind.PIECEWISE_CONSTANT: 3,
            RateKind.GAUSSIAN_BUMP: 3,
            RateKind.GAUSSIAN_EXP_INDICATOR: 4,
            RateKind.TABLE: 0,
        }[self.kind]
        if len(self.params) != expected:
            raise ValueError(
                f"{self.kind.value} takes {expected} parameters, got {len(self.params)}"
            )
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError(f"{self.kind.value} parameter {p!r} is not finite")
            if p < 0:
                raise ValueError(f"negative parameter {p!r} in {self.kind.value}")
        if self.kind in (RateKind.GAUSSIAN_BUMP, RateKind.GAUSSIAN_EXP_INDICATOR):
            if self.params[2] <= 0:
                raise ValueError("gaussian width must be > 0")
        if self.kind is RateKind.GAUSSIAN_EXP_INDICATOR and self.arity is not Arity.AGE_TAU:
            raise ValueError("gauss_exp is only meaningful with (a, tau) arity")
        if self.kind is RateKind.TABLE:
            if len(self.table_x) < 2 or len(self.table_x) != len(self.table_y):
                raise ValueError("table rate needs >= 2 (x, y) samples")
            if any(b <= a for a, b in zip(self.table_x, self.table_x[1:])):
                raise ValueError("table abscissae must be strictly increasing")
            if any(not math.isfinite(v) or v < 0 for v in self.table_y):
                raise ValueError("table values must be finite and non-negative")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float, arity: Arity = Arity.AGE) -> "RateSpec":
        return RateSpec(RateKind.CONSTANT, arity, (float(c),))

    @staticmethod
    def piecewise(threshold: float, low: float, high: float,
                  arity: Arity = Arity.TAU_ONLY) -> "RateSpec":
        return RateSpec(RateKind.PIECEWISE_CONSTANT, arity,
                        (float(threshold), float(low), float(high)))

    @staticmethod
    def gauss(amplitude: float, center: float, width: float,
              arity: Arity = Arity.TAU_ONLY) -> "RateSpec":
        return RateSpec(RateKind.GAUSSIAN_BUMP, arity,
                        (float(amplitude), float(center), float(width)))

    @staticmethod
    def gauss_exp(amplitude: float, center: float, width: float, decay: float) -> "RateSpec":
        return RateSpec(RateKind.GAUSSIAN_EXP_INDICATOR, Arity.AGE_TAU,
                        (float(amplitude), float(center), float(width), float(decay)))

    @staticmethod
    def table(xs, ys, arity: Arity = Arity.AGE) -> "RateSpec":
        return RateSpec(RateKind.TABLE, arity, (),
                        tuple(float(x) for x in xs), tuple(float(y) for y in ys))

    # -- queries -----------------------------------------------------------

    @property
    def reads(self) -> tuple[bool, bool]:
        """Whether the value can vary with (age ``a``, the second variable)."""
        if self.kind is RateKind.CONSTANT:
            return False, False
        if self.kind is RateKind.GAUSSIAN_EXP_INDICATOR:
            return True, True
        age = self.arity is Arity.AGE
        return age, not age

    @property
    def depends_on_age(self) -> bool:
        """True if the value can vary with chronological age ``a``."""
        return self.reads[0]

    def __call__(self, a, second=0.0):
        return eval_rate(self, a, second)


def eval_rate(spec: RateSpec, a, second=0.0):
    """Value of ``spec`` at age ``a`` and second variable ``second``, on the
    axes it reads only (see the module docstring); pure and total on the
    non-negative domain."""
    if spec.kind is RateKind.CONSTANT:
        return float(spec.params[0])
    x = np.asarray(a if spec.reads[0] else second, dtype=float)
    if spec.kind is RateKind.PIECEWISE_CONSTANT:
        threshold, low, high = spec.params
        out = np.where(x <= threshold, low, high)
    elif spec.kind is RateKind.GAUSSIAN_BUMP:
        amp, center, width = spec.params
        out = amp / SQRT_2PI * np.exp(-0.5 * ((x - center) / width) ** 2)
    elif spec.kind is RateKind.GAUSSIAN_EXP_INDICATOR:
        amp, center, width, decay = spec.params
        s = np.asarray(second, dtype=float)
        bump = amp / SQRT_2PI * np.exp(-0.5 * ((s - center) / width) ** 2)
        out = np.where(x <= s, 0.0, bump * np.exp(-decay * np.maximum(x - s, 0.0)))
    else:  # TABLE: linear interpolation, clamped at the ends
        out = np.interp(x, spec.table_x, spec.table_y)
    return out if np.ndim(out) else float(out)


def rate_table(rate, a, second=0.0) -> np.ndarray:
    """The sample ``rate(a, second)`` broadcast, read-only, to the shape of
    ``a`` and ``second``.  ``rate`` is a :class:`RateSpec` or any callable
    ``(a, second) -> sample``, such as ``ModelParams.removal_rate``."""
    return np.broadcast_to(rate(a, second), np.broadcast_shapes(np.shape(a), np.shape(second)))
