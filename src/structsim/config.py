"""Plain-text configuration files.

Grammar (line oriented, ``key = value`` inside ``[section]`` headers;
``#`` starts a comment)::

    [population]
    lambda_h = 8.4e5
    lambda_m = 1e7
    theta    = 3.65e4

    [rates]
    mu_h    = constant(0.022)
    mu_m    = constant(20)
    nu_h    = constant(0.1)
    nu_m    = constant(25)
    gamma_h = piecewise(0.1, 0, 50)
    k_h     = piecewise(0.1, 0, 40)
    beta_h  = gauss(0.1, 0.3, 0.1)
    beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)

    [grid]            # optional section
    delta     = 0.005
    a_max_h   = 227.25
    a_max_m   = 1.5
    tau_max_h = 0.6
    tau_max_m = 1.5
    eta_max   = 1.0

All eight rates are required; unknown sections, keys, or rate kinds are
errors, reported with their line number.  Scalar rate forms attached to a
two-variable rate (everything except ``mu_h``/``mu_m``) read the second
structural variable (infection or recovery age); ``gauss_exp`` reads both.
``table(path)`` loads two whitespace/comma-separated columns (x, value)
and interpolates linearly.
"""

from __future__ import annotations

import math
import os
import re

from .grids import Grid
from .params import ModelParams
from .rates import Arity, RateSpec

POPULATION_KEYS = ("lambda_h", "lambda_m", "theta")
RATE_KEYS = ("mu_h", "mu_m", "nu_h", "nu_m", "gamma_h", "k_h", "beta_h", "beta_m")
GRID_KEYS = ("delta", "a_max_h", "a_max_m", "tau_max_h", "tau_max_m", "eta_max")

_SCALAR_ARITY = {
    "mu_h": Arity.AGE, "mu_m": Arity.AGE,
    "nu_h": Arity.TAU_ONLY, "nu_m": Arity.TAU_ONLY,
    "gamma_h": Arity.TAU_ONLY, "beta_h": Arity.TAU_ONLY, "beta_m": Arity.TAU_ONLY,
    "k_h": Arity.ETA_ONLY,
}

# each rate kind: its constructor and the names of its arguments, as the
# argument-count error names them
_RATE_FORMS = {
    "constant": (RateSpec.constant, "c"),
    "piecewise": (RateSpec.piecewise, "threshold", "low", "high"),
    "gauss": (RateSpec.gauss, "amplitude", "center", "width"),
    "gauss_exp": (RateSpec.gauss_exp, "amplitude", "center", "width", "decay"),
    "table": (RateSpec.table, "path"),
}
_COUNTS = {1: "one argument", 3: "three arguments", 4: "four arguments"}

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")


class ConfigError(ValueError):
    """Malformed configuration document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_number(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}", line) from None


def _read_table(path: str, line: int) -> tuple[list[float], list[float]]:
    """The (x, value) columns of a table file; a malformed line is an error
    that names the file and its line."""
    xs, ys = [], []
    try:
        with open(path) as fh:
            for table_line, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw or raw.startswith("#"):
                    continue
                try:
                    x, y = (float(p) for p in raw.replace(",", " ").split())
                except ValueError:
                    raise ConfigError(f"table file {path!r} line {table_line}: expected "
                                      f"two numbers (x, value), got {raw!r}", line) from None
                xs.append(x)
                ys.append(y)
    except OSError as exc:
        raise ConfigError(f"cannot read table file {path!r}: {exc}", line) from None
    return xs, ys


def _parse_rate(name: str, value: str, line: int, base_dir: str) -> RateSpec:
    m = _CALL_RE.match(value)
    if not m:
        raise ConfigError(f"rate {name} must look like kind(args), got {value!r}", line)
    kind, argstr = m.group(1), m.group(2)
    args = [a.strip() for a in argstr.split(",")] if argstr else []
    if kind not in _RATE_FORMS:
        raise ConfigError(f"unknown rate kind {kind!r}", line)
    build, *names = _RATE_FORMS[kind]
    if len(args) != len(names):
        raise ConfigError(f"{kind}({', '.join(names)}) takes {_COUNTS[len(names)]}", line)
    if kind == "gauss_exp" and name != "beta_m":
        raise ConfigError("gauss_exp is only supported for beta_m", line)
    try:
        if kind == "table":
            xs, ys = _read_table(os.path.join(base_dir, args[0]), line)
            return build(xs, ys, _SCALAR_ARITY[name])
        numbers = [_parse_number(a, line) for a in args]
        if kind == "gauss_exp":     # reads both of its variables
            return build(*numbers)
        return build(*numbers, arity=_SCALAR_ARITY[name])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), line) from None


def load_config(text: str, base_dir: str = ".") -> tuple[ModelParams, Grid | None]:
    """Parse a config document into parameters and an optional grid."""
    section = None
    # each section's keys, and each key's (value, line) once it is read
    keys = {"population": POPULATION_KEYS, "rates": RATE_KEYS, "grid": GRID_KEYS}
    seen: dict[str, dict[str, tuple[object, int]]] = {name: {} for name in keys}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in keys:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in seen[section]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key not in keys[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        seen[section][key] = (_parse_rate(key, value, lineno, base_dir) if section == "rates"
                              else _parse_number(value, lineno), lineno)

    values = {name: {key: value for key, (value, _) in found.items()}
              for name, found in seen.items()}
    for key in POPULATION_KEYS:
        if key not in seen["population"]:
            raise ConfigError(f"missing [population] key {key!r}")
        value, lineno = seen["population"][key]
        if value <= 0:
            raise ConfigError(f"negative parameter: {key} must be positive", lineno)
        if not math.isfinite(value):
            raise ConfigError(f"non-finite parameter: {key} must be finite", lineno)
    for key in RATE_KEYS:
        if key not in seen["rates"]:
            raise ConfigError(f"missing [rates] key {key!r}")

    try:
        params = ModelParams(**values["population"], **values["rates"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid = None
    if seen["grid"]:
        missing = [k for k in GRID_KEYS if k not in seen["grid"]]
        if missing:
            raise ConfigError(f"[grid] section incomplete, missing {missing}")
        try:
            grid = Grid(**values["grid"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return params, grid
