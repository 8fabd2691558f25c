"""Output checks.  Each returns a list of failure messages (empty on success)."""

from __future__ import annotations

import csv
import math
import os
import re

# outputs at the default seed must match the stored reference within this
# tolerance: loose enough for a change of summation order, far too tight for
# a wrong result
REF_RTOL = 1e-7
REF_ATOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z_])[-+]?(?:nan|inf)\b", re.I)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows, skipping ``#`` comment lines."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


def csv_finite_nonnegative(path: str) -> list[str]:
    """Every non-empty cell of the CSV parses as a finite number >= 0."""
    try:
        header, rows = read_csv(path)
    except (OSError, IndexError) as exc:
        return [f"{path}: unreadable CSV ({exc})"]
    if not rows:
        return [f"{path}: no data rows"]
    for i, row in enumerate(rows, start=2):
        for name, cell in zip(header, row):
            if cell == "":
                continue
            try:
                v = float(cell)
            except ValueError:
                return [f"{path}:{i}: {name}={cell!r} is not a number"]
            if not math.isfinite(v) or v < 0:
                return [f"{path}:{i}: {name}={cell} is not finite and non-negative"]
    return []


def _infected_fractions(path: str) -> list[float]:
    header, rows = read_csv(path)
    ih, nh = header.index("total_i_h"), header.index("n_h")
    return [float(r[ih]) / float(r[nh]) for r in rows]


def infected_fraction_grows(path: str) -> list[str]:
    """Supercritical draw: the infected fraction ends above its start and
    still rises over the second half of the run."""
    f = _infected_fractions(path)
    if not (f[-1] > f[0] and f[-1] > f[len(f) // 2]):
        return [f"{path}: infected fraction did not grow ({f[0]:.3e} -> {f[-1]:.3e})"]
    return []


def infected_fraction_below(path: str, limit: float) -> list[str]:
    f = _infected_fractions(path)[-1]
    return [] if f < limit else [f"{path}: final infected fraction {f:.3e} >= {limit:g}"]


def infected_fraction_above(path: str, limit: float) -> list[str]:
    f = _infected_fractions(path)[-1]
    return [] if f > limit else [f"{path}: final infected fraction {f:.3e} <= {limit:g}"]


def branch_header(path: str, classification: str, fold: float | None, tol: float) -> list[str]:
    """Classification and fold threshold from the ``# key=value`` header."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("# ") and "=" in line:
                key, value = line[2:].strip().split("=", 1)
                meta[key] = value
    errors = []
    if meta.get("classification") != classification:
        errors.append(f"{path}: classification {meta.get('classification')!r}, "
                      f"expected {classification!r}")
    star = meta.get("r0_star")
    if fold is None:
        if star != "None":
            errors.append(f"{path}: unexpected fold at R0* = {star}")
    elif star in (None, "None") or abs(float(star) - fold) > tol:
        errors.append(f"{path}: fold R0* = {star}, expected {fold} +- {tol}")
    return errors


def r0_routes_agree(stdout_path: str, rtol: float) -> list[str]:
    """The R0 routes printed by ``report`` / ``r0`` agree within ``rtol``."""
    with open(stdout_path) as fh:
        values = [float(line.split(")", 1)[1].split()[0]) for line in fh
                  if line.startswith(("r0 squared (", "g(0)"))]
    if len(values) < 2:
        return [f"{stdout_path}: fewer than two R0 routes printed"]
    spread = (max(values) - min(values)) / max(values)
    if not spread <= rtol:
        return [f"{stdout_path}: R0 routes differ by {spread:.2e} > {rtol:g}"]
    return []


def file_size(path: str, expected: int) -> list[str]:
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        return [f"{path}: {exc}"]
    return [] if size == expected else [f"{path}: {size} bytes, expected {expected}"]


def matches_reference(path: str, ref_path: str) -> list[str]:
    """Same text with every number within REF_RTOL / REF_ATOL of the
    reference.  For CSVs the absolute floor scales with each column's
    largest reference value, so values decayed to ~1e-200 compare equal."""
    try:
        with open(path) as fh:
            got = fh.read()
        with open(ref_path) as fh:
            want = fh.read()
    except OSError as exc:
        return [f"{path}: {exc}"]
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return [f"{path}: text differs from the reference {ref_path}"]
    scales = _column_scales(want) if path.endswith(".csv") else None
    for i, (line_g, line_w) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        for j, (g, w) in enumerate(zip(_NUMBER.findall(line_g), _NUMBER.findall(line_w))):
            a, b = float(g), float(w)
            floor = REF_ATOL * (scales.get(j, 0.0) if scales and "," in line_w else 0.0)
            if not abs(a - b) <= REF_RTOL * abs(b) + max(floor, REF_ATOL):
                return [f"{path}:{i}: {g} differs from reference {w}"]
    return []


def _column_scales(text: str) -> dict[int, float]:
    scales: dict[int, float] = {}
    for line in text.splitlines():
        if "," not in line or line.startswith("#"):
            continue
        for j, tok in enumerate(_NUMBER.findall(line)):
            scales[j] = max(scales.get(j, 0.0), abs(float(tok)))
    return scales
