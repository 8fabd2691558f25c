"""Command-line front end.

Subcommands: validate, r0, simulate, growth-rate, bifurcate, reproduce,
report.  Exit codes: 0 success, 1 a check failed, 2 usage or parse error.
Every command is deterministic; CSV outputs are byte-identical across
reruns with the same manifest, and each written artifact gets a JSON
manifest beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .bifurcation import (bifurcation_constant, build_reduced_kernels, direction, dk_f,
                          endemic_seed, k_bar, reconstruct_equilibrium, solve_endemic,
                          trace_branch)
from .characteristics import dominant_growth_rate, g_of_lambda
from .config import GRID_KEYS, ConfigError, load_config
from .grids import Grid, default_grid, whole_steps
from .manifest import RunManifest
from .params import PRESET_NAMES, ModelParams, preset, validate
from .plots import render_svg
from .r0 import power_iteration_r0, r0_closed_form, r0_reduced
from .solver import Observables, default_initial, simulate

FIGURES = ("fig2-forward", "fig2-backward", "fig3-left", "fig3-right",
           "fig4-tl", "fig4-tr", "fig4-bl", "fig4-br")
SEED_SMALL = 1e-4       # initial infected fraction of the fig4-br recipe
# the most human age cells a config without a [grid] section gets from the
# default extent 5 / mu_h: 10^7 cells is an 80 MB vector, 20 times the
# backward preset's axis; a smaller mortality needs an explicit extent
MAX_DEFAULT_AGE_CELLS = 10 ** 7


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok(value)``."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    check.__name__ = convert.__name__      # argparse names it in "invalid ... value"
    return check


_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a positive number")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                              "a finite number >= 0")
_fraction = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="built-in parameter set")
    p.add_argument("--config", metavar="PATH", help="configuration file")
    p.add_argument("--lambda-m", type=_positive_float, default=None,
                   help="override the mosquito recruitment rate")
    _add_grid_args(p)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The grid overrides and --quiet, which every subcommand takes."""
    p.add_argument("--delta", type=_positive_float, default=None, help="grid step override")
    for name in GRID_KEYS[1:]:        # the extents, after delta
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None,
                       help=f"grid extent override: {name}")
    p.add_argument("--quiet", action="store_true", help="suppress progress chatter")


def _resolve(args) -> tuple[ModelParams, Grid, str | None]:
    """Model, grid and preset name.  A preset, like a config without [grid],
    gets the default grid of its mu_h; the grid options override any extent.
    The grid is built once, so every grid error exits 2; it is kept as
    ``args.grid`` for the error of a grid too large to allocate."""
    if bool(args.preset) == bool(args.config):
        raise SystemExit2("exactly one of --preset or --config is required")
    name = args.preset
    if args.preset:
        params, grid = preset(args.preset), None
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit2(f"cannot read config: {exc}")
        params, grid = load_config(text, base_dir=os.path.dirname(args.config) or ".")
    if args.lambda_m is not None:
        params = params.with_lambda_m(args.lambda_m)
    changed = {k: v for k in GRID_KEYS if (v := getattr(args, k)) is not None}
    if grid is None:
        delta = changed.setdefault("delta", 0.005)
        mu0 = float(np.min(np.asarray(params.mu_h(np.linspace(0.0, 10.0, 64)), dtype=float)))
        cells = 5.0 / mu0 / delta if mu0 > 0 else math.inf
        if cells > MAX_DEFAULT_AGE_CELLS and args.a_max_h is None:
            extent = f"{cells:.3g} cells" if math.isfinite(cells) else "unbounded"
            fix = "" if args.preset else " or give the config a [grid] section"
            raise SystemExit2(f"mu_h reaches {mu0:g} on ages [0, 10], so the default "
                              f"human age extent 5 / mu_h is {extent}: pass --a-max-h{fix}")
    try:
        grid = (default_grid(max(mu0, 1e-6), **changed) if grid is None
                else dataclasses.replace(grid, **changed))
    except ValueError as exc:
        raise SystemExit2(f"grid: {exc}")
    args.grid = grid
    return params, grid, name


class SystemExit2(Exception):
    """Usage or parse failure; maps to exit code 2."""


def _make_out_dir(args) -> None:
    """A ``reproduce`` recipe's output directory, made only once its run
    has been computed, just before its first write, so that a recipe
    refused by its grid or by an allocation leaves none."""
    if getattr(args, "out_dir", None) is not None:
        os.makedirs(args.out_dir, exist_ok=True)


def _note_sign_disagreement(c_bif: float, dh0: float) -> None:
    """One stderr note when the printed constant and h'(0) differ in sign."""
    if np.sign(c_bif) != np.sign(dh0):
        print(f"note: c_bif = {c_bif:.4f} and h'(0) = dk_f(1, 0) = {dh0:.4f} differ in "
              f"sign; the branch direction follows h'(0)", file=sys.stderr)


def _write_rows_csv(path: str, rows: list[Observables]) -> None:
    with open(path, "w") as fh:
        fh.write(Observables.CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv_row() + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    params, grid, _ = _resolve(args)
    report = validate(params, grid)
    print(report)
    return 0 if report.all_passed else 1


def cmd_r0(args) -> int:
    params, grid, _ = _resolve(args)
    method = args.method
    # the power-iteration report carries the closed form too
    rep = (power_iteration_r0 if method in ("power", "all") else r0_closed_form)(params, grid)
    lines = [] if method == "reduced" else [rep.format_text()]
    if method in ("reduced", "all") and params.reduced_mode_eligible:
        red = r0_reduced(params, grid)
        lines.append(f"r0 squared (reduced)        {red!r}")
    lines.append(f"threshold R0 (= r0 squared)  {rep.r0_squared_closed_form:.6f}")
    print("\n".join(lines))
    return 0


def cmd_growth_rate(args) -> int:
    params, grid, _ = _resolve(args)
    res = dominant_growth_rate(params, grid)
    print(f"g(0) = {res.g0!r}")
    if res.lambda_star is None:
        print("lambda* : no real root bracketable above -mu_0")
    else:
        print(f"lambda* = {res.lambda_star!r}")
    if res.bracket:
        print(f"bracket = [{res.bracket[0]:g}, {res.bracket[1]:g}] "
              f"({res.evaluations} evaluations)")
    return 0


def cmd_simulate(args, initial=None) -> int:
    """``initial(params, grid)`` prepares the start state; by default the
    disease-free state with ``--seed-fraction`` of the humans infected.
    ``--t-end`` must be a whole number of grid steps."""
    params, grid, name = _resolve(args)
    if whole_steps(args.t_end, grid.delta) is None:
        raise SystemExit2(f"--t-end {args.t_end:g} is not a whole number of grid steps "
                          f"(delta = {grid.delta:g})")
    if initial is None:
        def initial(params, grid):
            return default_initial(params, grid, args.seed_fraction, mode=args.mode)
    manifest = RunManifest(args.argv, name, params, grid)
    # the start state is not named here, so the run frees it once its rings hold it
    run = simulate(params, grid, initial(params, grid), args.t_end,
                   output_every=args.output_every, snapshot=args.snapshot)
    rows, digest = run if args.snapshot else (run, None)
    _make_out_dir(args)
    _write_rows_csv(args.out, rows)
    manifest.add_output(args.out)
    if args.snapshot:
        manifest.add_output(args.snapshot, digest)
    if args.svg:
        ts = [r.t for r in rows]
        render = render_svg(
            [("total infected humans", ts, [r.total_i_h for r in rows]),
             ("total infected mosquitoes", ts, [r.total_i_m for r in rows])],
            "time", "total infected", logx=True, logy=True)
        with open(args.svg, "w") as fh:
            fh.write(render)
        manifest.add_output(args.svg)
    manifest.write(args.out + ".manifest.json")
    if not args.quiet:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_bifurcate(args) -> int:
    if not args.lambda_m_min < args.lambda_m_max:
        raise SystemExit2(f"--lambda-m-min {args.lambda_m_min:g} must be below "
                          f"--lambda-m-max {args.lambda_m_max:g}")
    params, grid, name = _resolve(args)
    manifest = RunManifest(args.argv, name, params, grid)
    branch = trace_branch(params, grid, args.lambda_m_min, args.lambda_m_max, args.points)
    _note_sign_disagreement(branch.c_bif, branch.dh0)
    _make_out_dir(args)
    with open(args.out, "w") as fh:
        fh.write(f"# classification={branch.classification}\n")
        fh.write(f"# c_bif={branch.c_bif!r}\n")
        fh.write(f"# r0_star={branch.fold_r0_star!r}\n")
        fh.write("lambda_m,r0,n_roots,k1,k2\n")
        for pt in branch.points:
            k1 = repr(pt.roots[0]) if len(pt.roots) > 0 else ""
            k2 = repr(pt.roots[1]) if len(pt.roots) > 1 else ""
            fh.write(f"{pt.lambda_m!r},{pt.r0!r},{len(pt.roots)},{k1},{k2}\n")
    manifest.add_output(args.out)
    if args.svg:
        xs, ys = [], []
        for pt in branch.points:
            for root in pt.roots:
                xs.append(pt.r0)
                ys.append(root)
        render = render_svg([("endemic roots K", xs, ys)],
                            "threshold R0", "infection intensity K",
                            title=f"{branch.classification} branch", markers=True)
        with open(args.svg, "w") as fh:
            fh.write(render)
        manifest.add_output(args.svg)
    manifest.write(args.out + ".manifest.json")
    if not args.quiet:
        fold = f", R0* = {branch.fold_r0_star:.4f}" if branch.fold_r0_star else ""
        print(f"{branch.classification} bifurcation, c_bif = {branch.c_bif:.4f}{fold}")
    return 0


def cmd_report(args) -> int:
    params, grid, _ = _resolve(args)
    rep = power_iteration_r0(params, grid)
    lines = ["== reproduction number ==", rep.format_text()]
    g0 = g_of_lambda(params, grid, 0.0)
    routes = {"power iteration": rep.r0_squared_power_iter, "g(0)": g0}
    lines.append(f"g(0)                        {g0!r}")
    if params.reduced_mode_eligible:
        red = r0_reduced(params, grid)
        routes["reduced"] = red
        lines.append(f"r0 squared (reduced)        {red!r}")
    if params.reduced_mode_eligible and rep.kernel_mass_mh > 0:
        # no branch without a mosquito->human kernel
        kern = build_reduced_kernels(params, grid)
        kb = k_bar(kern)
        cb = bifurcation_constant(kern)
        dh0 = float(dk_f(1.0, 0.0, kern))
        _note_sign_disagreement(cb, dh0)
        roots = solve_endemic(rep.r0_squared_closed_form, kern)
        lines.append("== bifurcation ==")
        lines.append(f"c_bif                       {cb!r}")
        lines.append(f"K_bar                       {kb!r}")
        lines.append(f"direction                   {direction(dh0)}")
        lines.append(f"endemic roots at this R0    {len(roots)}: "
                     + ", ".join(f"{r:.6f}" for r in roots))
    print("\n".join(lines))
    base = rep.r0_squared_closed_form
    values = [base, *routes.values()]
    top = max(values)
    spread = (top - min(values)) / top if top > 0 else 0.0    # all zero: no transmission
    if spread > 1e-6:
        dev, route = max((abs(v - base) / base if base > 0 else math.inf, name)
                         for name, v in routes.items())
        print(f"METHOD MISMATCH: relative spread {spread:.2e} exceeds 1e-6; furthest "
              f"from the closed form: {route} ({dev:.2e} relative)", file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    fig = args.figure

    def out(suffix):
        return os.path.join(args.out_dir, f"{fig}.{suffix}")

    # the recipe chooses the model: reproduce takes no --preset, --config or
    # --lambda-m, and fills them in on its own namespace, where main finds the grid
    args.config = None
    args.out = out("csv")
    args.svg = out("svg")
    args.snapshot = None
    args.output_every = 40
    args.mode = "reduced"
    if fig in ("fig2-forward", "fig2-backward"):
        args.preset = "forward" if fig.endswith("forward") else "backward"
        args.lambda_m = None
        args.lambda_m_min, args.lambda_m_max = 1e6, 1e8
        args.points = 200
        return cmd_bifurcate(args)
    recipes = {
        "fig3-left": ("forward", 7e6, 1e-2),
        "fig3-right": ("forward", 5e6, 1e-2),
        "fig4-tl": ("backward", 7.4e7, 1e-2),
        "fig4-tr": ("backward", 1e7, 1e-2),
        "fig4-bl": ("backward", 2.5e7, "endemic"),
        "fig4-br": ("backward", 2.5e7, SEED_SMALL),
    }
    name, lam, seed = recipes[fig]
    args.preset, args.lambda_m = name, lam
    if seed == "endemic":
        return cmd_simulate(args, initial=_upper_endemic_start)
    args.seed_fraction = seed
    return cmd_simulate(args)


def _upper_endemic_start(params: ModelParams, grid: Grid):
    """Start of the fig4-bl recipe inside the basin of the upper equilibrium:
    the bistable window needs a seed above the unstable branch (~6%
    prevalence)."""
    kern = build_reduced_kernels(params, grid)
    r0_sq = r0_closed_form(params, grid).r0_squared_closed_form
    upper, _ = reconstruct_equilibrium(solve_endemic(r0_sq, kern)[-1], params, grid)
    return endemic_seed(upper, grid)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="structsim",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model assumptions on the grid")
    _add_model_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("r0", help="reproduction number")
    _add_model_args(p)
    p.add_argument("--method", choices=("closed", "power", "reduced", "all"),
                   default="all")
    p.set_defaults(func=cmd_r0)

    p = sub.add_parser("growth-rate", help="dominant linear growth rate at the "
                                           "disease-free state")
    _add_model_args(p)
    p.set_defaults(func=cmd_growth_rate)

    p = sub.add_parser("simulate", help="time-step the transmission system")
    _add_model_args(p)
    p.add_argument("--t-end", type=_nonnegative_float, required=True)
    p.add_argument("--seed-fraction", type=_fraction, default=0.01)
    p.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--output-every", type=_positive_int, default=10)
    p.add_argument("--snapshot", help="optional binary snapshot of the final state")
    p.add_argument("--svg", help="optional log-log SVG of the infected series")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bifurcate", help="trace endemic branches over the "
                                         "mosquito recruitment rate")
    _add_model_args(p)
    p.add_argument("--lambda-m-min", type=_positive_float, required=True)
    p.add_argument("--lambda-m-max", type=_positive_float, required=True)
    p.add_argument("--points", type=_positive_int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("reproduce", help="rebuild one of the reference figures")
    _add_grid_args(p)
    p.add_argument("--figure", choices=FIGURES, required=True)
    p.add_argument("--out-dir", default="reproduction")
    p.add_argument("--t-end", type=_nonnegative_float, default=50.0)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("report", help="aggregate threshold and bifurcation report")
    _add_model_args(p)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]`` and is the
    command line a written manifest records."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.argv = argv
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array larger than the machine before touching it
        grid = getattr(args, "grid", None)
        named = "" if grid is None else (
            f" delta={grid.delta:g} ({grid.n_ah} human and {grid.n_am} mosquito age cells)")
        print(f"error: grid{named} too large to allocate: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
