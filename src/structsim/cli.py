"""Command-line front end.

Subcommands: validate, r0, simulate, growth-rate, bifurcate, reproduce,
report.  Exit codes: 0 success, 1 a check failed, 2 usage or parse error.
Every command is deterministic; CSV outputs are byte-identical across
reruns with the same manifest, and each written artifact gets a JSON
manifest beside it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .bifurcation import (bifurcation_constant, build_reduced_kernels, endemic_seed,
                          k_bar, reconstruct_equilibrium, solve_endemic, trace_branch)
from .characteristics import dominant_growth_rate, g_of_lambda
from .config import ConfigError, load_config
from .grids import Grid, default_grid
from .manifest import RunManifest
from .params import PRESET_NAMES, ModelParams, preset, preset_grid, validate
from .plots import render_svg
from .r0 import power_iteration_r0, r0_closed_form, r0_reduced
from .solver import Observables, default_initial, save_snapshot, simulate

FIGURES = ("fig2-forward", "fig2-backward", "fig3-left", "fig3-right",
           "fig4-tl", "fig4-tr", "fig4-bl", "fig4-br")
SEED_SMALL = 1e-4       # initial infected fraction of the fig4-br recipe


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
    for name in ("a-max-h", "a-max-m", "tau-max-h", "tau-max-m", "eta-max"):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"grid extent override: {name.replace('-', '_')}")
    p.add_argument("--quiet", action="store_true", help="suppress progress chatter")


def _resolve(args) -> tuple[ModelParams, Grid, str | None]:
    if bool(args.preset) == bool(args.config):
        raise SystemExit2("exactly one of --preset or --config is required")
    if args.preset:
        params = preset(args.preset, 1e7 if args.lambda_m is None else args.lambda_m)
        grid = preset_grid(args.preset, 0.005 if args.delta is None else args.delta)
        name = args.preset
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit2(f"cannot read config: {exc}")
        try:
            params, grid = load_config(text, base_dir=os.path.dirname(args.config) or ".")
        except ConfigError as exc:
            raise SystemExit2(f"config error: {exc}")
        if args.lambda_m is not None:
            params = params.with_lambda_m(args.lambda_m)
        if grid is None:
            mu0 = float(np.min(np.asarray(
                params.mu_h(np.linspace(0.0, 10.0, 64)), dtype=float)))
            grid = default_grid(max(mu0, 1e-6), 0.005 if args.delta is None else args.delta)
        name = None
    overrides = {"delta": args.delta, "a_max_h": args.a_max_h, "a_max_m": args.a_max_m,
                 "tau_max_h": args.tau_max_h, "tau_max_m": args.tau_max_m,
                 "eta_max": args.eta_max}
    changed = {k: v for k, v in overrides.items() if v is not None}
    if changed:
        fields = {k: getattr(grid, k) for k in
                  ("delta", "a_max_h", "a_max_m", "tau_max_h", "tau_max_m", "eta_max")}
        fields.update(changed)
        try:
            grid = Grid(**fields)
        except ValueError as exc:
            raise SystemExit2(f"grid override: {exc}")
    return params, grid, name


class SystemExit2(Exception):
    """Usage or parse failure; maps to exit code 2."""


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
    rep = r0_closed_form(params, grid)
    lines = [rep.format_text()] if method in ("closed", "all") else []
    if method in ("power", "all"):
        rep = power_iteration_r0(params, grid)
        lines = [rep.format_text()]
    if method in ("reduced", "all") and params.reduced_mode_eligible:
        red = r0_reduced(params, grid)
        lines.append(f"r0 squared (reduced)        {red!r}")
    lines.append(f"threshold R0 (= r0 squared)  {rep.r0_squared_closed_form:.6f}")
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("lambda_m,r0_squared,r0\n")
            fh.write(f"{params.lambda_m!r},{rep.r0_squared_closed_form!r},{rep.r0!r}\n")
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
    disease-free state with ``--seed-fraction`` of the humans infected."""
    params, grid, name = _resolve(args)
    if initial is None:
        init = default_initial(params, grid, args.seed_fraction, mode=args.mode)
    else:
        init = initial(params, grid)
    manifest = RunManifest(sys.argv[1:], name, params, grid)
    rows, final = simulate(params, grid, init, args.t_end,
                           output_every=args.output_every, return_final=True)
    _write_rows_csv(args.out, rows)
    manifest.add_output(args.out)
    if args.snapshot:
        save_snapshot(final, grid, args.snapshot)
        manifest.add_output(args.snapshot)
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
    params, grid, name = _resolve(args)
    manifest = RunManifest(sys.argv[1:], name, params, grid)
    branch = trace_branch(params, grid, args.lambda_m_min, args.lambda_m_max, args.points)
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
    values = [rep.r0_squared_closed_form, rep.r0_squared_power_iter]
    g0 = g_of_lambda(params, grid, 0.0)
    values.append(g0)
    lines.append(f"g(0)                        {g0!r}")
    if params.reduced_mode_eligible:
        red = r0_reduced(params, grid)
        values.append(red)
        lines.append(f"r0 squared (reduced)        {red!r}")
        kern = build_reduced_kernels(params, grid)
        kb = k_bar(kern)
        cb = bifurcation_constant(kern)
        roots = solve_endemic(rep.r0_squared_closed_form, kern)
        lines.append("== bifurcation ==")
        lines.append(f"c_bif                       {cb!r}")
        lines.append(f"K_bar                       {kb!r}")
        lines.append(f"direction                   {'backward' if cb > 0 else 'forward'}")
        lines.append(f"endemic roots at this R0    {len(roots)}: "
                     + ", ".join(f"{r:.6f}" for r in roots))
    print("\n".join(lines))
    spread = (max(values) - min(values)) / max(values)
    if spread > 1e-6:
        print(f"METHOD MISMATCH: relative spread {spread:.2e} exceeds 1e-6",
              file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    fig = args.figure
    os.makedirs(args.out_dir, exist_ok=True)

    def out(suffix):
        return os.path.join(args.out_dir, f"{fig}.{suffix}")

    # the recipe chooses the model: reproduce takes no --preset, --config or --lambda-m
    ns = argparse.Namespace(**vars(args), config=None)
    ns.out = out("csv")
    ns.svg = out("svg")
    ns.snapshot = None
    ns.output_every = 40
    ns.mode = "reduced"
    if fig in ("fig2-forward", "fig2-backward"):
        ns.preset = "forward" if fig.endswith("forward") else "backward"
        ns.lambda_m = None
        ns.lambda_m_min, ns.lambda_m_max = 1e6, 1e8
        ns.points = 200
        return cmd_bifurcate(ns)
    recipes = {
        "fig3-left": ("forward", 7e6, 1e-2),
        "fig3-right": ("forward", 5e6, 1e-2),
        "fig4-tl": ("backward", 7.4e7, 1e-2),
        "fig4-tr": ("backward", 1e7, 1e-2),
        "fig4-bl": ("backward", 2.5e7, "endemic"),
        "fig4-br": ("backward", 2.5e7, SEED_SMALL),
    }
    name, lam, seed = recipes[fig]
    ns.preset, ns.lambda_m = name, lam
    if seed == "endemic":
        return cmd_simulate(ns, initial=_upper_endemic_start)
    ns.seed_fraction = seed
    return cmd_simulate(ns)


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
    p.add_argument("--out", help="optional CSV output")
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
    p.add_argument("--lambda-m-min", type=float, required=True)
    p.add_argument("--lambda-m-max", type=float, required=True)
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
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
