"""Seeded workload generators and their output checks.

Each workload turns a seed into a fixed list of CLI invocations (argv plus
the text of any config file they read).  The draws keep every seed in the
same regime and on the same grid, so the cost of a workload does not depend
on the seed.  Every command carries the checks that must hold for any seed;
see ``checks.py`` for the check primitives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks

DEFAULT_SEED = 1     # outputs compared with reference/; seed 7 is held out for claims

# expected peak RSS of the full-mode simulate; the benchmark refuses to start
# it when less than twice this is available, so it is never OOM-killed
FULL_AGE_PEAK_MB = 800

# forward grid plus the age-dependent mortality of the generated config;
# the grid is fixed so the draw of the breakpoint never changes the cost
AGE_CONFIG = """\
[population]
lambda_h = 8.4e5
lambda_m = 1e7
theta    = 3.65e4

[rates]
mu_h    = piecewise({a_star:.4f}, 0.02, 0.024)
mu_m    = constant(20)
nu_h    = constant(0.1)
nu_m    = constant(25)
gamma_h = piecewise(0.1, 0, 50)
k_h     = piecewise(0.1, 0, 40)
beta_h  = gauss(0.1, 0.3, 0.1)
beta_m  = gauss_exp(0.05, 0.2, 0.2, 1.0)

[grid]
delta     = 0.005
a_max_h   = 250
a_max_m   = 1.5
tau_max_h = 0.6
tau_max_m = 1.5
eta_max   = 1.0
"""

# snapshot bytes for the AGE_CONFIG grid: magic, mode flag, 7-double header,
# then five arrays (s_h, i_h, r_h, s_m, i_m) each with ndim byte and shape
_N_AH, _N_TH, _N_ETA, _N_AM, _N_TM = 50000, 120, 200, 300, 300
FULL_SNAPSHOT_BYTES = (10 + 1 + 56
                       + (1 + 8 + 8 * _N_AH) + (1 + 16 + 8 * _N_AH * _N_TH)
                       + (1 + 16 + 8 * _N_AH * _N_ETA) + (1 + 8 + 8 * _N_AM)
                       + (1 + 16 + 8 * _N_AM * _N_TM))


@dataclass
class Command:
    """One CLI invocation: ``structsim.cli.main(argv)`` run in ``workdir``."""
    name: str
    argv: list[str]
    csvs: list[str] = field(default_factory=list)     # outputs compared to the reference
    check: Callable[[str], list[str]] | None = None    # workdir -> failure messages


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)   # config files written before the run
    memory_mb: int = 0                                     # refuse below twice this


def _e(x: float) -> str:
    return f"{x:.6e}"


def transient(rng: random.Random) -> Workload:
    """The reduced unit-CFL step dominates and the branch sweep hardly runs:
    the control for changes to the sweep."""
    lam_f, sf_f = rng.uniform(6.5e6, 9e6), rng.uniform(1e-3, 1e-2)
    lam_b, sf_b = rng.uniform(5e6, 1.5e7), rng.uniform(1e-3, 1e-2)
    sim = ["simulate", "--t-end", "10", "--output-every", "40"]
    return Workload("transient", [
        Command("simulate-forward",
                [*sim, "--preset", "forward", "--lambda-m", _e(lam_f), "--seed-fraction", _e(sf_f),
                 "--out", "forward.csv", "--svg", "forward.svg"],
                ["forward.csv"], lambda d: checks.infected_fraction_grows(f"{d}/forward.csv")),
        Command("simulate-backward",
                [*sim, "--preset", "backward", "--lambda-m", _e(lam_b), "--seed-fraction", _e(sf_b),
                 "--out", "backward.csv", "--svg", "backward.svg"],
                ["backward.csv"],
                lambda d: checks.infected_fraction_below(f"{d}/backward.csv", 1e-6)),
        Command("reproduce-fig4-bl",
                ["reproduce", "--figure", "fig4-bl", "--out-dir", "fig4", "--t-end", "10"],
                ["fig4/fig4-bl.csv"],
                lambda d: checks.infected_fraction_above(f"{d}/fig4/fig4-bl.csv", 1e-2)),
    ])


def branch(rng: random.Random) -> Workload:
    """Root finding over the sweep dominates and the solver is not touched;
    the backward sweep always brackets the fold, so its refinement runs."""
    def sweep(preset: str) -> list[str]:
        lo, hi = rng.uniform(8e5, 1.25e6), rng.uniform(8e7, 1.25e8)
        return ["bifurcate", "--preset", preset, "--lambda-m-min", _e(lo),
                "--lambda-m-max", _e(hi), "--points", "80",
                "--out", f"{preset}.csv", "--svg", f"{preset}.svg"]
    return Workload("branch", [
        Command("bifurcate-backward", sweep("backward"), ["backward.csv"],
                lambda d: checks.branch_header(f"{d}/backward.csv", "backward", 0.308, 1e-3)),
        Command("bifurcate-forward", sweep("forward"), ["forward.csv"],
                lambda d: checks.branch_header(f"{d}/forward.csv", "forward", None, 0.0)),
    ])


def full_age(rng: random.Random) -> Workload:
    """The only workload on the human age axis: full-mode tables larger than
    the last-level cache, the full step, and a 129 MB snapshot to hash."""
    config = AGE_CONFIG.format(a_star=rng.uniform(20.0, 60.0))
    return Workload("full-age", [
        Command("simulate-full",
                ["simulate", "--config", "age.cfg", "--mode", "full", "--t-end", "0.05",
                 "--output-every", "5", "--seed-fraction", "0.01", "--out", "full.csv",
                 "--snapshot", "full.bin", "--svg", "full.svg"],
                ["full.csv"], lambda d: checks.file_size(f"{d}/full.bin", FULL_SNAPSHOT_BYTES)),
    ], files={"age.cfg": config}, memory_mb=FULL_AGE_PEAK_MB)


def queries(rng: random.Random) -> Workload:
    """Short commands: one cold kernel build per answer and the process
    set-up dominate (against ``branch``'s one build with many solves)."""
    def lam(lo: float, hi: float) -> list[str]:
        return ["--lambda-m", _e(rng.uniform(lo, hi))]

    def routes(name: str) -> Callable[[str], list[str]]:
        return lambda d: checks.r0_routes_agree(f"{d}/{name}.stdout", 1e-6)

    config = AGE_CONFIG.format(a_star=rng.uniform(20.0, 60.0))
    return Workload("queries", [
        Command("validate-forward", ["validate", "--preset", "forward", *lam(5e6, 1e7)]),
        Command("validate-backward", ["validate", "--preset", "backward", *lam(1e7, 8e7)]),
        Command("report-forward", ["report", "--preset", "forward", *lam(6.5e6, 9e6)],
                check=routes("report-forward")),
        Command("report-backward", ["report", "--preset", "backward", *lam(2e7, 8e7)],
                check=routes("report-backward")),
        Command("r0-backward", ["r0", "--preset", "backward", *lam(2e7, 8e7), "--method", "all"],
                check=routes("r0-backward")),
        Command("growth-rate-forward", ["growth-rate", "--preset", "forward", *lam(6.5e6, 9e6)]),
        Command("report-age", ["report", "--config", "age.cfg", *lam(6.5e6, 9e6)],
                check=routes("report-age")),
        Command("validate-age", ["validate", "--config", "age.cfg"]),
    ], files={"age.cfg": config})


WORKLOADS = {"transient": transient, "branch": branch, "full-age": full_age, "queries": queries}


def generate(name: str, seed: int) -> Workload:
    """The workload's commands for ``seed``; the same seed gives the same argv."""
    wl = WORKLOADS[name](random.Random(seed))
    for cmd in wl.commands:
        if "--threads" in cmd.argv:
            raise ValueError(f"{cmd.name}: the benchmark runs every command single-threaded")
    return wl
