"""Per-layer metrics derived from the spans of a traced run.

Kinds of metric:
  total    median over the commands that enter the span of the time spent
           in it per command (one call per command for the set-up layers;
           for ``spectral_kernels`` the cache hits count as calls, so the
           per-command total is the build time)
  self     as ``total`` but self time
  call     median over every call (unit us or ms)
  calls    number of calls per workload run, median over the traced runs
  sum      recorded values summed per workload run, median over the runs
  max      largest recorded value
  mean     mean of the recorded values (a ratio of calls)
A layer that a workload never enters reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

import spans

PER_LAYER = [
    # name, unit, kind, span or recorded value
    ("solver.simulate.self_s", "s", "self", "solver.simulate"),
    ("solver.steps", "count", "calls", "solver._step_inplace"),
    ("solver.step_us", "us", "call", "solver._step_inplace"),
    ("solver.observe.calls", "count", "calls", "solver.observe"),
    ("solver.observe_us", "us", "call", "solver.observe"),
    ("solver.default_initial_s", "s", "total", "solver.default_initial"),
    ("solver.state_bytes", "bytes", "max", "solver.state_bytes"),
    ("solver.save_snapshot_s", "s", "total", "solver.save_snapshot"),
    ("solver.snapshot_bytes", "bytes", "sum", "solver.snapshot_bytes"),
    ("bifurcation.trace_branch.self_s", "s", "self", "bifurcation.trace_branch"),
    ("bifurcation.solve_endemic.calls", "count", "calls", "bifurcation.solve_endemic"),
    ("bifurcation.solve_endemic_ms", "ms", "call", "bifurcation.solve_endemic"),
    ("bifurcation.f_value.calls", "count", "calls", "bifurcation.f_value"),
    ("bifurcation.f_value_us", "us", "call", "bifurcation.f_value"),
    ("bifurcation.root_hit_ratio", "ratio", "mean", "bifurcation.root_hit"),
    ("bifurcation.build_reduced_kernels_s", "s", "total", "bifurcation.build_reduced_kernels"),
    ("bifurcation.reconstruct_equilibrium_s", "s", "total", "bifurcation.reconstruct_equilibrium"),
    ("kernels.spectral_kernels_s", "s", "total", "kernels.spectral_kernels"),
    ("kernels.spectral_kernels.calls", "count", "calls", "kernels.spectral_kernels"),
    ("kernels.spectral_kernels.hit_ratio", "ratio", "cache", "kernels.spectral_kernels"),
    ("kernels.spectral_axis_cells", "count", "max", "kernels.spectral_axis_cells"),
    ("r0.closed_form_s", "s", "total", "r0.r0_closed_form"),
    ("r0.power_iteration_s", "s", "total", "r0.power_iteration_r0"),
    ("r0.power_iterations", "count", "sum", "r0.power_iterations"),
    ("r0.reduced_s", "s", "total", "r0.r0_reduced"),
    ("characteristics.g_of_lambda.calls", "count", "calls", "characteristics.g_of_lambda"),
    ("characteristics.g_of_lambda_us", "us", "call", "characteristics.g_of_lambda"),
    ("characteristics.growth_rate_s", "s", "total", "characteristics.dominant_growth_rate"),
    ("params.validate_s", "s", "total", "params.validate"),
    ("grids.build_survival.calls", "count", "calls", "grids.build_survival"),
    ("grids.build_survival_s", "s", "total", "grids.build_survival"),
    ("config.load_config_s", "s", "total", "config.load_config"),
    ("plots.render_svg_s", "s", "total", "plots.render_svg"),
    ("plots.svg_bytes", "bytes", "sum", "plots.svg_bytes"),
    ("manifest.sha256_file_s", "s", "total", "manifest.sha256_file"),
    ("manifest.bytes_hashed", "bytes", "sum", "manifest.bytes_hashed"),
    ("manifest.write_s", "s", "total", "manifest.RunManifest.write"),
    ("cli.self_s", "s", "self", "cli."),
    ("cli.csv_bytes", "bytes", "sum", "cli.csv_bytes"),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.coverage", "ratio", "coverage", None),
]
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# a traced command whose spans plus set-up cover less of its wall time than
# this (or more than the upper end) is flagged: a layer ran outside any span
# or the clocks disagree.  Interpreter exit and the span dump (~0.05 s) are
# uncovered, so the lower end leaves room for that on the short commands.
COVERAGE_BAND = (0.80, 1.01)


class CommandSpans:
    """Span durations of one traced command, grouped by span name."""

    def __init__(self, npz_path: str, record: dict, wall_s: float, setup_s: float):
        with np.load(npz_path) as z:
            names, name = z["names"], z["name"]
            start, end, parent = z["start"], z["end"], z["parent"]
        self.arrays = (names, name, start, end, parent)
        dur = end - start
        own = spans.self_times(start, end, parent)
        self.dur = {str(n): dur[name == i] for i, n in enumerate(names)}
        self.own = {str(n): float(own[name == i].sum()) for i, n in enumerate(names)}
        self.values = record.get("values", {})
        self.caches = record.get("caches", {})
        self.coverage = (setup_s + float(dur[parent < 0].sum())) / wall_s

    def total(self, key: str) -> float:
        return float(self.dur[key].sum()) if key in self.dur else 0.0

    def self_time(self, key: str) -> float:
        return sum(v for n, v in self.own.items() if n == key or (key.endswith(".")
                                                                  and n.startswith(key)))

    def calls(self, key: str) -> int:
        return len(self.dur.get(key, ()))


def derive(traced_runs: list[dict], untraced_runs: list[dict]) -> dict[str, dict]:
    """Per-layer metrics from the traced workload runs (each a dict with
    ``spans``: list[CommandSpans], ``wall_s`` and ``values``)."""
    cmds = [c for run in traced_runs for c in run["spans"]]
    out = {}
    for metric, unit, kind, key in PER_LAYER:
        if kind in ("total", "self"):
            per_cmd = [c.total(key) if kind == "total" else c.self_time(key)
                       for c in cmds if c.calls(key) or (key.endswith(".") and c.self_time(key))]
            value = statistics.median(per_cmd) if per_cmd else 0.0
        elif kind == "call":
            calls = [c.dur[key] for c in cmds if c.calls(key)]
            value = float(np.median(np.concatenate(calls))) * _SCALE[unit] if calls else 0.0
        elif kind == "calls":
            value = statistics.median(sum(c.calls(key) for c in run["spans"])
                                      for run in traced_runs)
        elif kind == "sum":
            value = statistics.median(sum(sum(c.values.get(key, ())) for c in run["spans"])
                                      + run["values"].get(key, 0) for run in traced_runs)
        elif kind in ("max", "mean"):
            vals = [v for c in cmds for v in c.values.get(key, ())]
            value = (max(vals) if kind == "max" else statistics.fmean(vals)) if vals else 0.0
        elif kind == "cache":
            info = [c.caches[key] for c in cmds if key in c.caches]
            hits, misses = sum(i["hits"] for i in info), sum(i["misses"] for i in info)
            value = hits / (hits + misses) if hits + misses else 0.0
        elif kind == "overhead":
            value = (statistics.median(r["wall_s"] for r in traced_runs)
                     - statistics.median(r["wall_s"] for r in untraced_runs))
        else:
            value = statistics.median(c.coverage for c in cmds)
        out[metric] = {"value": value, "unit": unit}
    return out


def write_spans(path: str, traced_runs: list[dict]) -> None:
    """All spans of the traced run in one file: name, start, end, parent
    span (index within its command, -1 at the top) and command id."""
    names: dict[str, int] = {}
    cols = {"name": [], "start": [], "end": [], "parent": [], "command": []}
    cmd_ids = []
    for run in traced_runs:
        for c, cmd_id in zip(run["spans"], run["command_ids"]):
            local, name, start, end, parent = c.arrays
            remap = np.array([names.setdefault(str(n), len(names)) for n in local], np.uint16)
            cols["name"].append(remap[name] if len(remap) else name)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent)
            cols["command"].append(np.full(len(start), len(cmd_ids), np.int32))
            cmd_ids.append(cmd_id)
    np.savez(path, names=np.array(list(names)), command_ids=np.array(cmd_ids),
             **{k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()})
