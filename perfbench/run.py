"""structsim benchmark: CLI workloads timed end to end, layers from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload transient --seed 1 --seconds 28 --trace 0

One client runs the workload's commands in a closed loop, one CLI
invocation at a time, each in a fresh interpreter that calls
``structsim.cli.main(argv)`` with generated arguments.  A workload run (all
its commands once) repeats while the next one fits in ``--seconds``.  Every
output is checked; the result set goes to ``perfbench/results/`` and the last
line of standard output is a JSON summary.

--trace 0 reports the end-to-end metrics over the workload runs:
  wall_s       first launch to last exit of one workload run
  setup_s      interpreter start plus ``import structsim.cli`` up to the entry
               into ``main``, summed over the run's commands
  peak_rss_mb  highest ru_maxrss of any command in the run
--trace 1 alternates untraced and traced workload runs and reports the
per-layer metrics of ``layers.py``, including the tracing overhead.

``--record-reference`` stores the outputs of one run at the default seed as
the reference that later runs at that seed are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
import workloads
from compare import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
COMMAND_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Refused(Exception):
    """The workload may not start on this machine now."""


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def mem_available_mb() -> float:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    return float("inf")


def machine_state() -> dict:
    return {"loadavg": _read("/proc/loadavg"), "mem_available_mb": round(mem_available_mb(), 1)}


def environment(env: dict) -> dict:
    """Versions and machine facts; also warms the import so that the first
    timed command does not pay for bytecode compilation."""
    probe = ("import sys, json; sys.path.insert(0, 'src'); import structsim.cli, numpy; "
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': blas.get('openblas configuration') or blas.get('name'), "
             "'blas_version': blas.get('version')}))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=COMMAND_TIMEOUT_S, check=True).stdout
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"commit": git.stdout.strip() if git.returncode == 0 else None,
            "python": platform.python_version(), **json.loads(out),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads_env": {k: env.get(k) for k in BLAS_ENV}}


def launch(cmd: workloads.Command, workdir: str, traced: bool, env: dict) -> dict:
    record = os.path.join(workdir, f"{cmd.name}.record")
    with open(os.path.join(workdir, f"{cmd.name}.stdout"), "w") as out, \
            open(os.path.join(workdir, f"{cmd.name}.stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, record, "1" if traced else "0", *cmd.argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"name": cmd.name, "t0": t0, "wall_s": t1 - t0, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "record": record}


def _checked(check, *args) -> list[str]:
    """Run one output check; an output it cannot parse is a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{check.__name__}{args}: {exc!r}"]


def run_workload(wl: workloads.Workload, workdir: str, traced: bool, env: dict,
                 reference: str | None, index: int) -> dict:
    """One workload run: every command once, then the output checks."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name, text in wl.files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    results = []
    for cmd in wl.commands:
        if wl.memory_mb and mem_available_mb() < 2 * wl.memory_mb:
            raise Refused(f"{wl.name}: {mem_available_mb():.0f} MB available, "
                          f"needs twice the expected peak of {wl.memory_mb} MB")
        results.append(launch(cmd, workdir, traced, env))
    wall = results[-1]["t0"] + results[-1]["wall_s"] - results[0]["t0"]

    failures, attempted, setup = [], 0, 0.0
    for cmd, res in zip(wl.commands, results):
        attempted += 1
        try:
            with open(res["record"]) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            rec = {}
        res["setup_s"] = rec["t_main"] - res["t0"] if "t_main" in rec else float("nan")
        setup += res["setup_s"]
        res["record"] = rec
        if res["rc"] != 0 or rec.get("rc") != 0:
            failures.append(f"{cmd.name}: exit code {res['rc']}: "
                            + _read(os.path.join(workdir, f"{cmd.name}.stderr"))[-500:])
            continue
        found = [_checked(checks.csv_finite_nonnegative, os.path.join(workdir, p))
                 for p in cmd.csvs]
        if cmd.check:
            found.append(_checked(cmd.check, workdir))
        if reference:
            found += [_checked(checks.matches_reference, os.path.join(workdir, p),
                               os.path.join(reference, p))
                      for p in [*cmd.csvs, f"{cmd.name}.stdout"]]
        attempted += len(found)
        failures += [msg for errors in found for msg in errors[:1]]
    csv_bytes = sum(os.path.getsize(os.path.join(workdir, p)) for cmd in wl.commands
                    for p in cmd.csvs if os.path.exists(os.path.join(workdir, p)))
    run = {"index": index, "traced": traced, "wall_s": wall, "setup_s": setup,
           "peak_rss_mb": max(r["rss_mb"] for r in results), "attempted": attempted,
           "failures": failures, "values": {"cli.csv_bytes": csv_bytes}, "commands": results}
    if traced:
        traced_ok = [(i, r) for i, r in enumerate(results)
                     if os.path.exists(os.path.join(workdir, f"{r['name']}.record.npz"))]
        run["spans"] = [layers.CommandSpans(os.path.join(workdir, f"{r['name']}.record.npz"),
                                            r["record"], r["wall_s"], r["setup_s"])
                        for _, r in traced_ok]
        run["command_ids"] = [f"{index}.{i}" for i, _ in traced_ok]
    for r in results:
        del r["record"]
    return run


def record_reference(wl: workloads.Workload, workdir: str, reference: str) -> None:
    shutil.rmtree(reference, ignore_errors=True)
    for cmd in wl.commands:
        for p in [*cmd.csvs, f"{cmd.name}.stdout"]:
            os.makedirs(os.path.dirname(os.path.join(reference, p)), exist_ok=True)
            shutil.copyfile(os.path.join(workdir, p), os.path.join(reference, p))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "structsim", "cli.py")):
        print(f"error: no structsim source under {ROOT}/src", file=sys.stderr)
        return 2

    wl = workloads.generate(args.workload, args.seed)
    env = {**os.environ, **BLAS_ENV}
    env.pop("PYTHONPATH", None)
    workdir = os.path.join(HERE, "work", args.workload)
    reference = os.path.join(HERE, "reference", args.workload)
    compare_ref = reference if args.seed == workloads.DEFAULT_SEED \
        and not args.record_reference else None
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": time.time(),
              "inputs": [{"name": c.name, "argv": c.argv} for c in wl.commands],
              "files": wl.files, "machine_before": machine_state(),
              "environment": environment(env)}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stem = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    runs = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and sum(r["traced"] for r in runs) < len(runs) / 2
            t = time.perf_counter()
            runs.append(run_workload(wl, workdir, traced, env, compare_ref, len(runs)))
            runs[-1]["elapsed_s"] = time.perf_counter() - t
            if args.record_reference:
                record_reference(wl, workdir, reference)
                print(f"reference written to {reference}")
                return 0
            done = any(not r["traced"] for r in runs) \
                and (not args.trace or any(r["traced"] for r in runs))
            longest = max(r["elapsed_s"] for r in runs)
            if done and time.perf_counter() - start + longest > args.seconds:
                break
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        result.update(machine_after=machine_state(), runs=runs, attempted=1, failed=1,
                      failures=[f"refused: {exc}"], metrics={})
        return finish(stem, result)

    untraced = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    metrics = {"wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
               "setup_s": {"value": statistics.median(r["setup_s"] for r in untraced),
                           "unit": "s"},
               "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                               "unit": "MB"}}
    cmd_walls = [c["wall_s"] for r in untraced for c in r["commands"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced "
          f"workload runs, {len(cmd_walls)} commands")
    for name, m in metrics.items():
        print(f"{name:<14} {m['value']:<10.4f} {m['unit']}  (median of {len(untraced)} runs)")
    print(f"{'fail_ratio':<14} {len(failures) / attempted:<10.4f}    "
          f"({len(failures)} of {attempted} commands and checks)")
    print(f"{'cmd_p50_s':<14} {percentile(cmd_walls, 0.5)}")
    print(f"{'cmd_p90_s':<14} {percentile(cmd_walls, 0.9)}")
    for f in failures:
        print(f"FAILED {f}")

    if args.trace:
        metrics = layers.derive(traced_runs, untraced)
        flagged = [f"{cid}: coverage {c.coverage:.3f}" for r in traced_runs
                   for c, cid in zip(r["spans"], r["command_ids"])
                   if not layers.COVERAGE_BAND[0] <= c.coverage <= layers.COVERAGE_BAND[1]]
        result["coverage_flags"] = flagged
        for f in flagged:
            print(f"COVERAGE outside {layers.COVERAGE_BAND}: {f}")
        layers.write_spans(stem + ".spans.npz", traced_runs)
        for r in traced_runs:
            del r["spans"]
    result.update(machine_after=machine_state(), runs=runs, attempted=attempted,
                  failed=len(failures), failures=failures, metrics=metrics)
    return finish(stem, result)


def finish(stem: str, result: dict) -> int:
    """Write the result set and print the summary line; exit 1 on any failure."""
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": not result["failed"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
