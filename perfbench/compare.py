"""Summarise one result set, or compare two.

    python3 perfbench/compare.py SET            # medians, quartiles, fail ratio, p50/p90
    python3 perfbench/compare.py PARENT CHANGE  # per workload and metric, with verdicts

A SET is a directory of ``run.py`` result files (``*.json``) or a list of
them.  Untraced files give the end-to-end metrics, traced files the
per-layer ones.  In a comparison each metric is:

  unresolved   the parent's own runs spread (quartile distance over median)
               wider than the metric's bound, unless every change run reads
               better than every parent run
  regression   the change's median is worse than the parent's by more than
               the bound
  within bound otherwise
Runs of the two sides with the same workload and seed form a pair; the
pairs should alternate which side ran first.  A gain is reported only when
the change wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile distance.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    results = []
    for f in files:
        with open(f) as fh:
            results.append(json.load(fh))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(samples: list[float], q: float) -> str:
    """Reported only with at least ten samples beyond the percentile."""
    if int(len(samples) * (1 - q)) < 10:
        return f"n/a (needs {int(10 / (1 - q))} commands, have {len(samples)})"
    value = statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]
    return f"{value:.4f} s ({len(samples)} commands)"


def by_workload(results: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in results:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def summary(results: list[dict], bounds: dict) -> None:
    for wl, rs in sorted(by_workload(results, 0).items()):
        print(f"== {wl}: {len(rs)} result files, seeds {sorted(r['seed'] for r in rs)}")
        for name, m in sorted(rs[0]["metrics"].items()):
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
            bound = bounds.get(name)
            spread = (q3 - q1) / med if med else 0.0
            note = f"spread {spread:.3f} of bound {bound}" if bound is not None else ""
            print(f"  {name:<14} {med:12.4f} {m['unit']:<3} [{q1:.4f}, {q3:.4f}]  {note}")
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        print(f"  {'fail_ratio':<14} {failed / attempted:12.4f}     ({failed} of {attempted})")
        walls = [c["wall_s"] for r in rs for run in r["runs"] if not run["traced"]
                 for c in run["commands"]]
        print(f"  {'cmd_p50_s':<14} {percentile(walls, 0.5)}")
        print(f"  {'cmd_p90_s':<14} {percentile(walls, 0.9)}")
    for wl, rs in sorted(by_workload(results, 1).items()):
        print(f"== {wl} traced: {len(rs)} result files (median over files)")
        for name, m in rs[0]["metrics"].items():
            med = statistics.median(r["metrics"][name]["value"] for r in rs)
            print(f"  {name:<40} {med:14.6g} {m['unit']}")


def compare(parent: list[dict], change: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_sets, b_sets = by_workload(parent, 0), by_workload(change, 0)
    for wl in sorted(set(a_sets) & set(b_sets)):
        a_rs, b_rs = a_sets[wl], b_sets[wl]
        pairs = [(a, b) for a in a_rs for b in b_rs if a["seed"] == b["seed"]]
        parent_first = sum(a["started"] < b["started"] for a, b in pairs)
        print(f"== {wl}: parent {len(a_rs)} runs, change {len(b_rs)} runs, {len(pairs)} pairs "
              f"({parent_first} with the parent first)")
        for name, m in bounds.items():
            sign = 1.0 if m["better"] == "lower" else -1.0
            a = [r["metrics"][name]["value"] for r in a_rs]
            b = [r["metrics"][name]["value"] for r in b_rs]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            worse = sign * (bm - am) / am
            every_better = max(sign * x for x in b) < min(sign * x for x in a)
            if (a3 - a1) / am > m["bound"] and not every_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            wins = sum(sign * (rb["metrics"][name]["value"] - ra["metrics"][name]["value"]) < 0
                       for ra, rb in pairs)
            if pairs and wins >= 0.9 * len(pairs) and sign * (am - bm) > a3 - a1:
                verdict += f", gain ({wins}/{len(pairs)} pairs won)"
            print(f"  {name:<12} parent {am:.4f} [{a1:.4f}, {a3:.4f}]  change {bm:.4f} "
                  f"[{b1:.4f}, {b3:.4f}]  {-worse:+.1%} better  bound {m['bound']}  {verdict}")


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if len(argv) == 1:
        summary(load(argv), {m["name"]: m["bound"] for m in spec["end_to_end"]})
    elif len(argv) == 2:
        compare(load(argv[:1]), load(argv[1:]), spec)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
