#!/usr/bin/env python3
"""Summarize or compare sets of bench_e2e results.

    python3 perfbench/compare.py SET_DIR            # one set: spread per metric
    python3 perfbench/compare.py PARENT_DIR NEW_DIR # two sets: a verdict per metric

A set is a directory of result files written by `run.py ... --out FILE`,
one per (workload, seed) run. Metrics, units, directions and bounds come
from BENCHMARK.json at the repository root.

One set: per workload and metric, the median, the quartiles and the spread
(quartile distance over median, quartiles as statistics.quantiles(n=4)
gives them), flagged when the spread exceeds a third of the bound.

Two sets: runs are paired by seed. A metric is
  improved    if NEW wins at least 9/10 of at least 10 pairs (ties count
              for neither) and the medians differ by more than PARENT's
              quartile distance;
  regressed   if NEW's median is worse than PARENT's by more than the bound
              (end-to-end metrics) or PARENT wins by the improved rule
              (per-layer metrics, which have no bound);
  unresolved  if PARENT's spread exceeds the bound and NEW does not read
              better on every run, or, per layer, if no rule decides;
  no-worse    otherwise.
Exits 1 when any metric regressed or a run failed its checks.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{workload: {seed: result}} from every *.json file in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    if not runs:
        sys.exit(f"compare.py: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return metrics


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs.values()
            if name in r["metrics"]]


def summarize(runs, metrics):
    status = 0
    for workload, by_seed in sorted(runs.items()):
        bad = [s for s, r in by_seed.items() if not r["correct"]]
        print(f"{workload}: {len(by_seed)} runs"
              + (f", FAILED checks at seeds {bad}" if bad else ""))
        status |= bool(bad)
        for name, m in metrics.items():
            vals = values(by_seed, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {name:38s} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {spread:6.2%}")
            if "bound" in m:
                wide = spread > m["bound"] / 3
                line += f" bound {m['bound']:.0%}" + (" WIDE" if wide else "")
            print(line + f" {m['unit']}")
    return status


def better(m, new, old):
    return new < old if m["better"] == "lower" else new > old


def beats(m, pairs, med_a, med_b, iqr):
    """Side a beats side b by the 9/10-wins and gap-beyond-IQR rule;
    `pairs` holds (a, b) values."""
    won = sum(better(m, a, b) for a, b in pairs)
    return (len(pairs) >= 10 and won >= 0.9 * len(pairs)
            and better(m, med_a, med_b) and abs(med_a - med_b) > iqr)


def verdict(m, old_vals, new_vals, pairs):
    oq1, omed, oq3 = quartiles(old_vals)
    _, nmed, _ = quartiles(new_vals)
    iqr = oq3 - oq1
    if beats(m, [(n, o) for o, n in pairs], nmed, omed, iqr):
        return "improved"
    if "bound" not in m:
        return "regressed" if beats(m, pairs, omed, nmed, iqr) else "unresolved"
    worse = nmed - omed if m["better"] == "lower" else omed - nmed
    if omed and worse > m["bound"] * abs(omed):
        return "regressed"
    all_better = all(better(m, n, o) for n in new_vals for o in old_vals)
    if omed and iqr / abs(omed) > m["bound"] and not all_better:
        return "unresolved"
    return "no-worse"


def compare(old_runs, new_runs, metrics):
    status = 0
    for workload in sorted(set(old_runs) | set(new_runs)):
        old, new = old_runs.get(workload, {}), new_runs.get(workload, {})
        seeds = sorted(set(old) & set(new))
        bad = [s for s in new if not new[s]["correct"]]
        print(f"{workload}: {len(old)} parent runs, {len(new)} new runs, "
              f"{len(seeds)} pairs" + (f", FAILED checks at {bad}" if bad else ""))
        status |= bool(bad)
        for name, m in metrics.items():
            ov, nv = values(old, name), values(new, name)
            if not ov or not nv:
                continue
            pairs = [(old[s]["metrics"][name]["value"],
                      new[s]["metrics"][name]["value"]) for s in seeds
                     if name in old[s]["metrics"] and name in new[s]["metrics"]]
            oq1, omed, oq3 = quartiles(ov)
            nq1, nmed, nq3 = quartiles(nv)
            v = verdict(m, ov, nv, pairs)
            status |= v == "regressed"
            print(f"  {name:38s} parent {omed:<11.5g} [{oq1:.5g}, {oq3:.5g}]"
                  f"  new {nmed:<11.5g} [{nq1:.5g}, {nq3:.5g}]"
                  f"  {m['unit']:6s} {v}")
    return status


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    metrics = spec_metrics()
    if len(sys.argv) == 2:
        return summarize(load_set(sys.argv[1]), metrics)
    return compare(load_set(sys.argv[1]), load_set(sys.argv[2]), metrics)


if __name__ == "__main__":
    sys.exit(main())
