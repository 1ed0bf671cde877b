"""Summarize benchmark results files into one BENCH_<n>.json.

Usage, from the repository root:

    python3 perfbench/summarize.py --out perfbench/BENCH_1.json \
        .perfbench/results/*.json

Untraced runs are grouped by workload.  Each end-to-end metric gets the
median, quartiles and spread (interquartile range over median) of its
per-run values, checked against a third of its bound in BENCHMARK.json.  The
wall-time samples of every repetition are pooled for the median and the
highest percentile with at least ten samples beyond it.  Traced runs give the
median of each per-layer metric.  Quick-mode results are refused.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(samples):
    """(percentile, value): the highest whole percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(math.ceil(pct / 100 * n) - 1, 0)
    return pct, ordered[rank]


def summarize(paths, bounds):
    runs = defaultdict(list)
    layers = defaultdict(list)
    environments = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["mode"] != "full":
            raise SystemExit(f"{path}: quick-mode results cannot form a baseline")
        environments.append(record["environment"])
        for name, wl in record["workloads"].items():
            (layers if record["trace"] else runs)[name].append(wl)
    out = {"environment": environments[0] if environments else None,
           "git_shas": sorted({str(e["git_sha"]) for e in environments}),
           "workloads": {}}
    steady = True
    for name, wls in sorted(runs.items()):
        entry = {"runs": len(wls), "all_correct": all(w["result"]["correct"] for w in wls),
                 "metrics": {}}
        for metric in wls[0]["result"]["metrics"]:
            values = [w["result"]["metrics"][metric]["value"] for w in wls]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            ok = bound is None or metric == "setup_s" or spread < bound / 3
            steady &= ok
            entry["metrics"][metric] = {
                "unit": wls[0]["result"]["metrics"][metric]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "spread_below_third_of_bound": ok}
        walls = [s for w in wls for s in w["samples"]["wall_s"]]
        pct, value = tail_percentile(walls)
        entry["wall_s_pooled"] = {"samples": len(walls),
                                  "median": statistics.median(walls),
                                  "tail_percentile": pct, "tail_value": value}
        out["workloads"][name] = entry
    for name, wls in sorted(layers.items()):
        metrics = {}
        for metric, m in wls[0]["result"]["metrics"].items():
            values = [w["result"]["metrics"][metric]["value"] for w in wls]
            values = [v for v in values if v is not None]
            metrics[metric] = {"unit": m["unit"],
                               "median": statistics.median(values) if values else None}
        out["workloads"].setdefault(name, {})["per_layer"] = {
            "traced_runs": len(wls), "metrics": metrics}
    return out, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary here (default: stdout only)")
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, steady = summarize(args.results, bounds)
    for name, entry in summary["workloads"].items():
        for metric, m in entry.get("metrics", {}).items():
            print(f"{name:16s} {metric:14s} median {m['median']:<12.6g} "
                  f"spread {m['spread']:.4f} bound {m['bound']}"
                  f"{'' if m['spread_below_third_of_bound'] else '  <- unsteady'}")
        if "wall_s_pooled" in entry:
            p = entry["wall_s_pooled"]
            print(f"{name:16s} wall_s pooled over {p['samples']} repetitions: "
                  f"median {p['median']:.6g}, p{p['tail_percentile']} {p['tail_value']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
