#!/usr/bin/env python3
"""Compares two jtpbench result files against the bounds in BENCHMARK.json.

    python3 bench/perf/compare.py A.json B.json

A is the baseline, B the candidate; both come from bench/perf/run.sh
(set mode, --out). Each workload and end-to-end metric gets one row:

  unresolved  the run-to-run spread (IQR / median, the wider of the two
              sides) exceeds the metric's bound and the two sides' runs
              overlap;
  regressed   B's median is worse than A's by more than the bound;
  improved    B's median is better than A's by more than the bound;
  unchanged   otherwise.

It flags every workload whose model.digest changed (the simulation
computed something else) and exits 1 on any regression or on a fail_rate
higher in B than in A.
"""
import json
import os
import statistics
import sys


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, bound, lower_is_better):
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    if lower_is_better:
        b_beats, a_beats = max(b) < min(a), max(a) < min(b)
    else:
        b_beats, a_beats = min(b) > max(a), min(a) > max(b)
    wide = max(spread(a), spread(b))
    if wide > bound and not (b_beats or a_beats):
        return worse, wide, "unresolved"
    if worse > bound:
        return worse, wide, "regressed"
    if worse < -bound:
        return worse, wide, "improved"
    return worse, wide, "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        a = json.load(f)
    with open(argv[2]) as f:
        b = json.load(f)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    for key in ("seed", "nproc", "build_type", "smoke"):
        if a["meta"].get(key) != b["meta"].get(key):
            print(f"warning: meta.{key} differs: {a['meta'].get(key)} vs "
                  f"{b['meta'].get(key)}")
    print(f"A: {argv[1]} ({a['meta'].get('git_sha')})")
    print(f"B: {argv[2]} ({b['meta'].get('git_sha')})")
    print(f"{'workload':14s} {'metric':12s} {'unit':5s} {'A median':>11s} "
          f"{'B median':>11s} {'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    bad = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:14s} missing from B")
            continue
        for m in metrics:
            ea, eb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if not ea or not eb:
                continue
            worse, wide, v = verdict(ea["values"], eb["values"], m["bound"],
                                     m["better"] == "lower")
            bad |= v == "regressed"
            print(f"{name:14s} {m['name']:12s} {m['unit']:5s} "
                  f"{ea['median']:11.5g} {eb['median']:11.5g} {worse:+8.1%} "
                  f"{wide:7.1%} {m['bound']:6.0%}  {v}")
        fa = wa["end_to_end"]["fail_rate"]["median"]
        fb = wb["end_to_end"]["fail_rate"]["median"]
        if fb > fa:
            bad = True
            print(f"{name:14s} fail_rate rose: {fa:.3g} -> {fb:.3g}")
        da, db = wa["model"]["model.digest"], wb["model"]["model.digest"]
        if da != db:
            print(f"{name:14s} model.digest changed: {da} -> {db}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
