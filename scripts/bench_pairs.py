#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload fig17_train \
        --pairs 10 [--seconds 40] [--trace 1]

PARENT and CHANGE are two checkouts of the repository. Pair i (1-based)
runs `python3 benchmark/run.py --workload W --seed i` in each, the
parent first in odd pairs and the change first in even ones, and reads
each run's last output line. Per metric it prints each side's median
and quartiles, how many pairs the change won (by the metric's `better`
direction in the parent's BENCHMARK.json), and whether the change
passes the gain rule: it wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.

Exits 1 if any run fails, reports "correct": false, or has a failed
operation. The benchmark itself is only invoked, never imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns its result line as a dict."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: run.py exited %d without a result"
                         % (checkout, proc.returncode))
    return json.loads(lines[-1])


def flatten(metrics, prefix=""):
    """{name: value}, nesting (--workload all) joined with dots."""
    out = {}
    for name, m in metrics.items():
        if "value" in m:
            out[prefix + name] = m["value"]
        else:
            out.update(flatten(m, prefix + name + "."))
    return out


def directions(checkout):
    """{metric name: "lower" | "higher"} from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    bad = []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, i, args.seconds,
                           args.trace)
            if not res.get("correct") or res.get("failed", 0):
                bad.append("%s seed %d: correct=%s failed=%s"
                           % (side, i, res.get("correct"),
                              res.get("failed")))
            values[side].append(flatten(res["metrics"]))
            print("pair %d %s: %s" % (i, side, json.dumps(values[side][-1],
                                                          sort_keys=True)),
                  flush=True)

    better = directions(args.parent)
    names = sorted(set(values["parent"][0]) & set(values["change"][0]))
    need = -(-9 * args.pairs // 10)
    for name in names:
        p = [v[name] for v in values["parent"]]
        c = [v[name] for v in values["change"]]
        key = name if name in better else name.split(".", 1)[-1]
        lower = better.get(key, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        plo, phi = quartiles(p)
        clo, chi = quartiles(c)
        gap = (pm - cm) if lower else (cm - pm)
        passes = wins >= need and gap > phi - plo
        print("%s: parent %.6g [%.6g-%.6g] change %.6g [%.6g-%.6g] "
              "(%+.1f%%) change wins %d/%d, gain rule %s"
              % (name, pm, plo, phi, cm, clo, chi,
                 100.0 * (cm - pm) / pm if pm else 0.0, wins,
                 len(p), "passes" if passes else "fails"))
    for line in bad:
        print("FAILED RUN: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
