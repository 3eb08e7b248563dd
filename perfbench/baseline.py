#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 1-10] [--traced]
                                  [--out perfbench/baseline.json]

For each workload and end-to-end metric of BENCHMARK.json it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against a third of the metric's bound. --traced adds
one traced run per workload (first seed) for the per-layer metrics.
--out writes all of it, with every run's values, as a JSON baseline.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py")]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {res.returncode}")
    out = json.loads(res.stdout.splitlines()[-1])
    if not out["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    result = {"host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                      f"{platform.platform()}",
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    steady = True
    for wl in names:
        runs = [run_once(bench, wl, s, 0) for s in args.seeds]
        summary = {}
        print(f"{wl}:")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread <= m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:26s} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}){'' if ok else '  WIDE'}")
            summary[m["name"]] = {"unit": m["unit"], "median": med,
                                  "q1": q1, "q3": q3, "spread": spread,
                                  "values": vals}
        entry = {"end_to_end": summary,
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs]}
        if args.traced:
            traced = run_once(bench, wl, args.seeds[0], 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        result["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
