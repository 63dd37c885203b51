#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs.

    python3 perfbench/resultset.py collect --seeds 1-10 --out set.json
    python3 perfbench/resultset.py compare base.json new.json

`collect` runs perfbench/run.py once per (workload, seed), one run at a
time, and stores every run's metrics with each metric's median, quartiles
and spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)).  A spread at or above a third of the
metric's bound is flagged: that metric is too noisy to resolve its bound.

`compare` reports, per workload and end-to-end metric, the change of the
median and whether it stays within the bound of BENCHMARK.json.  It refuses
sets measured on different backends (compiled vs numpy fallback is a 6-10x
difference that no code change made), with different RYDEIT_BACKEND
settings, run lengths or benchmark definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300
# must match between two sets for their numbers to be comparable
COMPARABLE = ("active_backend", "RYDEIT_BACKEND", "seconds", "trace",
              "nproc", "python", "numpy", "scipy")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values, bound=None):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else None
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread is not None and spread < bound / 3
    return out


def run_one(workload, seed, seconds, trace, record_dir):
    record = os.path.join(record_dir, f"{workload}-s{seed}-t{trace}.json")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", record]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record) as fh:
        env = json.load(fh)["env"]
    return result, env, wall


def collect(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(args.records, exist_ok=True)
    out = {"benchmark": bench, "env": None, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            result, env, wall = run_one(workload, seed, seconds, args.trace,
                                        args.records)
            common = {k: env[k] for k in COMPARABLE}
            common.update(git_rev=env["git_rev"], src_sha256=env["src_sha256"])
            if out["env"] is None:
                out["env"] = common
            elif out["env"] != common:
                raise RuntimeError(f"environment changed mid-set: {common}")
            runs.append({"seed": seed, "wall_s": wall,
                         **{k: result[k] for k in ("correct", "attempted",
                                                   "failed")},
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} wall={wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()
                             if not args.trace), flush=True)
        summary = {}
        if len(runs) >= 2:
            for m in metric_defs:
                values = [r["metrics"][m["name"]] for r in runs]
                summary[m["name"]] = summarize(values, m.get("bound"))
        out["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if "bound" in s:
                print(f"  {workload:11s} {name:12s} median {s['median']:.5g} "
                      f"spread {s['spread']:.4f} bound {s['bound']} "
                      f"{'steady' if s['steady'] else 'NOT STEADY'}")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def compare(args):
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    mismatch = {k: (base["env"][k], new["env"][k]) for k in COMPARABLE
                if base["env"][k] != new["env"][k]}
    if mismatch or base["benchmark"] != new["benchmark"]:
        print(f"refused: the sets are not comparable: {mismatch or 'benchmark definitions differ'}")
        return 2
    worse = 0
    for m in base["benchmark"]["end_to_end"]:
        for workload in base["workloads"]:
            b = base["workloads"][workload]["summary"][m["name"]]
            n = new["workloads"][workload]["summary"][m["name"]]
            change = n["median"] / b["median"] - 1.0
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                verdict = "WORSE beyond bound"
                worse += 1
            elif max(b["spread"], n["spread"]) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"{workload:11s} {m['name']:12s} {b['median']:.5g} -> "
                  f"{n['median']:.5g} {m['unit']} ({change:+.1%}; spreads "
                  f"{b['spread']:.3f}/{n['spread']:.3f}; bound {m['bound']}) "
                  f"{verdict}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    c = sub.add_parser("collect", help="run seeds and summarize")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 101-105,7")
    c.add_argument("--workloads", default=None, help="comma list; default all")
    c.add_argument("--seconds", type=float, default=None,
                   help="default run_seconds of BENCHMARK.json")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--records", default=os.path.join(ROOT, ".perfbench", "runs"))
    c.add_argument("--out", required=True)
    p = sub.add_parser("compare", help="compare two collected sets")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    return collect(args) if args.action == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
