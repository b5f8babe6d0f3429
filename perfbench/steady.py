#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs `bash perfbench/run.sh` once per seed for each workload (tracing
off), then prints, for every end-to-end metric, the median and the
spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steady.py --seeds 101-110 --out set1.json
    python3 perfbench/steady.py --workloads serve-mixed --seeds 1-5

--out writes every run's metrics and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 101-110")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary, ok = {}, {}, True
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in seed_list(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"] and res["failed"] == 0
            runs[wl].append({"seed": seed, **res})
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        summary[wl] = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs[wl]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            summary[wl][name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                                 "bound": bounds[name], "runs": len(vals)}
            flag = "" if spread < bounds[name] / 3 else ("  > bound/3" if spread <= bounds[name] else "  > BOUND")
            print(f"  {wl:12s} {name:18s} median {med:10.5g}  spread {spread:.4f}  bound {bounds[name]}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "summary": summary, "runs": runs}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
