#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median, quartiles and
relative spread (interquartile distance over the median).

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

The pseudo-workload `calibrate` times a fixed memory-bound loop instead,
to show how much the host alone moves a run.

Each run uses its own seed (first-seed, first-seed+1, ...). Quartiles are
those of Python's statistics.quantiles(values, n=4). The bounds in
BENCHMARK.json are set against this output; --seconds defaults to the
run length given there. Every run's result line is appended to
.bench_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py")]
    if workload == "calibrate":
        cmd += ["--calibrate", "--seconds", str(seconds)]
    else:
        cmd += ["--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a")
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, args.trace)
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "seconds": args.seconds,
                                  "trace": args.trace, "result": r}) + "\n")
            log.flush()
            results.append(r)
            ok = ok and r["correct"]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs of %d s, correct %s, failed share %s" % (
            workload, len(results), args.seconds,
            all(r["correct"] for r in results), shares))
        print("  %-36s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            print("  %-36s %12.6g %12.6g %12.6g %8.4f %6s" % (
                name, q1, med, q3, spread,
                "-" if bound is None else bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
