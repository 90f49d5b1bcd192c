#!/usr/bin/env python3
"""Build the end-to-end benchmark in Release and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --calibrate --seconds <s>

Run from the root of a checkout. The program's libraries are built from
../src into .bench_build/ (configured once, then rebuilt incrementally);
a traced run writes its span file to .bench_out/. No EON_* variable
reaches the build or the benchmark, so the program runs with its defaults.
The benchmark's last line of standard output is its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "eon_perfbench")
WORKLOADS = ("tpch_warm", "cold_scan", "trickle_ingest")
# One workload run, set-up and checks included, ends well inside this.
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("EON_")}


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources at %s/src; run from the root "
                 "of a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       env=env, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "eon_perfbench", "-j", str(os.cpu_count() or 1)],
                   env=env, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every correctness check a wrong input")
    parser.add_argument("--calibrate", action="store_true",
                        help="time a fixed memory-bound loop instead")
    args = parser.parse_args()
    if not (args.selftest or args.calibrate) and args.workload is None:
        parser.error("--workload is required")

    env = clean_env()
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    elif args.calibrate:
        cmd = [BINARY, "--calibrate", "--seconds", str(args.seconds)]
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            sys.stderr.write(e.stdout if isinstance(e.stdout, str)
                             else e.stdout.decode(errors="replace"))
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
