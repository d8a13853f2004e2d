#!/usr/bin/env python3
"""Build and run one speedbench workload from the root of a checkout.

    python3 speedbench/run.py --workload chat_poisson --seed 1 --seconds 10 --trace 0
    python3 speedbench/run.py --selftest

Builds speedbench (and libspeedllm from the repository's CMake project)
into .bench_build/ when needed, writes the seed's checkpoint into
.bench_out/, runs the workload, and removes the checkpoint again. The
workload's last stdout line is the result JSON; build output goes to
stderr. Exits non-zero, without a result, if the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "speedbench")


def run(cmd, timeout, **kw):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run(["cmake", "-S", os.path.join(ROOT, "speedbench"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], 300, stdout=sys.stderr)
        if rc != 0:
            return rc
    return run(["cmake", "--build", BUILD, "--target", "speedbench", "-j", "4"],
               800, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if build() != 0:
        print("speedbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    if a.selftest:
        return run([BINARY, "selftest"], 170)
    if a.workload is None:
        p.error("--workload is required")

    model = os.path.join(OUT, f"model-{a.workload}-{a.seed}.bin")
    try:
        rc = run([BINARY, "gen", "--workload", a.workload, "--seed",
                  str(a.seed), "--model", model], 120)
        if rc != 0:
            return rc
        return run([BINARY, "run", "--workload", a.workload, "--seed",
                    str(a.seed), "--seconds", a.seconds, "--trace", a.trace,
                    "--model", model, "--out", OUT], 170)
    finally:
        if os.path.exists(model):
            os.remove(model)


if __name__ == "__main__":
    sys.exit(main())
