#!/usr/bin/env python3
"""Builds and runs the Querc open-loop end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (a CMake package that compiles ../src)
in Release under $CARGO_TARGET_DIR (default .bench_build), runs the
open-loop accounting self-test, then runs the benchmark program. The last
line of standard output is its result object. Any build, test or
benchmark failure exits non-zero without printing a result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_warm", "serve_cold", "serve_retrain", "serve_cold_retrain")


def fail(message, log=None):
    if log:
        sys.stderr.write(log[-4000:])
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def run_step(cmd, timeout, what):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout:.0f} s")
    except OSError as err:
        fail(f"{what} could not start: {err}")
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}",
             proc.stdout + proc.stderr)
    return proc.stdout


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no Querc sources at {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, 300, "cmake configure")
    run_step(["cmake", "--build", str(build_dir), "-j", "4"], 840,
             "cmake build")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)

    sys.stdout.write(run_step([str(build_dir / "loadgen_test")], 60,
                              "loadgen_test"))

    cmd = [str(build_dir / "perfbench_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir / f"trace_{args.workload}_{args.seed}.json")]
    sys.stdout.write(run_step(cmd, 170, "perfbench_e2e"))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
