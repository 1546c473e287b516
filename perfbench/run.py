#!/usr/bin/env python3
"""Builds the over-the-wire XSQL benchmark from this checkout and runs it.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The engine is compiled from ./src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
call builds, later calls only relink what changed. Scratch data goes to
.bench_run/ and span files to .bench_out/, both inside the checkout.
Build output goes to stderr; the benchmark's result is the last line of
stdout. Without the engine sources the script exits non-zero at once.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        fail("engine sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary = os.path.join(build_dir, "xsql_perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", os.path.join(ROOT, ".bench_run"),
               "--spans-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(command)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a killed wrapper.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
