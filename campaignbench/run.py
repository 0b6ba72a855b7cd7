#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 campaignbench/run.py --workload t3-full --seed 1 --seconds 30 --trace 0
    python3 campaignbench/run.py --write-reference

Configures and builds the simulator's libraries plus the campaignbench
program (Release) under .bench_build/ in the checkout on first use, then
runs the program from the checkout root. Its standard output is passed
through; the last line is the JSON result. Build output goes to
standard error. The exit status is the program's, or 2 when the
benchmark cannot be built.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")
BINARY = os.path.join(BUILD, "campaignbench")
WORKLOADS = ("t3-full", "t3-sampled-store", "t5-fleet")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("campaignbench: no simulator sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "campaignbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("campaignbench: build failed: %s" % " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.txt (after an intended model change)")
    a = p.parse_args()
    if not a.write_reference and not a.workload:
        p.error("--workload is required")

    try:
        build()
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    cmd = [BINARY, "--root", ROOT]
    if a.write_reference:
        cmd += ["--write-reference"]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
    sys.stdout.flush()
    # A terminated wrapper takes the program down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("campaignbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
