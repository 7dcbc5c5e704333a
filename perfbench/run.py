#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake package that
compiles the simulator from ../src) into .bench_build/perfbench, and trains
the DQN policy office18-dynamic deploys once into .bench_build/perfbench-work.
Later calls reuse both. Arguments are passed to the benchmark binary, which
parses them strictly; its standard output ends with the JSON result line.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def step(cmd):
    """Runs a build step with its output on stderr; stops on failure."""
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("step failed (exit %d): %s" % (r.returncode, " ".join(cmd)))


def build(target):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = max(1, len(os.sched_getaffinity(0)))
    step(["cmake", "--build", BUILD, "--target", target, "-j", str(jobs)])


def main(argv):
    if argv == ["--self-test"]:
        build("perfbench_tests")
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    build("perfbench")
    binary = os.path.join(BUILD, "perfbench")
    step([binary, "--prepare", "--work-dir", WORK])
    return subprocess.run([binary] + argv + ["--work-dir", WORK]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
