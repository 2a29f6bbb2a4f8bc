#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rt-fresh --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library under
test from src/) into .bench_build/; later runs only rebuild what changed.
Build output goes to .bench_build/build.log, so stdout carries only the
benchmark's own lines, ending with its one-line JSON result.  The exit code
is the benchmark's: 0 when every output check passed.

    python3 perfbench/run.py --self-test    # builds and runs perfbench_test
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = "4"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; returns the build log path."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                return None
        cmd = ["cmake", "--build", BUILD, "--target", target, "-j", JOBS]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            return None
    return build_log


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are missing from this checkout")
        return 2

    if args.self_test:
        if build("perfbench_test") is None:
            log("build failed; see " + os.path.join(BUILD, "build.log"))
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if build("perfbench") is None:
        log("build failed; see " + os.path.join(BUILD, "build.log"))
        return 2
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", source_revision(),
           "--out-dir", BUILD]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
