#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload learn|rewrite|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src in Release) under .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Traced
runs write a Chrome trace and a per-layer self-time table under .bench_out/.
--selftest builds and runs the tests of the benchmark's own checks.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build(["perfbench_checks_test"]):
            return 2
        test = os.path.join(BUILD, "perfbench_checks_test")
        if not os.path.exists(test):
            log("GoogleTest not found; the check tests were not built")
            return 2
        return subprocess.run([test], cwd=ROOT).returncode
    if not build(["perfbench"]):
        return 2
    env = dict(os.environ, DCB_GIT_REV=revision())
    done = subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                          cwd=ROOT, env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
