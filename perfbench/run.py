#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload compile_cold|run_hot|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that contains it. The first
run configures and builds perfbench/CMakeLists.txt (the virgil library,
virgild and the benchmark program, Release) into .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr, so the
last line of stdout is always the benchmark's JSON result. Exits non-zero
without a result when the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr)
    return rc == 0


def commit():
    """The commit when this is a git checkout, else "none"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """A digest of every file the benchmark builds or reads: src/,
    tools/, perfbench/ and examples/v3/. Computed on every run, so
    uncommitted edits get a digest of their own."""
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench", os.path.join("examples", "v3")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    data = f.read()
                h.update(str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--root", ".", "--work-dir", work,
        "--virgild", os.path.join(BUILD, "virgild"),
        "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
