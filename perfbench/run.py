#!/usr/bin/env python3
"""Builds and runs the CrowdSky end-to-end benchmark.

    python3 perfbench/run.py --workload <large_query|service_packed|capped_resume>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree. It configures and builds the
library from ../src together with the benchmark driver (perfbench.cc) into
the build directory -- $CARGO_TARGET_DIR if set, else .bench_build, taken
relative to the root -- then runs the driver there with the given
arguments. Build output goes to standard error; the driver's standard
output passes through, and its last line is the JSON result. The exit code
is the driver's, or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "crowdsky_perfbench"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no CrowdSky sources under %s/src" % ROOT, file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", TARGET, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, TARGET)


def main(argv):
    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(build_dir(), "work")
    return subprocess.run([binary] + argv + ["--work-dir", work_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
