#!/usr/bin/env python3
"""Builds the FloretSim benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The library is compiled from ./src by perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr; the benchmark's last stdout line is its JSON result.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, target)


def main(argv):
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it; turning SIGTERM into one keeps a stopped run from
    # orphaning the benchmark process.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_tests")], timeout=RUN_TIMEOUT_S).returncode
        exe = build("floretsim_perf")
        out_dir = os.path.join(build_dir(), "out")
        return subprocess.run([exe, *argv, "--out-dir", out_dir],
                              timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
