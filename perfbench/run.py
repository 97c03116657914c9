#!/usr/bin/env python3
"""Builds and runs the QuantMCU serving benchmark.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the library plus the harness) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build. The
build log goes to stderr, so the last line on stdout is the harness's JSON
result. Traced runs (--trace 1) write Chrome trace files to
<build dir>/out/traces/<workload>.json. perfbench/README.md defines the
workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_mixed", "stream_camera")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"{root} is not a qmcu source checkout (no CMakeLists.txt/src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      stdin=subprocess.DEVNULL).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_one(binary, out_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for w in workloads:
        rc = run_one(binary, out_dir, w, args.seed, args.seconds, args.trace)
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
