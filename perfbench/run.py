#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--openloop-rate RECORDS_PER_SEC]

The benchmark (perfbench/*.cpp) and the serving libraries under src/ are
built with CMake in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the checkout root). Build output goes to
standard error; the last line of standard output is the JSON result. Scratch
files live under .bench_work/ and are removed when the run ends. What stays
there: the reference alert streams, cached per build in .bench_work/cache,
and a traced run's spans in .bench_work/<workload>.trace.json (Chrome trace
format).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("memory-large", "durable-small", "openloop-sharded")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "serving_bench", "-j", jobs],
    ]
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "serving_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--openloop-rate", type=int, default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--openloop-rate", str(args.openloop_rate), "--work-dir", work_dir,
           "--cache-dir", os.path.join(work_root, "cache")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(work_root, args.workload + ".trace.json")]
    os.makedirs(work_root, exist_ok=True)
    sys.stdout.flush()
    try:
        status = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        status = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
