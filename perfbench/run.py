#!/usr/bin/env python3
"""The ctdb benchmark: builds ctdb from this checkout, runs one workload.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the perfbench CMake package (the ctdb library, ctdb_server and the
benchmark driver) into $CARGO_TARGET_DIR, or .bench_build when unset;
later calls rebuild incrementally. Build output goes to stderr. The
driver prints progress on stderr and one JSON result object as the last
line of stdout; its exit status is passed through, so a wrong answer or a
failed operation makes this script fail. Workloads and metrics are
described in BENCHMARK.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "read_cold_sharded", "write_churn")
BUILD_JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out):
    """Configures (once) and builds; returns the binary directory."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", BUILD_JOBS, "--target",
         "ctdb_server", "perfbench_driver", "perfbench_test"],
        check=True, stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode

    work = os.path.join(out, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [
        os.path.join(out, "perfbench_driver"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--server-bin={os.path.join(out, 'ctdb', 'tools', 'ctdb_server', 'ctdb_server')}",
        f"--work-dir={work}",
    ]
    if args.trace:
        command.append(f"--trace-out={os.path.join(out, args.workload + '.trace.jsonl')}")
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
