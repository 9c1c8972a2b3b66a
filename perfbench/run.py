#!/usr/bin/env python3
"""Build and run one workload of the yasim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pb_grid --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR or .bench_build; later runs only re-check the
build. The harness's own output goes to stdout; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when the build fails, the sources are missing, the
harness fails or finds a changed result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("pb_grid", "smarts_serial", "cache_dir")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group and return (exit code, stdout).

    The whole group is killed, and waited for, on timeout or when this
    script is interrupted or terminated.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def stop(signum, _frame):
        raise KeyboardInterrupt(signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    return proc.returncode, out


def build(bench_dir, build_dir):
    """Configure (once) and build the harness; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "yasim_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--data-seed", type=int, default=12345,
                        help="suite data seed (default: the drivers' 12345)")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("yasim sources not found next to perfbench/ (no src/)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, target)
    binary = build(bench_dir, os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data-seed", str(args.data_seed),
           "--out-dir", out_dir,
           "--digests", os.path.join(bench_dir, "digests.txt")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=root,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        keys = {"correct", "attempted", "failed", "metrics"}
        well_formed = set(result) == keys
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        fail("harness printed no result (exit code %d)" % code)
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
