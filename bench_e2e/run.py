#!/usr/bin/env python3
"""Builds bench_e2e and dcs_server from this checkout and runs one workload.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload query_hot --seed 1 --seconds 6 \
        --trace 0

The first run configures and builds into .bench_build/ (about a minute on
four cores); later runs only check that the build is current. The last line
of standard output is the benchmark's result JSON; build logs go to standard
error. Scratch files live under .bench_build/run/ and are removed when the
run ends, as are any worker processes, however the run ends.
"""

import argparse
import ctypes
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "run"
# bench_e2e's own runs finish in well under this; anything longer is hung.
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} is not a full checkout: src/ is missing")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
               "--parallel", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("the build failed", 1)


def reap_everything(child):
    """Kills whatever the benchmark left running and waits for all of it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    for leftover in WORK.glob("dcs_bench_e2e_*"):
        shutil.rmtree(leftover, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    WORK.mkdir(parents=True, exist_ok=True)
    # Workers orphaned by a crash are re-parented here rather than to init,
    # so reap_everything can wait for them.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    command = [str(BUILD / "bench_e2e"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--work-dir", os.path.relpath(WORK, ROOT)]
    # Its own process group, so the benchmark and its workers die together.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def forward(signum, _frame):
        # The benchmark winds down and kills its own workers; the process
        # group is killed after it exits in any case.
        try:
            os.kill(child.pid, signum)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        code = 1
    finally:
        reap_everything(child)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
