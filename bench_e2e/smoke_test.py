#!/usr/bin/env python3
"""Smoke test for bench_e2e: every workload, untraced and traced, at a short
window, through run.py, from the root of a checkout.

Asserts for each run: exit 0, "correct": true, no failed operation, and
exactly the metric names BENCHMARK.json declares for that mode (a metric
renamed in the code or in BENCHMARK.json fails here). After each run, and
after a run interrupted with SIGTERM on purpose, no dcs_server worker of
this checkout is alive and no scratch directory is left.

    python3 bench_e2e/smoke_test.py      # about 80 seconds on four cores
"""

import json
import math
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench_e2e" / "run.py")]
WORK = ROOT / ".bench_build" / "run"
SERVER = str(ROOT / ".bench_build" / "cmake" / "dcs_tools" / "dcs_server")
SECONDS = "2"


def our_workers():
    pids = []
    for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv0 = cmdline.read_bytes().split(b"\0", 1)[0].decode()
        except OSError:
            continue
        if argv0 == SERVER or argv0.endswith(
                ".bench_build/cmake/dcs_tools/dcs_server"):
            pids.append(cmdline.parent.name)
    return pids


def assert_clean(what):
    leftovers = our_workers()
    assert not leftovers, f"{what}: dcs_server still running: {leftovers}"
    scratch = list(WORK.glob("dcs_bench_e2e_*"))
    assert not scratch, f"{what}: scratch left behind: {scratch}"


def run(workload, trace, declared):
    args = ["--workload", workload, "--seed", "1", "--seconds", SECONDS,
            "--trace", trace]
    done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
    what = f"{workload} --trace {trace}"
    assert done.returncode == 0, (
        f"{what}: exit {done.returncode}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, what
    assert result["failed"] == 0 and result["attempted"] >= 1, what
    names = set(result["metrics"])
    assert names == declared, (
        f"{what}: undeclared {sorted(names - declared)}, "
        f"missing {sorted(declared - names)}")
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (what, name)
        assert isinstance(metric["value"], (int, float)), (what, name)
        assert math.isfinite(metric["value"]), (what, name)
    assert_clean(what)
    print(f"ok  {what}", flush=True)


def interrupted_run():
    """SIGTERM mid-window: the run must fail and still clean up."""
    args = ["--workload", "restart", "--seed", "2", "--seconds", "60",
            "--trace", "0"]
    child = subprocess.Popen(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60
    while not our_workers():
        assert child.poll() is None, "restart exited before spawning a worker"
        assert time.monotonic() < deadline, "no worker appeared"
        time.sleep(0.05)
    time.sleep(1.0)
    child.send_signal(signal.SIGTERM)
    child.communicate(timeout=60)
    assert child.returncode != 0, "an interrupted run must not exit 0"
    assert_clean("interrupted restart")
    print("ok  interrupted restart cleans up", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        run(workload, "0", end_to_end)
        run(workload, "1", per_layer)
    interrupted_run()


if __name__ == "__main__":
    main()
