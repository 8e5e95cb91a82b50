#!/usr/bin/env python3
"""Perf-regression gate for the bench JSON outputs.

Compares a fresh set of BENCH_*.json files against the committed baselines
and fails (exit 1) when any tracked timing regressed by more than the
threshold (default 15%). Also enforces two same-run acceptance floors: on
a non-scalar dispatch path the vectorized FWHT must be at least 3x the
scalar reference for n >= 4096, and the streaming ingestion pipeline
(BENCH_stream.json) must sustain >= 1M updates/sec at its best
configuration with every bit-identity flag true. The crc32c row of
BENCH_simd.json must report identical scalar and dispatched CRCs.

Usage:
    check_perf_regression.py --baseline DIR --fresh DIR [--threshold 0.15]

Rules:
  * A baseline file that does not exist is skipped with a warning — the
    first run of a new bench bootstraps its baseline.
  * A tracked baseline row that the fresh run no longer produces is
    reported as GONE and fails, machine mismatch or not: a bench that
    stops measuring something must drop the row from its baseline in the
    same change, on purpose.
  * If the two runs report different machine.hardware_concurrency the
    timings are not comparable; every timing regression downgrades to a
    warning (the SIMD speedup floor still applies — it is a same-run
    ratio).
  * Timings are wall-clock and noisy; the threshold is deliberately loose.
    Improvements are reported but never gate.
  * Seed-deterministic metrics (EXACT below) are not timings: any change,
    up or down, fails, machine mismatch or not. A change that moves one
    re-records the baseline and says why.
"""

import argparse
import json
import os
import sys

# (file, path) -> list of (label, key fields, metric field).
# `path` is either a list key whose entries are identified by the key
# fields, or an object key ("" key fields) holding the metric directly.
TRACKED = {
    "BENCH_cutquery.json": [
        ("enumerate_decode", ("k",), "ms_incremental"),
        ("encode_signs", ("log_size",), "ms_flat"),
    ],
    "BENCH_serve.json": [
        ("warm_vs_cold", ("n",), "ms_warm"),
        ("foreach_decode", (), "ms_warm"),
        # The multi-process serving tier under SIGKILL chaos. p50 is the
        # tracked timing: the median is stable under the randomized kill
        # schedule, while p99 (recorded in the JSON) moves with exactly
        # when the kills landed.
        ("cluster", ("kill_rate",), "p50_us"),
    ],
    "BENCH_simd.json": [
        ("rows", ("kernel", "n"), "simd_ns"),
    ],
    "BENCH_stream.json": [
        ("rows", ("inserters", "gutter"), "ns_per_update"),
    ],
    # The bake-off frontier: size_bits is seed-deterministic (see EXACT).
    "BENCH_sparsifier.json": [
        ("frontier", ("family", "backend", "beta", "epsilon"), "size_bits"),
    ],
    # The disk-backed store's restart tiers: total time from worker spawn
    # to every pre-restart answer re-served, per restart mode.
    "BENCH_store.json": [
        ("restart", ("mode",), "ms_to_full_qps"),
    ],
}

# (file, metric) pairs that are pure functions of the bench's seeds, so the
# fresh value must equal the baseline exactly: a sketch that changes size
# by one bit, either way, fails the gate.
EXACT = {
    ("BENCH_sparsifier.json", "size_bits"),
}

# Acceptance floor: vectorized FWHT >= 3x scalar at n >= 4096 when the
# bench ran on a real SIMD path.
FWHT_MIN_SPEEDUP = 3.0
FWHT_MIN_N = 4096

# Acceptance floor: the streaming ingestion pipeline must sustain at least
# 1M updates/sec at its best (inserters, gutter) point (same-run value,
# independent of any baseline).
STREAM_MIN_UPDATES_PER_SEC = 1_000_000.0


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_by_key(doc, path, key_fields):
    """Yield (label, row) for every tracked row in the document."""
    node = doc.get(path)
    if node is None:
        return
    if not key_fields:
        yield path, node
        return
    for row in node:
        label = ",".join(f"{k}={row[k]}" for k in key_fields)
        yield f"{path}[{label}]", row


def compare_file(name, base_doc, fresh_doc, threshold, warn_only, report):
    failures = 0
    for path, key_fields, metric in TRACKED[name]:
        base_rows = dict(rows_by_key(base_doc, path, key_fields))
        fresh_rows = dict(rows_by_key(fresh_doc, path, key_fields))
        for label in base_rows:
            if label not in fresh_rows:
                report(f"  GONE  {name} {label}.{metric}: baseline row not "
                       f"produced by the fresh run")
                failures += 1
        for label, fresh_row in fresh_rows.items():
            base_row = base_rows.get(label)
            if base_row is None:
                report(f"  NEW   {name} {label}.{metric} = "
                       f"{fresh_row[metric]:.3f} (no baseline row)")
                continue
            base = float(base_row[metric])
            fresh = float(fresh_row[metric])
            if (name, metric) in EXACT:
                tag = f"{name} {label}.{metric}: {base:.0f} -> {fresh:.0f}"
                if fresh != base:
                    report(f"  FAIL  {tag} (seed-deterministic: must equal "
                           f"the baseline)")
                    failures += 1
                else:
                    report(f"  ok    {tag}")
                continue
            if base <= 0:
                continue
            ratio = fresh / base
            tag = f"{name} {label}.{metric}: {base:.3f} -> {fresh:.3f} " \
                  f"({ratio:+.1%} of baseline)".replace("+", "")
            if ratio > 1.0 + threshold:
                if warn_only:
                    report(f"  WARN  {tag} exceeds threshold "
                           f"(machine mismatch: not gating)")
                else:
                    report(f"  FAIL  {tag} exceeds +{threshold:.0%}")
                    failures += 1
            else:
                report(f"  ok    {tag}")
    return failures


def check_simd_floor(doc, report):
    """Same-run speedup floor; independent of any baseline."""
    dispatch = doc.get("dispatch_path", "scalar")
    if dispatch == "scalar":
        report("  skip  FWHT speedup floor (scalar dispatch path)")
        return 0
    failures = 0
    checked = 0
    for row in doc.get("rows", []):
        if row.get("kernel") != "fwht_i64" or row.get("n", 0) < FWHT_MIN_N:
            continue
        checked += 1
        speedup = float(row.get("speedup", 0.0))
        if speedup < FWHT_MIN_SPEEDUP:
            report(f"  FAIL  fwht_i64 n={row['n']}: speedup {speedup:.2f} "
                   f"< {FWHT_MIN_SPEEDUP:.1f} on {dispatch} path")
            failures += 1
        else:
            report(f"  ok    fwht_i64 n={row['n']}: speedup {speedup:.2f} "
                   f">= {FWHT_MIN_SPEEDUP:.1f} ({dispatch})")
    if checked == 0:
        report(f"  FAIL  no fwht_i64 rows with n >= {FWHT_MIN_N} "
               f"on {dispatch} path")
        failures += 1
    return failures


def check_stream_floor(doc, report):
    """Same-run ingestion throughput floor; independent of any baseline."""
    best = float(doc.get("best_updates_per_sec", 0.0))
    if best < STREAM_MIN_UPDATES_PER_SEC:
        report(f"  FAIL  best_updates_per_sec {best:,.0f} < "
               f"{STREAM_MIN_UPDATES_PER_SEC:,.0f} floor")
        return 1
    report(f"  ok    best_updates_per_sec {best:,.0f} >= "
           f"{STREAM_MIN_UPDATES_PER_SEC:,.0f} floor")
    return 0


def check_correctness_flags(name, doc, report):
    """Bit-identity flags recorded by the benches must all be true."""
    failures = 0

    def demand(label, value):
        nonlocal failures
        if value is False:
            report(f"  FAIL  {name} {label} is false (answers diverged)")
            failures += 1

    for row in doc.get("warm_vs_cold", []):
        demand(f"warm_vs_cold[n={row.get('n')}].identical",
               row.get("identical"))
    for row in doc.get("cluster", []):
        # The chaos-soak invariant: every batch a client completed against
        # the worker fleet — including across SIGKILL failovers — matched
        # the single-process oracle bit for bit. A row that failed to run
        # records answers_bit_identical=false and fails here too.
        demand(f"cluster[kill_rate={row.get('kill_rate')}]"
               f".answers_bit_identical",
               row.get("answers_bit_identical"))
    for row in doc.get("enumerate_decode", []):
        demand(f"enumerate_decode[k={row.get('k')}].same_subset",
               row.get("same_subset"))
    for row in doc.get("encode_signs", []):
        demand(f"encode_signs[log_size={row.get('log_size')}].match",
               row.get("match"))
    if name == "BENCH_simd.json":
        # The checksum kernel's two paths must return the same CRC in the
        # same run: every envelope a worker seals must check on a peer that
        # dispatched the other path. A missing row or flag fails too.
        crc_rows = [row for row in doc.get("rows", [])
                    if row.get("kernel") == "crc32c"]
        if not crc_rows:
            report(f"  FAIL  {name} has no crc32c row")
            failures += 1
        for row in crc_rows:
            demand(f"rows[kernel=crc32c,n={row.get('n')}].identical",
                   row.get("identical", False))
    if name == "BENCH_stream.json":
        # Sketch bit-identity across inserter counts and flush
        # interleavings: the whole point of the linear-sketch pipeline.
        demand("answers_identical", doc.get("answers_identical"))
        for row in doc.get("rows", []):
            demand(f"rows[inserters={row.get('inserters')},"
                   f"gutter={row.get('gutter')}].identical",
                   row.get("identical"))
    if name == "BENCH_store.json":
        # The restart contract: a drained worker's respawn — warm or cold
        # — must re-serve every pre-restart answer bit for bit, the warm
        # path must actually reattach from the store (not silently
        # re-send graphs), and a warm restart that is no faster than a
        # cold one means the disk tier stopped paying for itself.
        for row in doc.get("restart", []):
            demand(f"restart[mode={row.get('mode')}]"
                   f".answers_bit_identical",
                   row.get("answers_bit_identical"))
        demand("restored_answers_bit_identical",
               doc.get("restored_answers_bit_identical", False))
        demand("warm_used_reattach", doc.get("warm_used_reattach", False))
        demand("warm_faster_than_cold",
               doc.get("warm_faster_than_cold", False))
        io = doc.get("segment_io", {})
        demand("segment_io.round_trip_identical",
               io.get("round_trip_identical", False))
    if name == "BENCH_sparsifier.json":
        # Accuracy contract: every backend on every zoo family must land
        # within the error bound it advertised, and the cut-balance
        # sketch's imbalance storage must grow with log beta (the paper's
        # Omega(n log beta) term). Either flag false fails the gate.
        frontier = doc.get("frontier", [])
        if not frontier:
            report(f"  FAIL  {name} has no frontier rows")
            failures += 1
        for row in frontier:
            demand(f"frontier[{row.get('family')},{row.get('backend')},"
                   f"beta={row.get('beta')},eps={row.get('epsilon')}]"
                   f".within_epsilon",
                   row.get("within_epsilon", False))
        demand("imbalance_bits_grow_with_log_beta",
               doc.get("imbalance_bits_grow_with_log_beta", False))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="directory with freshly generated BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated slowdown (default 0.15 = 15%%)")
    args = parser.parse_args()

    failures = 0
    for name in sorted(TRACKED):
        fresh_path = os.path.join(args.fresh, name)
        base_path = os.path.join(args.baseline, name)
        if not os.path.exists(fresh_path):
            print(f"{name}: FAIL — fresh run produced no file at "
                  f"{fresh_path}")
            failures += 1
            continue
        fresh_doc = load(fresh_path)
        print(f"{name}:")
        failures += check_correctness_flags(name, fresh_doc, print)
        if name == "BENCH_simd.json":
            failures += check_simd_floor(fresh_doc, print)
        if name == "BENCH_stream.json":
            failures += check_stream_floor(fresh_doc, print)
        if not os.path.exists(base_path):
            print(f"  skip  no committed baseline at {base_path} "
                  f"(bootstrapping)")
            continue
        base_doc = load(base_path)
        base_hw = base_doc.get("machine", {}).get("hardware_concurrency")
        fresh_hw = fresh_doc.get("machine", {}).get("hardware_concurrency")
        warn_only = base_hw != fresh_hw
        if warn_only:
            print(f"  note  machine mismatch (baseline hw={base_hw}, "
                  f"fresh hw={fresh_hw}): timing regressions warn, not gate")
        failures += compare_file(name, base_doc, fresh_doc,
                                 args.threshold, warn_only, print)

    if failures:
        print(f"\nperf gate: {failures} failure(s)")
        return 1
    print("\nperf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
