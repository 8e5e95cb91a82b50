#!/usr/bin/env bash
# Enforces the metrics overhead budget (DESIGN.md §8): the instrumented
# library must not slow the hot paths by more than 5%.
#
# Builds two Release trees — DCS_ENABLE_METRICS=ON and OFF — and times two
# benches in both: bench_cutquery (the most instrumentation-dense query
# paths: incremental cut sessions, revolving-door enumeration, trial
# parallelism) and bench_stream (the ingest path: Push admission, gutter
# flushes, Barrier seals). Fails if, for either bench, the best-of-N wall
# time with metrics ON exceeds the OFF time by more than the gate.
#
# Usage: scripts/check_metrics_overhead.sh [reps]   (default 5)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
reps="${1:-5}"
gate_percent=5
out_json="$(mktemp /tmp/check_metrics_overhead.XXXXXX.json)"
trap 'rm -f "${out_json}"' EXIT

build_tree() {
  local build_dir="$1"
  local metrics="$2"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DDCS_ENABLE_METRICS="${metrics}" > /dev/null
  cmake --build "${build_dir}" -j"$(nproc)" \
    --target bench_cutquery bench_stream > /dev/null
}

# One run of a bench with its timed arguments.
run_bench() {
  local build_dir="$1"
  local bench="$2"
  case "${bench}" in
    bench_cutquery)
      "${build_dir}/bench/bench_cutquery" --threads 2 --out "${out_json}" ;;
    bench_stream)
      "${build_dir}/bench/bench_stream" --out "${out_json}" ;;
  esac > /dev/null
}

# One timed run; prints wall milliseconds.
one_run_ms() {
  local start end
  start=$(date +%s%N)
  run_bench "$@"
  end=$(date +%s%N)
  echo $(( (end - start) / 1000000 ))
}

on_dir="${repo_root}/build-metrics-on"
off_dir="${repo_root}/build-metrics-off"

echo "=== building metrics ON tree: ${on_dir}"
build_tree "${on_dir}" ON
echo "=== building metrics OFF tree: ${off_dir}"
build_tree "${off_dir}" OFF

failed=0
for bench in bench_cutquery bench_stream; do
  # Interleave a warmup run of each before timing, so neither config pays
  # first-touch costs (page cache, CPU frequency ramp) alone.
  run_bench "${on_dir}" "${bench}"
  run_bench "${off_dir}" "${bench}"

  # The two configurations are timed in strict alternation, so machine-wide
  # drift (thermal ramp, background load) hits both equally instead of
  # biasing whichever block ran second; best-of-N then discards the noise.
  echo "=== timing ${bench}, best of ${reps} interleaved runs each"
  off_ms=""
  on_ms=""
  for _ in $(seq "${reps}"); do
    t=$(one_run_ms "${off_dir}" "${bench}")
    if [[ -z "${off_ms}" || "${t}" -lt "${off_ms}" ]]; then off_ms="${t}"; fi
    t=$(one_run_ms "${on_dir}" "${bench}")
    if [[ -z "${on_ms}" || "${t}" -lt "${on_ms}" ]]; then on_ms="${t}"; fi
  done

  overhead=$(awk -v on="${on_ms}" -v off="${off_ms}" \
    'BEGIN { printf "%.2f", (off > 0) ? ((on - off) * 100.0 / off) : 0 }')
  echo "${bench}: metrics OFF: ${off_ms} ms   metrics ON: ${on_ms} ms   overhead: ${overhead}%"

  pass=$(awk -v on="${on_ms}" -v off="${off_ms}" -v gate="${gate_percent}" \
    'BEGIN { if (on <= off * (1 + gate / 100.0)) print 1; else print 0 }')
  if [[ "${pass}" -ne 1 ]]; then
    echo "FAIL: ${bench} metrics overhead ${overhead}% exceeds the ${gate_percent}% gate" >&2
    failed=1
  fi
done

if [[ "${failed}" -ne 0 ]]; then
  exit 1
fi
echo "OK: both benches within the ${gate_percent}% gate"
