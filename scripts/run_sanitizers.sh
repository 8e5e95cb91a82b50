#!/usr/bin/env bash
# Builds and runs the full test suite under AddressSanitizer (together
# with UndefinedBehaviorSanitizer, which aborts on its first report) and
# ThreadSanitizer (separate build trees, both kept for incremental reruns).
# The sanitizer builds also register tsan_stress_test with ctest, so the
# straggler/data-race stress drivers run under the real checkers.
#
# A third configuration, "metrics-off", compiles the library with
# DCS_ENABLE_METRICS=OFF (no sanitizer) and runs the suite there, proving
# the instrumentation macros really compile out: metric-dependent tests
# skip and everything else behaves identically.
#
# Usage: scripts/run_sanitizers.sh [address|thread|metrics-off]
#   With no argument all three configurations run (address first).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_one() {
  local kind="$1"
  local build_dir
  local -a cmake_flags
  case "${kind}" in
    address)
      build_dir="${repo_root}/build-asan"
      cmake_flags=(-DDCS_ENABLE_SANITIZERS=address)
      ;;
    thread)
      build_dir="${repo_root}/build-tsan"
      cmake_flags=(-DDCS_ENABLE_SANITIZERS=thread)
      ;;
    metrics-off)
      build_dir="${repo_root}/build-metrics-off"
      cmake_flags=(-DDCS_ENABLE_METRICS=OFF)
      ;;
    *)
      echo "unknown configuration '${kind}' (want address, thread, or metrics-off)" >&2
      exit 2
      ;;
  esac
  echo "=== ${kind}: ${build_dir} ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "${cmake_flags[@]}"
  cmake --build "${build_dir}" -j"$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"
  if [[ "${kind}" == "address" || "${kind}" == "thread" ]]; then
    # Run the concurrency-heavy suites once more by themselves so their
    # racy paths (the one-mutex LRU under eviction pressure, concurrent
    # AnswerBatch callers, multi-producer streaming ingestion with
    # concurrent epoch queries) get an isolated, clearly attributed pass
    # under the checker. The sparsifier differential suite rides along:
    # its backend registry exercises every sketch's build/serialize path
    # (including the cut-balance bit packer) under the checker too.
    # transport_test rides along: the socket transport, per-shard
    # in-flight admission on the connection threads, worker drain, and
    # client failover all have thread-heavy paths worth an isolated pass
    # under the checker.
    # store_test rides along: segment append/reopen/compact and the cache
    # snapshot round trip are raw-byte and pread-heavy paths where ASan
    # catches off-by-one record framing that the checksums alone mask.
    # The bit-I/O suites ride along: BitReader/BitWriter and the graph
    # edge-list codec move whole 64-bit words, and a multi-byte load past a
    # buffer's end is exactly the over-read the checksums would hide; the
    # differential tests read from exact-size buffers so ASan sees it, and
    # UBSan sees a word shifted by a computed width of 64.
    # graph_incremental_cut_test rides along: the CutWeights lane kernel
    # indexes its per-vertex mask array by edge endpoints, exactly the
    # out-of-range read ASan catches.
    local isolated='serve_test|tsan_stress_test|stream_test|ingest_test|sparsifier_differential_test|store_test|util_bitio_test|sketch_serialization_test|channel_test|graph_incremental_cut_test'
    local receivers='transport_test|corruption_test'
    if [[ "${kind}" == "address" ]]; then
      ctest --test-dir "${build_dir}" --output-on-failure -R "^(${isolated})$"
      # The socket receivers run with a 128 MB cap on any one allocation:
      # a receiver that allocated up front from a hostile length prefix
      # (up to 1 GiB) fails the run. The largest legitimate buffer, the
      # 32 MB over-cap query body in corruption_test, stays under it, and
      # so does indexing a graph at the worker's vertex cap (transport_test
      # sends one declaring 2^28 vertices and expects a refusal).
      ASAN_OPTIONS="${ASAN_OPTIONS:+${ASAN_OPTIONS}:}max_allocation_size_mb=128" \
        ctest --test-dir "${build_dir}" --output-on-failure \
        -R "^(${receivers})$"
    else
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R "^(${isolated}|${receivers})$"
    fi
    # The SIMD dispatch layer has a scalar path and one vector path per
    # CPU (avx2, or avx512: the avx2 kernels plus the AVX-512 lane add);
    # run the kernels' consumers under the checker on the CPU's default
    # path and on forced scalar. util_simd_test (kernels and a served
    # batch) and graph_incremental_cut_test (CutWeights) also pin every
    # path the CPU has in-process with simd::ForcePath, so the AVX2 lane
    # add runs under the checker on an AVX-512 machine too. The bit-I/O,
    # corruption and store suites seal and check envelopes, frames and
    # segment records, so both CRC32C paths run under the checker too.
    local force_scalar
    for force_scalar in 0 1; do
      echo "--- ${kind}: DCS_FORCE_SCALAR=${force_scalar} ---"
      DCS_FORCE_SCALAR="${force_scalar}" ctest --test-dir "${build_dir}" \
        --output-on-failure \
        -R '^(util_simd_test|util_hadamard_test|serve_test|lowerbound_foreach_test|graph_incremental_cut_test|util_bitio_test|corruption_test|store_test)$'
    done
  fi
  if [[ "${kind}" == "address" ]]; then
    # The chaos sweep drives the lossy-channel retransmission paths end to
    # end; under ASan it doubles as a leak/overflow check on the frame
    # parser and reassembly buffers.
    "${repo_root}/scripts/run_chaos.sh" "${build_dir}"
  fi
}

if [[ $# -gt 1 ]]; then
  echo "usage: $0 [address|thread|metrics-off]" >&2
  exit 2
fi

if [[ $# -eq 1 ]]; then
  run_one "$1"
else
  run_one address
  run_one thread
  run_one metrics-off
fi
