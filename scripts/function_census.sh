#!/usr/bin/env bash
# Function census: prints every dcs:: function that a libdcs_*.a archive
# defines but that no program links.
#
# Builds every program — the benches, the examples, `dcs`, `dcs_server`
# and bench_e2e — at -O0 (so nothing is inlined away) with one section per
# function and -Wl,--gc-sections, so each linked program keeps exactly the
# functions it can reach. A function whose name appears in an archive's
# symbol table and in no program's is run by no program: it is test-only
# or dead. Tests are not programs here.
#
# Usage: scripts/function_census.sh [BUILD_DIR]   (default: build-census/)
# Output: one "module/file.cc<TAB>function" line per orphan, sorted, then a
# per-module count on stderr. Only out-of-line functions count: inline
# header functions and other weak symbols are not attributed to a module.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-census}"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "${repo_root}" -B "${build_dir}/main" "${flags[@]}" >&2
benches="$(sed -n 's/^dcs_add_bench(\(.*\))$/\1/p' \
  "${repo_root}/bench/CMakeLists.txt")"
examples="$(sed -n 's/^dcs_add_example(\(.*\))$/\1/p' \
  "${repo_root}/examples/CMakeLists.txt")"
# shellcheck disable=SC2086  # one target per word
cmake --build "${build_dir}/main" --target dcs_cli dcs_server ${benches} \
  ${examples} -j"${jobs}" >&2

cmake -S "${repo_root}/bench_e2e" -B "${build_dir}/e2e" "${flags[@]}" >&2
cmake --build "${build_dir}/e2e" --target bench_e2e -j"${jobs}" >&2

# Mangled names of the text symbols a binary or archive defines in the dcs
# namespace: functions (_ZN3dcs…, const members _ZNK3dcs…) and the lambdas
# inside them (_ZZN3dcs…). Template instantiations of other namespaces,
# such as std::function's helpers for a dcs lambda, do not count.
dcs_text() {
  nm "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] \(_ZZ\{0,1\}NK\{0,1\}3dcs.*\)$/\1/p'
}

binaries=("${build_dir}/main/tools/dcs" "${build_dir}/main/tools/dcs_server"
  "${build_dir}/e2e/bench_e2e" "${build_dir}/e2e/dcs_tools/dcs_server")
for name in ${benches}; do binaries+=("${build_dir}/main/bench/${name}"); done
for name in ${examples}; do
  binaries+=("${build_dir}/main/examples/${name}")
done
linked="${build_dir}/linked.txt"
for binary in "${binaries[@]}"; do
  [[ -x "${binary}" ]] || { echo "missing program ${binary}" >&2; exit 1; }
  dcs_text "${binary}"
done | sort -u > "${linked}"

# "module/file.cc<TAB>symbol" for every out-of-line function an archive
# defines; nm names each archive member (e.g. "hadamard.cc.o:") before its
# symbols. Weak symbols (inline functions and template instantiations from
# headers) belong to whichever program includes them and are not counted.
for archive in "${build_dir}"/main/src/*/libdcs_*.a; do
  module="$(basename "${archive}" .a)"
  module="${module#libdcs_}"
  nm "${archive}" 2>/dev/null | awk -v module="${module}" '
    /^[^ ]+\.o:$/ { file = substr($0, 1, length($0) - 3); next }
    $2 ~ /^[Tt]$/ && $3 ~ /^_ZZ?NK?3dcs/ { print module "/" file "\t" $3 }'
done | sort -u > "${build_dir}/defined.txt"

# Orphans: defined in an archive, linked into no program; demangled.
awk -F'\t' 'NR == FNR { linked[$0] = 1; next } !($2 in linked)' \
  "${linked}" "${build_dir}/defined.txt" | c++filt | sort -u |
  tee "${build_dir}/orphans.txt"
cut -f1 "${build_dir}/orphans.txt" | cut -d/ -f1 | sort | uniq -c >&2
