#!/usr/bin/env bash
# Reachability census of the raidrel library.
#
#   tools/census.sh
#
# Builds the library, its examples and its bench harnesses as a Debug
# build with one section per function (-O0 -ffunction-sections
# -fdata-sections) linked with --gc-sections, installs it into a temp
# directory, and builds perfbench/bench_e2e against that install without
# touching perfbench/. A strong (nm type T) symbol that a src/ archive
# defines is *reached* when it survives section garbage collection in at
# least one of those product binaries. The script prints the number of
# src/ strong symbols, the number no product binary keeps, and the
# unreached ones (demangled, sorted, one line per demangled name). Tests are not product binaries: code
# only tests reach is reported as unreached.
#
# Needs cmake, a C++20 compiler, google-benchmark (for bench/) and nm.
# Everything is built in a temp directory that is removed on exit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/raidrel-census.XXXXXX")
trap 'rm -rf "$work"' EXIT
jobs=$(nproc 2>/dev/null || echo 1)
(( jobs > 4 )) && jobs=4
gen=()
command -v ninja >/dev/null && gen=(-G Ninja)
flags="-O0 -ffunction-sections -fdata-sections"
link="-Wl,--gc-sections"

echo "census: building into $work" >&2
cmake -S "$root" -B "$work/lib" "${gen[@]}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" \
  -DRAIDREL_BUILD_TESTS=OFF -DRAIDREL_BUILD_BENCH=ON \
  -DRAIDREL_BUILD_EXAMPLES=ON -DCMAKE_INSTALL_PREFIX="$work/prefix" >&2
cmake --build "$work/lib" -j "$jobs" >&2
cmake --install "$work/lib" >&2
cmake -S "$root/perfbench" -B "$work/perfbench" "${gen[@]}" \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="$link" -DCMAKE_PREFIX_PATH="$work/prefix" >&2
cmake --build "$work/perfbench" -j "$jobs" >&2

# Library archives of src/ (the install copies exactly these).
mapfile -t archives < <(find "$work/prefix" -name 'libraidrel_*.a' | sort)
# Product binaries: every executable under examples/ and bench/, plus
# perfbench's bench_e2e.
mapfile -t binaries < <(
  find "$work/lib/examples" "$work/lib/bench" -maxdepth 1 -type f \
    -perm -u+x | sort
  echo "$work/perfbench/bench_e2e")
(( ${#archives[@]} > 0 && ${#binaries[@]} > 1 )) || {
  echo "census: nothing built" >&2; exit 1; }

# Symbols are compared by demangled name, so a constructor's or
# destructor's ABI variants (C1/C2, D1/D2) count once.
nm --defined-only "${archives[@]}" 2>/dev/null |
  awk '$2 == "T" { print $3 }' | c++filt | sort -u > "$work/defined"
for b in "${binaries[@]}"; do
  nm --defined-only "$b" | awk 'NF == 3 { print $3 }'
done | c++filt | sort -u > "$work/kept"
comm -23 "$work/defined" "$work/kept" > "$work/unreached"

echo "src strong symbols: $(wc -l < "$work/defined")"
echo "product binaries: ${#binaries[@]}"
echo "unreached: $(wc -l < "$work/unreached")"
cat "$work/unreached"
