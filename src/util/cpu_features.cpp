#include "util/cpu_features.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/error.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define RAIDREL_X86_64 1
#endif

namespace raidrel::util {

namespace {

#if defined(RAIDREL_X86_64)

// XGETBV(0): which register states the OS saves/restores. AVX-512 needs
// the xmm+ymm bits plus opmask + zmm hi256 + hi16 zmm.
std::uint64_t xcr0() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

SimdIsa detect() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return SimdIsa::kGeneric;
  // XGETBV is only legal once the OS has enabled it (OSXSAVE).
  if ((ecx & (1u << 27)) == 0) return SimdIsa::kGeneric;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return SimdIsa::kGeneric;
  }
  const bool f = (ebx & (1u << 16)) != 0;
  const bool dq = (ebx & (1u << 17)) != 0;
  const bool vl = (ebx & (1u << 31)) != 0;
  // xmm+ymm (bits 1-2), opmask (5), zmm hi256 (6), hi16 zmm (7) state.
  if (f && dq && vl && (xcr0() & 0xE6) == 0xE6) return SimdIsa::kAvx512;
  return SimdIsa::kGeneric;
}

#else

SimdIsa detect() noexcept { return SimdIsa::kGeneric; }

#endif  // RAIDREL_X86_64

}  // namespace

SimdIsa detected_isa() noexcept {
  static const SimdIsa isa = detect();
  return isa;
}

const char* isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return "generic";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "generic";  // unreachable
}

std::optional<SimdIsa> parse_isa(std::string_view name) noexcept {
  if (name == "generic") return SimdIsa::kGeneric;
  if (name == "avx512") return SimdIsa::kAvx512;
  return std::nullopt;
}

SimdIsa resolve_isa(SimdIsa detected, std::string_view forced) {
  if (forced.empty()) return detected;
  const std::optional<SimdIsa> want = parse_isa(forced);
  RAIDREL_REQUIRE(want.has_value(),
                  "RAIDREL_FORCE_ISA must be one of generic|avx512");
  return *want <= detected ? *want : detected;
}

SimdIsa active_isa() {
  const char* forced = std::getenv("RAIDREL_FORCE_ISA");
  return resolve_isa(detected_isa(), forced == nullptr ? "" : forced);
}

std::vector<int> parse_cpu_list(std::string_view text) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view seg = text.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim whitespace (the sysfs file ends in '\n').
    while (!seg.empty() && (seg.front() == ' ' || seg.front() == '\n' ||
                            seg.front() == '\t')) {
      seg.remove_prefix(1);
    }
    while (!seg.empty() && (seg.back() == ' ' || seg.back() == '\n' ||
                            seg.back() == '\t')) {
      seg.remove_suffix(1);
    }
    if (seg.empty()) continue;
    int lo = 0;
    int hi = 0;
    int consumed = 0;
    const std::string buf(seg);  // need NUL termination for sscanf
    if (std::sscanf(buf.c_str(), "%d-%d%n", &lo, &hi, &consumed) == 2 &&
        consumed == static_cast<int>(buf.size())) {
      if (lo < 0 || hi < lo) continue;
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    } else if (std::sscanf(buf.c_str(), "%d%n", &lo, &consumed) == 1 &&
               consumed == static_cast<int>(buf.size())) {
      if (lo >= 0) cpus.push_back(lo);
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

namespace {

// All logical CPUs the process could run on, as a last-resort node.
std::vector<int> fallback_cpus() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> cpus(n);
  for (unsigned c = 0; c < n; ++c) cpus[c] = static_cast<int>(c);
  return cpus;
}

CpuTopology probe_topology() {
  CpuTopology topo;
#if defined(__linux__)
  // Node ids can be sparse (memory-only or offlined nodes), so probe a
  // generous id range instead of assuming 0..k contiguity. 256 nodes is
  // far beyond any machine this simulator targets.
  for (int id = 0; id < 256; ++id) {
    char path[64];
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/node/node%d/cpulist", id);
    std::FILE* f = std::fopen(path, "re");
    if (f == nullptr) continue;
    char buf[4096];
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[got] = '\0';
    std::vector<int> cpus = parse_cpu_list(buf);
    if (cpus.empty()) continue;  // memory-only node: nothing to schedule
    topo.nodes.push_back({id, std::move(cpus)});
  }
  topo.physical = !topo.nodes.empty();
#endif
  if (topo.nodes.empty()) {
    topo.nodes.push_back({0, fallback_cpus()});
    topo.physical = false;
  }
  return topo;
}

}  // namespace

const CpuTopology& detected_topology() {
  static const CpuTopology topo = probe_topology();
  return topo;
}

CpuTopology active_topology() {
  const char* forced = std::getenv("RAIDREL_FORCE_NUMA_NODES");
  if (forced == nullptr || *forced == '\0') return detected_topology();
  char* end = nullptr;
  const long want = std::strtol(forced, &end, 10);
  RAIDREL_REQUIRE(end != forced && *end == '\0' && want >= 1,
                  "RAIDREL_FORCE_NUMA_NODES must be an integer >= 1");
  // Re-split every detected CPU into `want` synthetic nodes. Block
  // partition (not round-robin) so a forced split on a genuinely
  // multi-node box still keeps each synthetic node mostly within one
  // physical node.
  std::vector<int> cpus;
  for (const auto& node : detected_topology().nodes) {
    cpus.insert(cpus.end(), node.cpus.begin(), node.cpus.end());
  }
  const std::size_t n = static_cast<std::size_t>(want);
  CpuTopology topo;
  topo.physical = false;
  topo.nodes.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t lo = j * cpus.size() / n;
    const std::size_t hi = (j + 1) * cpus.size() / n;
    NumaNode node;
    node.id = static_cast<int>(j);
    node.cpus.assign(cpus.begin() + static_cast<std::ptrdiff_t>(lo),
                     cpus.begin() + static_cast<std::ptrdiff_t>(hi));
    topo.nodes.push_back(std::move(node));
  }
  return topo;
}

}  // namespace raidrel::util
