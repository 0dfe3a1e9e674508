#include "util/cpu_features.h"

#include <cstdlib>

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

}  // namespace raidrel::util
